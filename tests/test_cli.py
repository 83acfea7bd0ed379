import pytest

from temposep.cli import main
from temposep.fileio import dump_tg, format_tg, load_tg
from temposep import build


@pytest.fixture
def g1_file(tmp_path, g1):
    path = tmp_path / "g1.tg"
    dump_tg(g1, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_yes_with_budget_one(self, capsys, g1_file):
        code, out, _ = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "1"])
        assert code == 0
        assert out == "verdict=yes separator=1 backend=search-tree\n"

    def test_no_with_budget_zero(self, capsys, g1_file):
        code, out, _ = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "0"])
        assert code == 1
        assert out == "verdict=no\n"

    def test_stdout_is_byte_stable(self, capsys, g1_file):
        for algo in ("auto", "brute", "search-tree", "treewidth", "static-cut"):
            argv = ["solve", g1_file, "--s", "0", "--z", "3", "--k", "2", "--algo", algo]
            _, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert first == second, algo

    def test_strict_auto_uses_search_tree(self, capsys, g1_file):
        code, out, _ = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "1", "--strict"])
        assert code == 0
        assert "backend=search-tree" in out

    def test_quiet(self, capsys, g1_file):
        code, out, _ = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "1", "--quiet"])
        assert code == 0 and out == "yes\n"

    def test_terminal_edge_contract_violation(self, capsys, tmp_path):
        p = tmp_path / "bad.tg"
        dump_tg(build(3, 1, [(0, 2, 1)]), p)
        code, _, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "2", "--k", "1"])
        assert code == 3
        assert "time-edge between terminals" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.tg"
        p.write_text("tg 3 1\n0 1\n")
        code, _, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "2", "--k", "1"])
        assert code == 2
        assert ":2:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["solve", "/nonexistent.tg", "--s", "0", "--z", "1", "--k", "1"])
        assert code == 2

    def test_batch_prefixes_and_order(self, capsys, tmp_path, g1):
        a, b = tmp_path / "a.tg", tmp_path / "b.tg"
        dump_tg(g1, a)
        dump_tg(g1, b)
        code, out, _ = run(capsys, ["solve", str(a), str(b), "--s", "0", "--z", "3", "--k", "1"])
        lines = out.splitlines()
        assert lines[0].startswith(f"file={a} ") and lines[1].startswith(f"file={b} ")
        assert code == 0

    def test_backend_choices(self, capsys, g1_file):
        for algo, expected in [("brute", "brute"), ("treewidth", "treewidth-dp"), ("search-tree", "search-tree")]:
            code, out, _ = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "1", "--algo", algo])
            assert code == 0
            assert f"backend={expected}" in out

    def test_interval_with_incompatible_identity_is_contract_error(self, capsys, tmp_path):
        p = tmp_path / "span.tg"
        dump_tg(build(4, 1, [(0, 2, 1), (1, 3, 1)]), p)
        code, _, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "interval"])
        assert code == 3
        assert "indifference" in err

    def test_strict_rejected_for_dp_backends(self, capsys, g1_file):
        code, _, err = run(capsys, ["solve", g1_file, "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--strict"])
        assert code == 2

    def test_ordering_file(self, capsys, tmp_path):
        p = tmp_path / "path.tg"
        dump_tg(build(3, 1, [(0, 1, 1), (1, 2, 1)]), p)
        ordering = tmp_path / "ord.txt"
        ordering.write_text("0 1 2\n")
        code, out, _ = run(
            capsys,
            ["solve", str(p), "--s", "0", "--z", "2", "--k", "1", "--algo", "interval", "--ordering", str(ordering)],
        )
        assert code == 0 and "separator=1" in out

    def test_td_file(self, capsys, tmp_path, g1):
        p = tmp_path / "g.tg"
        dump_tg(g1, p)
        td = tmp_path / "g.td"
        td.write_text("td 2 3 4\nb 1 0 1 3\nb 2 0 2 3\n1 2\n")
        code, out, _ = run(
            capsys,
            ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--td", str(td)],
        )
        assert code == 0 and "verdict=yes" in out

    def test_td_header_vertex_count_must_match_graph(self, capsys, tmp_path, g1):
        p = tmp_path / "g.tg"
        dump_tg(g1, p)
        td = tmp_path / "g.td"
        td.write_text("td 1 4 9\nb 1 0 1 2 3\n")
        code, out, err = run(
            capsys,
            ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--td", str(td)],
        )
        assert code == 3 and out == ""
        assert err == "error: decomposition header declares 9 vertices, the graph has 4\n"

    @pytest.mark.parametrize(
        "extra",
        [["--algo", "search-tree"], ["--algo", "interval"], ["--algo", "static-cut"], ["--algo", "brute"], ["--strict"]],
    )
    def test_td_ignored_by_backends_that_cannot_read_it(self, capsys, tmp_path, extra):
        p = tmp_path / "path.tg"
        dump_tg(build(4, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]), p)
        td = tmp_path / "bad.td"
        td.write_text("td 1 2 4\nb 1 0 1\n")
        argv = ["solve", str(p), "--s", "0", "--z", "3", "--k", "1"]
        without_td = run(capsys, argv + extra)
        assert without_td[0] == 0 and without_td[2] == ""
        assert run(capsys, argv + extra + ["--td", str(td)]) == without_td
        code, out, err = run(capsys, argv + ["--algo", "treewidth", "--td", str(td)])
        assert (code, out) == (2, "")
        assert err == "error: vertex 2 appears in no bag\n"

    def test_deep_decomposition_solves(self, capsys, tmp_path):
        n = 1000
        p = tmp_path / "path1000.tg"
        dump_tg(build(n, 1, [(v, v + 1, 1) for v in range(n - 1)]), p)
        code, out, err = run(
            capsys, ["solve", str(p), "--s", "0", "--z", str(n - 1), "--k", "1", "--algo", "treewidth"]
        )
        assert code == 0 and err == ""
        assert out == "verdict=yes separator=998 backend=treewidth-dp\n"


class TestPath:
    def test_yes(self, capsys, g1_file):
        code, out, _ = run(capsys, ["path", g1_file, "--s", "0", "--z", "3"])
        assert code == 0
        assert out == "verdict=yes path=0-1@1,1-3@2\n"

    def test_no_strict(self, capsys, tmp_path):
        p = tmp_path / "eq.tg"
        dump_tg(build(3, 1, [(0, 1, 1), (1, 2, 1)]), p)
        code, out, _ = run(capsys, ["path", str(p), "--s", "0", "--z", "2", "--strict"])
        assert code == 1 and out == "verdict=no\n"


class TestClassify:
    def test_output_shape(self, capsys, tmp_path):
        p = tmp_path / "m.tg"
        from temposep import from_layers

        g = from_layers(4, [[(0, 1)], [(0, 1), (1, 2)], [(0, 1)], [(0, 1)]])
        dump_tg(g, p)
        code, out, _ = run(capsys, ["classify", str(p)])
        assert code == 0
        assert out.splitlines() == [
            "monotone p=2 peaks=2",
            "periodic p=4 r=1",
            "steady lambda=1",
            "interval-connected maxT=0",
        ]

    def test_not_monotone(self, capsys, g1_file):
        code, out, _ = run(capsys, ["classify", g1_file])
        assert out.splitlines()[0] == "monotone none"


class TestReduce:
    def test_writes_output_and_report(self, capsys, g1_file, tmp_path):
        out_path = tmp_path / "out.tg"
        code, out, _ = run(
            capsys,
            ["reduce", g1_file, "--kind", "pad-monotone", "-o", str(out_path), "--s", "0", "--z", "3", "--report"],
        )
        assert code == 0
        assert f"out={out_path} s=0 z=3 k=0" in out
        assert "check.tau_is_2tau_minus_1=pass" in out
        assert "budget_delta=0" in out
        assert load_tg(out_path).tau == 3

    def test_universal_budget_delta(self, capsys, g1_file, tmp_path):
        out_path = tmp_path / "u.tg"
        code, out, _ = run(
            capsys,
            ["reduce", g1_file, "--kind", "universal", "-o", str(out_path), "--s", "0", "--z", "3", "--k", "1", "--report"],
        )
        assert code == 0
        assert "k=2" in out.splitlines()[0]
        assert "budget_delta=1" in out

    def test_line_graph_reports_new_terminals(self, capsys, tmp_path):
        from temposep import from_layers

        cyc = from_layers(4, [[(0, 1), (1, 2), (2, 3), (0, 3)]] * 2)
        p = tmp_path / "cyc.tg"
        dump_tg(cyc, p)
        out_path = tmp_path / "lg.tg"
        code, out, _ = run(
            capsys,
            ["reduce", str(p), "--kind", "line-graph", "-o", str(out_path), "--s", "0", "--z", "2"],
        )
        assert code == 0
        assert out.startswith(f"out={out_path} s=0 z=2 k=0")

    def test_degree_violation_is_contract_error(self, capsys, tmp_path):
        p = tmp_path / "deg.tg"
        dump_tg(build(3, 1, [(0, 1, 1), (1, 2, 1)]), p)
        code, _, err = run(capsys, ["reduce", str(p), "--kind", "line-graph", "-o", str(tmp_path / "x.tg")])
        assert code == 3


class TestGenAndVerify:
    def test_gen_then_solve_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "gen.tg"
        code, out, _ = run(capsys, ["gen", "--n", "5", "--tau", "2", "--p", "0.5", "--seed", "3", "-o", str(out_path)])
        assert code == 0
        g = load_tg(out_path)
        assert g.n == 5 and g.tau == 2

    def test_gen_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.tg", tmp_path / "b.tg"
        run(capsys, ["gen", "--n", "6", "--tau", "3", "--p", "0.4", "--seed", "9", "-o", str(a)])
        run(capsys, ["gen", "--n", "6", "--tau", "3", "--p", "0.4", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_class_argument(self, capsys, tmp_path):
        out_path = tmp_path / "per.tg"
        code, _, _ = run(
            capsys,
            ["gen", "--n", "5", "--tau", "4", "--p", "0.5", "--class", "periodic:2,2", "--seed", "5", "-o", str(out_path)],
        )
        assert code == 0
        from temposep import classify

        assert classify(load_tg(out_path)).periodic_p == 2

    def test_verify_yes_and_no(self, capsys, g1_file):
        code, out, _ = run(capsys, ["verify", g1_file, "--s", "0", "--z", "3", "--separator", "1"])
        assert code == 0 and out == "verdict=yes\n"
        code, out, _ = run(capsys, ["verify", g1_file, "--s", "0", "--z", "3", "--separator", ""])
        assert code == 1 and out == "verdict=no\n"

    def test_verify_terminal_in_separator(self, capsys, g1_file):
        code, _, err = run(capsys, ["verify", g1_file, "--s", "0", "--z", "3", "--separator", "0"])
        assert code == 3

    @pytest.mark.parametrize("separator", [["--separator", "99"], ["--separator=-1"]], ids=["99", "-1"])
    def test_verify_out_of_range_separator(self, capsys, g1_file, separator):
        code, out, err = run(capsys, ["verify", g1_file, "--s", "0", "--z", "3", *separator])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_verify_strict(self, capsys, tmp_path):
        p = tmp_path / "eq.tg"
        dump_tg(build(3, 1, [(0, 1, 1), (1, 2, 1)]), p)
        # vertex 1 is the only route; empty set separates strictly but not plainly
        code, out, _ = run(capsys, ["verify", str(p), "--s", "0", "--z", "2", "--separator", "", "--strict"])
        assert code == 0 and out == "verdict=yes\n"
        code, out, _ = run(capsys, ["verify", str(p), "--s", "0", "--z", "2", "--separator", ""])
        assert code == 1


def test_stats_go_to_stderr_not_stdout(capsys, tmp_path, g1):
    p = tmp_path / "g.tg"
    dump_tg(g1, p)
    code, out, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--stats"])
    assert code == 0
    assert "millis=" not in out
    assert "n=4 m=4 tau=2" in err and "millis=" in err


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 2


def test_work_cap_env_override(monkeypatch, capsys, tmp_path):
    from temposep import from_layers

    monkeypatch.setenv("TEMPO_SEP_WORK_CAP", "1")
    # With the cap forced to 1, an auto solve with a td hint falls back to the
    # search tree; the result must still verify.
    g = build(5, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)])
    p = tmp_path / "w.tg"
    dump_tg(g, p)
    td = tmp_path / "w.td"
    td.write_text("td 4 2 5\nb 1 0 1\nb 2 1 2\nb 3 2 3\nb 4 3 4\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, ["solve", str(p), "--s", "0", "--z", "4", "--k", "1", "--td", str(td)])
    assert code == 0
    assert "backend=search-tree" in out


def test_contract_errors_are_exactly_the_exit_3_family():
    import inspect

    from temposep import errors

    family = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.ContractError) and cls is not errors.ContractError
    }
    assert family == {
        "DecompositionMismatch",
        "DegreeTooSmall",
        "IncompatibleOrdering",
        "LayersNotEqual",
        "NotMonotone",
        "TerminalEdgePresent",
        "TerminalInSeparator",
        "TerminalsAdjacent",
    }

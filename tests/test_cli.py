import contextlib
import io
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temposep.cli import REDUCTION_KINDS, main
from temposep.errors import NotAPermutation
from temposep.fileio import dump_tg, format_tg, load_tg
from temposep import build, check_order_compatible


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

    def test_batch_continues_after_a_failed_file(self, capsys, tmp_path, g1):
        good1, bad, good2 = tmp_path / "a.tg", tmp_path / "bad.tg", tmp_path / "c.tg"
        dump_tg(g1, good1)
        bad.write_text("tg 3 1\n0 1\n")
        dump_tg(g1, good2)
        code, out, err = run(capsys, ["solve", str(good1), str(bad), str(good2), "--s", "0", "--z", "3", "--k", "1"])
        assert out.splitlines() == [
            f"file={good1} verdict=yes separator=1 backend=search-tree",
            f"file={good2} verdict=yes separator=1 backend=search-tree",
        ]
        assert err == f"error: {bad}:2: bad edge line '0 1', expected '<u> <v> <t>'\n"
        assert code == 2

    def test_batch_exit_code_is_the_highest_seen(self, capsys, tmp_path, g1):
        good, contract = tmp_path / "a.tg", tmp_path / "terminal-edge.tg"
        dump_tg(g1, good)
        dump_tg(build(4, 1, [(0, 3, 1)]), contract)
        code, out, err = run(capsys, ["solve", str(contract), str(good), "--s", "0", "--z", "3", "--k", "0"])
        assert out == f"file={good} verdict=no\n"
        assert err.startswith(f"error: {contract}: ") and "time-edge between terminals" in err
        assert code == 3

    def test_batch_aborts_on_a_bad_ordering_file(self, capsys, tmp_path, g1):
        good1, good2, bad_order = tmp_path / "a.tg", tmp_path / "b.tg", tmp_path / "bad.ord"
        dump_tg(g1, good1)
        dump_tg(g1, good2)
        bad_order.write_text("garbage\n")
        code, out, err = run(
            capsys, ["solve", str(good1), str(good2), "--s", "0", "--z", "3", "--k", "1", "--ordering", str(bad_order)]
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("td 2 3 4\nb 1 0 1 2\nb 2 0 2 3\n1 1\n", "bag tree is not connected"),
            ("td 1 2 4\nb 1 0 1\n", "vertex 2 appears in no bag"),
            (
                "td 3 2 4\nb 1 0 1\nb 2 2 3\nb 3 0 2\n1 2\n2 3\n",
                "bags containing vertex 0 are not connected in the tree",
            ),
        ],
        ids=["not-a-tree", "uncovered-vertex", "disconnected-occurrence"],
    )
    def test_batch_reports_a_td_fault_that_needs_no_graph_once_by_its_name(self, capsys, tmp_path, g1, text, message):
        g, h, bad = tmp_path / "g.tg", tmp_path / "h.tg", tmp_path / "bad.td"
        dump_tg(g1, g)
        dump_tg(g1, h)
        bad.write_text(text)
        argv = ["solve", str(g), str(h), "--s", "0", "--z", "3", "--k", "1", "--td", str(bad)]
        assert run(capsys, argv) == (2, "", f"error: {bad}: {message}\n")

    def test_batch_outcome_does_not_depend_on_which_graph_an_ordering_fits(self, capsys, tmp_path):
        a4, b5, ordering = tmp_path / "a4.tg", tmp_path / "b5.tg", tmp_path / "ord.txt"
        dump_tg(build(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), a4)
        dump_tg(build(5, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]), b5)
        ordering.write_text("0 1 2 3\n")
        flags = ["--s", "0", "--z", "3", "--k", "1", "--algo", "interval", "--ordering", str(ordering)]
        expected_out = f"file={a4} verdict=yes separator=1 backend=interval-dp"
        expected_err = f"error: {b5}: --ordering is not a permutation of 0..4"
        for files in ([a4, b5], [b5, a4]):
            code, out, err = run(capsys, ["solve", *map(str, files), *flags])
            assert (code, out.splitlines(), err.splitlines()) == (2, [expected_out], [expected_err])

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

    @pytest.mark.parametrize("caller", ["solve", "check_order_compatible"])
    def test_ordering_of_the_wrong_length_allocates_nothing_in_n(self, capsys, tmp_path, caller):
        p, ordering = tmp_path / "big.tg", tmp_path / "ord.txt"
        p.write_text("tg 1000000 1\n0 1 1\n1 2 1\n")
        ordering.write_text("0 1 2\n")
        tracemalloc.start()
        try:
            if caller == "solve":
                argv = ["solve", str(p), "--s", "0", "--z", "2", "--k", "1", "--algo", "interval"]
                expected = (2, "", "error: --ordering is not a permutation of 0..999999\n")
                assert run(capsys, argv + ["--ordering", str(ordering)]) == expected
            else:
                with pytest.raises(NotAPermutation, match=r"^ordering is not a permutation of 0\.\.999999$"):
                    check_order_compatible(build(10**6, 1, [(0, 1, 1)]), (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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

    @pytest.mark.parametrize(
        "graph, decomposition, message",
        [
            (
                "tg 4 2\n0 1 1\n1 3 2\n0 2 2\n2 3 1\n",
                "td 1 9 9\nb 1 0 1 2 3 4 5 6 7 8\n",
                "decomposition header declares 9 vertices, the graph has 4",
            ),
            (
                "tg 4 2\n0 1 1\n1 2 1\n2 3 2\n0 2 2\n",
                "td 2 3 4\nb 1 0 1 3\nb 2 1 2 3\n1 2\n",
                "edge (0,2) is contained in no bag",
            ),
        ],
        ids=["header-vertex-count", "uncovered-edge"],
    )
    def test_td_that_misfits_the_graph_exits_3(self, capsys, tmp_path, graph, decomposition, message):
        p = tmp_path / "g.tg"
        p.write_text(graph)
        td = tmp_path / "g.td"
        td.write_text(decomposition)
        code, out, err = run(
            capsys,
            ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--td", str(td)],
        )
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    def test_unreachable_z_answers_empty_and_a_misfit_still_exits_3(self, capsys, tmp_path):
        # 0-1@1, 1-2@3, 2-3@2, 3-4@1: no temporal path from 0 reaches 4.  The
        # layers are pairwise incomparable and not periodic, so auto reaches
        # the treewidth rule.
        p = tmp_path / "g.tg"
        p.write_text("tg 5 3\n0 1 1\n3 4 1\n2 3 2\n1 2 3\n")
        td = tmp_path / "g.td"
        argv = ["solve", str(p), "--s", "0", "--z", "4", "--k", "0", "--td", str(td)]
        td.write_text("td 2 3 5\nb 1 0 1 2\nb 2 2 3 4\n1 2\n")
        for extra in ([], ["--algo", "treewidth"]):
            assert run(capsys, argv + extra) == (0, "verdict=yes separator= backend=treewidth-dp\n", "")
        td.write_text("td 2 3 5\nb 1 0 1\nb 2 2 3 4\n1 2\n")
        for extra in ([], ["--algo", "treewidth"]):
            assert run(capsys, argv + extra) == (3, "", "error: edge (1,2) is contained in no bag\n")

    def test_td_header_bag_count_allocates_nothing(self, capsys, tmp_path):
        p = tmp_path / "p4.tg"
        dump_tg(build(4, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]), p)
        td = tmp_path / "huge.td"
        td.write_text(f"td {2**61 + 12345} 4 4\nb 1 0 1 2 3\n")
        argv = ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--td", str(td)]
        assert run(capsys, argv) == (2, "", f"error: {td}: bag 2 never declared\n")

    @pytest.mark.parametrize(
        "extra",
        [["--algo", "search-tree"], ["--algo", "interval"], ["--algo", "static-cut"], ["--algo", "brute"], ["--strict"]],
    )
    def test_td_ignored_by_backends_that_cannot_read_it(self, capsys, tmp_path, extra):
        p = tmp_path / "path.tg"
        dump_tg(build(4, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]), p)
        argv = ["solve", str(p), "--s", "0", "--z", "3", "--k", "1"]
        without_td = run(capsys, argv + extra)
        assert without_td[0] == 0 and without_td[2] == ""
        td = tmp_path / "bad.td"
        for text, error in (
            ("td 1 2 4\nb 1 0 1\n", f"{td}: vertex 2 appears in no bag"),
            ("garbage\n", f"{td}:1: bad header 'garbage', expected 'td <num_bags> <max_bag_size> <n>'"),
        ):
            td.write_text(text)
            assert run(capsys, argv + extra + ["--td", str(td)]) == without_td
            assert run(capsys, argv + ["--algo", "treewidth", "--td", str(td)]) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "extra",
        [["--algo", "search-tree"], ["--algo", "treewidth"], ["--algo", "static-cut"], ["--algo", "brute"], ["--strict"]],
    )
    def test_ordering_ignored_by_backends_that_cannot_read_it(self, capsys, tmp_path, extra):
        p = tmp_path / "path.tg"
        dump_tg(build(4, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]), p)
        argv = ["solve", str(p), "--s", "0", "--z", "3", "--k", "1"]
        without_ordering = run(capsys, argv + extra)
        assert without_ordering[0] == 0 and without_ordering[2] == ""
        ordering = tmp_path / "bad.ord"
        ordering.write_text("garbage\n")
        assert run(capsys, argv + extra + ["--ordering", str(ordering)]) == without_ordering
        for algo in ("interval", "auto"):
            code, out, err = run(capsys, argv + ["--algo", algo, "--ordering", str(ordering)])
            assert (code, out, err) == (2, "", f"error: {ordering}: ordering file must contain only integers\n")

    def test_empty_layers_change_no_answer(self, capsys, tmp_path):
        sparse, dense = tmp_path / "sparse.tg", tmp_path / "dense.tg"
        order4, order10 = tmp_path / "4.ord", tmp_path / "10.ord"
        order4.write_text("0 1 2 3\n")
        order10.write_text(" ".join(map(str, range(10))) + "\n")
        four_edges = "0 1 1\n1 2 2\n2 3 3\n1 3 4\n"
        alternating = "".join(f"{v} {v + 1} {1 + v % 2}\n" for v in range(9))
        cases = [
            (4, four_edges, 4, [[], ["--algo", "search-tree"], ["--strict"]]),
            # The interval DP and the order check, the second under auto:
            # no static-cut rule takes the alternating path.
            (4, "0 1 1\n1 2 2\n2 3 3\n", 3, [["--algo", "interval", "--ordering", str(order4)]]),
            (10, alternating, 2, [["--ordering", str(order10)]]),
        ]
        for n, edges, tau, extras in cases:
            sparse.write_text(f"tg {n} 250000\n" + edges)
            dense.write_text(f"tg {n} {tau}\n" + edges)
            for extra in extras:
                argv = ["--s", "0", "--z", str(n - 1), "--k", "1", *extra]
                answer = run(capsys, ["solve", str(sparse), *argv])
                assert answer == run(capsys, ["solve", str(dense), *argv])
                assert ("--ordering" in extra) == ("backend=interval-dp" in answer[1])
        sparse.write_text("tg 4 250000\n" + four_edges)
        assert run(capsys, ["solve", str(sparse), "--s", "0", "--z", "3", "--k", "1"]) == (
            0,
            "verdict=yes separator=1 backend=search-tree\n",
            "",
        )

    def test_deep_decomposition_solves(self, capsys, tmp_path):
        n = 1000
        p = tmp_path / "path1000.tg"
        dump_tg(build(n, 1, [(v, v + 1, 1) for v in range(n - 1)]), p)
        code, out, err = run(
            capsys, ["solve", str(p), "--s", "0", "--z", str(n - 1), "--k", "1", "--algo", "treewidth"]
        )
        assert code == 0 and err == ""
        assert out == "verdict=yes separator=998 backend=treewidth-dp\n"


    @pytest.mark.parametrize("n", [3, 5])
    def test_treewidth_on_tau_zero_leaves_terminals_out(self, capsys, tmp_path, n):
        p = tmp_path / "empty.tg"
        p.write_text(f"tg {n} 0\n")
        argv = ["solve", str(p), "--s", "0", "--z", str(n - 1), "--k", "0", "--algo", "treewidth"]
        assert run(capsys, argv) == (0, "verdict=yes separator= backend=treewidth-dp\n", "")


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


    def test_quiet_yes(self, capsys, g1_file):
        assert run(capsys, ["path", g1_file, "--s", "0", "--z", "3", "--quiet"]) == (0, "yes\n", "")

    def test_invalid_witness_is_an_assertion_not_output(self, capsys, monkeypatch, g1_file):
        monkeypatch.setattr("temposep.reachability.is_valid_path", lambda *args: False)
        with pytest.raises(AssertionError, match="invalid path"):
            main(["path", g1_file, "--s", "0", "--z", "3"])
        assert capsys.readouterr().out == ""


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

    def test_long_path_connected_in_every_window(self, capsys, tmp_path):
        # Every window intersection is the whole path; intersecting every
        # window took minutes at this tau, the sweep takes milliseconds.
        tau = 2000
        p = tmp_path / "path.tg"
        dump_tg(build(3, tau, [(u, u + 1, t) for t in range(1, tau + 1) for u in range(2)]), p)
        start = time.perf_counter()
        code, out, _ = run(capsys, ["classify", str(p)])
        assert code == 0
        assert out.splitlines()[-1] == "interval-connected maxT=2000"
        assert time.perf_counter() - start < 20


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

    def test_whole_report_of_universal(self, capsys, g1_file, tmp_path):
        out_path = tmp_path / "u.tg"
        argv = ["reduce", g1_file, "--kind", "universal", "-o", str(out_path), "--s", "0", "--z", "3", "--k", "1"]
        assert run(capsys, argv + ["--report"]) == (
            0,
            f"out={out_path} s=0 z=3 k=2\n"
            "kind=universal\n"
            "budget_delta=1\n"
            "input.n=4\n"
            "input.m=4\n"
            "input.tau=2\n"
            "input.k=1\n"
            "check.hub_in_every_layer=pass\n"
            "check.interval_connected_for_every_window=pass\n"
            "detail.hub=4\n"
            "detail.max_window=2\n",
            "",
        )

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

    def test_failed_checklist_is_contract_error(self, capsys, monkeypatch, g1_file, tmp_path):
        from temposep import reductions

        def unchecked(inst):
            return inst, reductions.ReductionReport(0, {"holds": False}, {})

        monkeypatch.setitem(reductions.REDUCTIONS, "one-edge", unchecked)
        out_path = tmp_path / "out.tg"
        code, out, err = run(capsys, ["reduce", g1_file, "--kind", "one-edge", "-o", str(out_path)])
        assert (code, out, err) == (3, f"out={out_path} s=0 z=3 k=0\n", "error: structural checklist failed\n")

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


# Every command that answers yes or no, on a yes and a no instance: the argv
# ({a} and {b} hold g1, {none} holds g2), the exit code, stdout, and stdout
# under --quiet.  Nothing goes to stderr.
ANSWERS = {
    "path-yes": (["path", "{a}"], 0, "verdict=yes path=0-1@1,1-3@2\n", "yes\n"),
    "path-no": (["path", "{none}"], 1, "verdict=no\n", "no\n"),
    "solve-yes": (["solve", "{a}", "--k", "1"], 0, "verdict=yes separator=1 backend=search-tree\n", "yes\n"),
    "solve-no": (["solve", "{a}", "--k", "0"], 1, "verdict=no\n", "no\n"),
    "batch-yes": (
        ["solve", "{a}", "{b}", "--k", "1"],
        0,
        "file={a} verdict=yes separator=1 backend=search-tree\nfile={b} verdict=yes separator=1 backend=search-tree\n",
        "yes\nyes\n",
    ),
    "batch-no": (["solve", "{a}", "{b}", "--k", "0"], 1, "file={a} verdict=no\nfile={b} verdict=no\n", "no\nno\n"),
    "verify-yes": (["verify", "{a}", "--separator", "1"], 0, "verdict=yes\n", "yes\n"),
    "verify-no": (["verify", "{a}", "--separator", ""], 1, "verdict=no\n", "no\n"),
}


@pytest.mark.parametrize("quiet", [False, True], ids=["plain", "quiet"])
@pytest.mark.parametrize("case", sorted(ANSWERS))
def test_answer_line_and_exit_code(capsys, tmp_path, g1, g2, case, quiet):
    files = {name: str(tmp_path / f"{name}.tg") for name in ("a", "b", "none")}
    for name, g in (("a", g1), ("b", g1), ("none", g2)):
        dump_tg(g, files[name])
    argv, code, plain, quiet_out = ANSWERS[case]
    argv = [arg.format(**files) for arg in argv] + ["--s", "0", "--z", "3"] + (["--quiet"] if quiet else [])
    assert run(capsys, argv) == (code, quiet_out if quiet else plain.format(**files), "")


@pytest.mark.parametrize("quiet", [False, True], ids=["plain", "quiet"])
def test_one_input_solve_failure_is_one_unprefixed_error_line(capsys, tmp_path, quiet):
    span, missing = tmp_path / "span.tg", tmp_path / "missing.tg"
    dump_tg(build(4, 1, [(0, 2, 1), (1, 3, 1)]), span)
    flags = ["--s", "0", "--z", "3", "--k", "1", "--algo", "interval"] + (["--quiet"] if quiet else [])
    assert run(capsys, ["solve", str(span), *flags]) == (
        3,
        "",
        "error: layer 1 violates indifference at positions (0,1,2)\n",
    )
    assert run(capsys, ["solve", str(missing), *flags]) == (
        2,
        "",
        f"error: [Errno 2] No such file or directory: '{missing}'\n",
    )


def test_batch_names_a_missing_file_once(capsys, tmp_path, g1_file):
    missing = str(tmp_path / "missing.tg")
    code, out, err = run(capsys, ["solve", g1_file, missing, "--s", "0", "--z", "3", "--k", "1"])
    assert code == 2
    assert out == f"file={g1_file} verdict=yes separator=1 backend=search-tree\n"
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_stats_go_to_stderr_not_stdout(capsys, tmp_path, g1):
    p = tmp_path / "g.tg"
    dump_tg(g1, p)
    code, out, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--stats"])
    assert code == 0
    assert "millis=" not in out
    assert "n=4 m=4 tau=2" in err and "millis=" in err


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 2


@pytest.mark.parametrize(
    "klass", ["steady:", "periodic:2", "periodic:a,b", "monotone:x", "unit-interval:7", "none:3"]
)
def test_gen_bad_class_parameters_name_the_class_and_its_forms(capsys, tmp_path, klass):
    out_path = tmp_path / "o.tg"
    argv = ["gen", "--n", "5", "--tau", "4", "--p", "0.5", "--class", klass, "-o", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"bad parameters in class '{klass}'" in err and "periodic:P,R, steady:L, monotone:P" in err
    assert "invalid literal" not in err
    assert not out_path.exists()


def test_gen_unit_interval_class_writes_the_generated_graph(capsys, tmp_path):
    from temposep.generators import GenSpec, UnitIntervalConstraint, generate

    out_path = tmp_path / "ui.tg"
    argv = ["gen", "--n", "6", "--tau", "3", "--p", "0.6", "--class", "unit-interval", "--seed", "4", "-o", str(out_path)]
    assert run(capsys, argv)[0] == 0
    expected = generate(GenSpec(n=6, tau=3, edge_prob=0.6, constraint=UnitIntervalConstraint(), seed=4))
    assert load_tg(out_path) == expected.g


def test_gen_unknown_class_lists_the_forms(capsys, tmp_path):
    argv = ["gen", "--n", "5", "--tau", "4", "--p", "0.5", "--class", "cyclic", "-o", str(tmp_path / "o.tg")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: unknown class 'cyclic'; expected none, unit-interval, periodic:P,R, steady:L, monotone:P\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("tg 4 x\n", "{path}:1: non-integer header fields in 'tg 4 x'"),
        ("tg 4 2\n0 1 1\n0 1 x\n", "{path}:3: non-integer edge fields in '0 1 x'"),
        ("tg -1 2\n", "{path}:1: vertex count -1 is negative"),
        ("# graph\ntg 4 -2\n", "{path}:2: max label -2 is negative"),
        ("tg 4 2\n0 1 1\n# c\n2 2 1\n", "{path}:4: time-edge (2,2,1) is a self-loop"),
        ("tg 4 2\n\n0 4 1\n", "{path}:3: time-edge (0,4,1) has a vertex outside 0..3"),
        ("tg 4 2\n0 1 3\n", "{path}:2: time-edge (0,1,3) has label outside 1..2"),
    ],
    ids=["header-field", "edge-field", "negative-n", "negative-tau", "self-loop", "vertex-range", "label-range"],
)
def test_malformed_tg_exits_2_naming_the_file(capsys, tmp_path, text, message):
    p = tmp_path / "bad.tg"
    p.write_text(text)
    code, out, err = run(capsys, ["solve", str(p), "--s", "0", "--z", "3", "--k", "1"])
    assert (code, out, err) == (2, "", f"error: {message.format(path=p)}\n")


HUGE = 99999999999999999999  # at least 2**63: no list of that length can be sized


@pytest.mark.parametrize(
    "header, argv",
    [
        (f"tg 4 {HUGE}", ["solve", "{path}", "--s", "0", "--z", "2", "--k", "1"]),
        (f"tg 4 {HUGE}", ["classify", "{path}"]),
        (f"tg {HUGE} 2", ["solve", "{path}", "--s", "0", "--z", "2", "--k", "1"]),
        (f"tg {HUGE} 2", ["solve", "{path}", "--s", "0", "--z", "2", "--k", "1", "--strict"]),
        (f"tg {HUGE} 2", ["solve", "{path}", "--s", "0", "--z", "2", "--k", "1", "--algo", "interval"]),
    ],
    ids=["huge-tau", "huge-tau-classify", "huge-n", "huge-n-strict", "huge-n-interval"],
)
def test_a_header_too_large_to_size_is_one_error_line(capsys, tmp_path, header, argv):
    p = tmp_path / "huge.tg"
    p.write_text(f"{header}\n0 1 1\n1 2 2\n")
    code, out, err = run(capsys, [arg.format(path=p) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1
    static = ["solve", str(p), "--s", "0", "--z", "2", "--k", "1", "--algo", "static-cut"]
    assert run(capsys, static) == (0, "verdict=yes separator=1 backend=static-cut\n", "")


def test_the_interval_backend_answers_a_header_tau_too_large_to_size(capsys, tmp_path):
    # The order check reads each layer off the edge list, so nothing it
    # builds is sized by the header's tau.
    p = tmp_path / "huge.tg"
    p.write_text(f"tg 4 {HUGE}\n0 1 1\n1 2 2\n")
    argv = ["solve", str(p), "--s", "0", "--z", "2", "--k", "1", "--algo", "interval"]
    assert run(capsys, argv) == (0, "verdict=yes separator=1 backend=interval-dp\n", "")


def test_a_memory_error_is_an_input_error_and_a_batch_moves_on(monkeypatch, capsys, tmp_path, g1_file):
    import temposep.fileio

    real_build = temposep.fileio.build

    def build_or_run_out(n, tau, triples):
        if n > 10**6:
            raise MemoryError
        return real_build(n, tau, triples)

    monkeypatch.setattr(temposep.fileio, "build", build_or_run_out)
    huge = tmp_path / "huge.tg"
    huge.write_text("tg 1000000000000000 2\n0 1 1\n")
    code, out, err = run(capsys, ["solve", str(huge), g1_file, "--s", "0", "--z", "3", "--k", "1"])
    assert code == 2
    assert out == f"file={g1_file} verdict=yes separator=1 backend=search-tree\n"
    assert err == f"error: {huge}: MemoryError\n"
    assert run(capsys, ["classify", str(huge)]) == (2, "", "error: MemoryError\n")


@pytest.mark.parametrize("flag", [None, "--td", "--ordering"])
def test_non_ascii_input_exits_2_naming_the_file_and_line(capsys, tmp_path, g1, flag):
    p, bad = tmp_path / "g.tg", tmp_path / "bad.txt"
    dump_tg(g1, p)
    bad.write_bytes(b"# ok\r\n\n\xff 1\n")
    argv = ["solve", str(bad if flag is None else p), "--s", "0", "--z", "3", "--k", "1"]
    if flag is not None:
        argv += [flag, str(bad), "--algo", "treewidth" if flag == "--td" else "interval"]
    assert run(capsys, argv) == (2, "", f"error: {bad}:3: non-ASCII byte 0xff\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty file, expected 'td <num_bags> <max_bag_size> <n>' header"),
        ("td 1 x 4\n", "{path}:1: non-integer header fields in 'td 1 x 4'"),
        ("td 1 4 4\nb 1 0 1 2 3\nb 2 0 3\n", "{path}:3: bag id 2 outside 1..1"),
        ("td 2 4 4\nb 1 0 1 3\nb 2 0 2 3\n1 3\n", "{path}:4: tree edge (1,3) references unknown bag"),
        ("td 0 0 4\n", "{path}:1: header declares 0 bags, need at least 1"),
        ("td 1 1 -1\nb 1\n", "{path}:1: vertex count -1 is negative"),
        ("td 1 -1 4\nb 1\n", "{path}:1: max bag size -1 is negative"),
        ("td 2 2 4\nb 1 0 3\nb 2 0 1 3\n1 2\n", "{path}:3: bag 2 has 3 vertices, header allows 2"),
        ("td 1000000000 4 4\nb 1 0 1 2 3\n", "{path}: bag 2 never declared"),
        ("td 1 4 4\nb 1 0 1 2 9\n", "{path}:2: bag 1 contains out-of-range vertex 9"),
        ("td 1 4 4\n# bags\nb 1 0 -2 2 3\n", "{path}:3: bag 1 contains out-of-range vertex -2"),
        ("td 1 4 4\nb 1 0 1 2 3\n1 1 1\n", "{path}:3: unrecognized line '1 1 1'"),
        ("td 1 4 4\nb\n", "{path}:2: unrecognized line 'b'"),
        ("td 2 3 4\nb 1 0 1 3\nb 2 0 2 3\n", "{path}: 2 bags need 1 tree edges, got 0"),
        ("td 1 4 9\nb 1 0 1 2 3\n", "{path}: vertex 4 appears in no bag"),
        (f"td 1 4 {2**61}\nb 1 0 1 2 3\n", "{path}: vertex 4 appears in no bag"),
    ],
    ids=[
        "empty",
        "header-field",
        "bag-id",
        "tree-edge",
        "no-bags",
        "negative-vertex-count",
        "negative-bag-size",
        "oversized-bag",
        "huge-bag-count",
        "vertex-above-n",
        "negative-vertex",
        "three-fields",
        "bag-without-id",
        "tree-edge-count",
        "uncovered-vertex",
        "huge-vertex-count",
    ],
)
def test_malformed_td_exits_2(capsys, tmp_path, g1, text, message):
    p = tmp_path / "g.tg"
    dump_tg(g1, p)
    td = tmp_path / "bad.td"
    td.write_text(text)
    argv = ["solve", str(p), "--s", "0", "--z", "3", "--k", "1", "--algo", "treewidth", "--td", str(td)]
    assert run(capsys, argv) == (2, "", f"error: {message.format(path=td)}\n")


def test_run_solve_rejects_an_unknown_algorithm(g1):
    from temposep import Instance
    from temposep.cli import run_solve
    from temposep.errors import FormatError

    with pytest.raises(FormatError, match="unknown algorithm 'bogus'"):
        run_solve(Instance(g1, 0, 3, 1), algo="bogus")


def test_run_solve_rejects_a_non_separating_witness(monkeypatch, g1):
    from temposep import Instance, cli
    from temposep.oracle import Separator

    monkeypatch.setattr(cli, "solve_search_tree", lambda inst, strict: Separator(frozenset()))
    with pytest.raises(AssertionError, match=r"backend search-tree produced a non-separating witness \[\]"):
        cli.run_solve(Instance(g1, 0, 3, 1), algo="search-tree")


def test_verify_rejects_a_non_integer_separator(capsys, g1_file):
    code, out, err = run(capsys, ["verify", g1_file, "--s", "0", "--z", "3", "--separator", "1,x"])
    assert (code, out, err) == (2, "", "error: bad separator list '1,x'\n")


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
        "TerminalEdgePresent",
        "TerminalInSeparator",
        "TerminalsAdjacent",
    }


# Tokens a corruption puts into a line: out-of-range vertices, labels and
# counts (9, -1; 2**63 and 10**30 are too large to size a view, and nothing
# in between is drawn, so no header asks for a huge allocation), repeated
# in-range entries, non-integers, keywords out of place and a non-ASCII digit.
_JUNK = st.sampled_from(
    ["0", "1", "2", "9", "-1", str(2**63), str(10**30), "x", "1.5", "0x1", "b", "tg", "td", "#", "\u0663"]
)
_STATS_LINE = re.compile(r"n=\d+ m=\d+ tau=\d+ backend=\S+ millis=\d+\.\d")


@st.composite
def _corrupted(draw, lines):
    """`lines` (lists of tokens) after up to three corruptions: a field
    dropped, added or replaced, a line duplicated or deleted, a junk line
    inserted."""
    lines = [list(line) for line in lines]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        op = draw(st.sampled_from(["drop", "add", "replace", "duplicate", "delete", "insert"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.lists(_JUNK, max_size=4)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if op == "duplicate":
            lines.insert(i, list(line))
        elif op == "delete":
            del lines[i]
        elif op == "add":
            line.insert(draw(st.integers(0, len(line))), draw(_JUNK))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if op == "drop":
                del line[j]
            else:
                line[j] = draw(_JUNK)
    return lines


@st.composite
def _malformed_inputs(draw):
    """The texts of a `.tg` file, a `.td` file, an ordering file and a
    `--separator` value for one small graph (n <= 6, tau <= 3) with no edge
    between its terminals s and z, each valid or corrupted; then n, s, z."""
    n, tau = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    s, z = draw(st.permutations(range(n)))[:2]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if {u, v} != {s, z}]
    edge = st.tuples(st.sampled_from(pairs or [(s, z)]), st.integers(1, tau))
    edges = draw(st.lists(edge, max_size=10, unique=True))
    tg = [["tg", str(n), str(tau)]] + [[str(u), str(v), str(t)] for (u, v), t in edges]
    # Bag 1 holds every vertex, so any further bags hung off it keep the
    # decomposition valid.
    bags = [list(range(n))] + draw(st.lists(st.lists(st.integers(0, n - 1), unique=True), max_size=2))
    td = [["td", str(len(bags)), str(n), str(n)]]
    td += [["b", str(i), *map(str, bag)] for i, bag in enumerate(bags, 1)]
    td += [["1", str(i)] for i in range(2, len(bags) + 1)]
    ordering = [list(map(str, draw(st.permutations(range(n)))))]
    separator = [list(map(str, draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))))]

    def text(lines):
        return "".join(" ".join(line) + "\n" for line in lines)

    return (
        text(draw(_corrupted(tg))),
        text(draw(_corrupted(td))),
        text(draw(_corrupted(ordering))),
        ",".join(token for line in draw(_corrupted(separator)) for token in line),
        n,
        s,
        z,
    )


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(_malformed_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_malformed_files_never_escape_main(inputs, data):
    """Every command on valid or corrupted files returns an exit code in
    {0, 1, 2, 3}, and says on stderr only `error: ` lines and `--stats`
    lines: no exception escapes `main`."""
    tg_text, td_text, ordering_text, separator, n, s, z = inputs
    draw = data.draw
    s, z = draw(st.sampled_from([(s, z)] * 6 + [(z, s), (s, s), (-1, z), (s, n)]))
    query = [f"--s={s}", f"--z={z}"] + (["--strict"] if draw(st.booleans()) else [])
    k = f"--k={draw(st.sampled_from([0, 1, 2] * 2 + [-1]))}"
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp) / name for name in ("g.tg", "g.td", "ord.txt", "out.tg")}
        files["g.tg"].write_text(tg_text, encoding="utf-8")
        files["g.td"].write_text(td_text, encoding="utf-8")
        files["ord.txt"].write_text(ordering_text, encoding="utf-8")
        tg, td, ordering, out = (str(path) for path in files.values())
        solve_flags = [k]
        solve_flags += ["--td", td] if draw(st.booleans()) else []
        solve_flags += ["--ordering", ordering] if draw(st.booleans()) else []
        solve_flags += ["--stats"] if draw(st.booleans()) else []
        calls = [
            ["path", tg, *query],
            ["classify", tg],
            ["verify", tg, *query, f"--separator={separator}"],
            ["reduce", tg, "--kind", draw(st.sampled_from(REDUCTION_KINDS)), "-o", out, f"--s={s}", f"--z={z}", k],
        ]
        batch = [tg, tg] if draw(st.booleans()) else [tg]
        for algo in ("auto", "brute", "search-tree", "treewidth", "interval", "static-cut"):
            calls.append(["solve", *batch, *query, "--algo", algo, *solve_flags])
        for argv in calls:
            code, err = _call(argv)
            assert code in (0, 1, 2, 3), argv
            for line in err.splitlines():
                assert line.startswith("error: ") or _STATS_LINE.fullmatch(line), (argv, line)

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, trace, p50, failed=0, seconds=20, metrics=None, src_lines=100):
    info = {"seconds": seconds, "src_lines": src_lines}
    data = {
        "info": {**info, "absent": []} if trace else info,
        "result": {
            "correct": failed == 0,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "?"}
                for name, value in (metrics or {"latency_ms.p50": p50}).items()
            },
        },
        "calls": [],
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(data))


def test_groups_runs_by_workload_and_trace_with_medians(tmp_path):
    source = tmp_path / "out"
    source.mkdir()
    write_run(source, "search-sparse", 12, 0, 3.0)
    write_run(source, "search-sparse", 2, 0, 1.0)
    write_run(source, "search-sparse", 11, 0, 2.0, failed=1)
    write_run(source, "search-sparse", 7, 1, 9.0)
    write_run(source, "cli-batch", 3, 0, 120.0)
    (source / "notes.json").write_text("{}")
    output = tmp_path / "BENCH_1.json"
    assert load_tool().main(["--pr", "1", "--source", str(source), "--output", str(output)]) == 0
    record = json.loads(output.read_text())
    assert record["pr"] == 1
    assert list(record["workloads"]) == ["cli-batch", "search-sparse"]
    untraced = record["workloads"]["search-sparse"]["trace0"]
    assert list(untraced["seeds"]) == ["2", "11", "12"]
    assert untraced["seeds"]["11"]["failed"] == 1 and not untraced["seeds"]["11"]["correct"]
    assert untraced["median"] == {"latency_ms.p50": 2.0}
    assert {entry["seconds"] for entry in untraced["seeds"].values()} == {20}
    traced = record["workloads"]["search-sparse"]["trace1"]
    assert traced["seeds"]["7"]["absent"] == []


def test_a_group_that_mixes_run_lengths_is_refused_naming_seeds_and_lengths(tmp_path, capsys):
    source = tmp_path / "out"
    source.mkdir()
    write_run(source, "structured-dp", 41, 0, 6.0)
    write_run(source, "structured-dp", 42, 0, 5.0, seconds=3)
    write_run(source, "structured-dp", 43, 1, 7.0, seconds=8)  # another group, one length
    output = tmp_path / "BENCH_1.json"
    assert load_tool().main(["--pr", "1", "--source", str(source), "--output", str(output)]) == 1
    assert not output.exists()
    err = capsys.readouterr().err
    assert err == "structured-dp trace0 mixes run lengths: seed 41 20 s, seed 42 3 s\n"


def test_empty_source_is_an_error(tmp_path):
    assert load_tool().main(["--pr", "1", "--source", str(tmp_path), "--output", str(tmp_path / "x.json")]) == 1
    assert not (tmp_path / "x.json").exists()


def write_sides(
    tmp_path, parent_values, change_values, change_seconds=20, change_seeds=(41, 42, 43), change_src_lines=100
):
    """Parent and change result directories; each *_values maps an
    end-to-end metric to one value per seed."""
    sides = []
    for side, values, seeds, seconds, lines in (
        ("parent", parent_values, (41, 42, 43), 20, 100),
        ("change", change_values, change_seeds, change_seconds, change_src_lines),
    ):
        directory = tmp_path / side
        directory.mkdir(parents=True)
        for i, seed in enumerate(seeds):
            metrics = {name: vals[i] for name, vals in values.items()}
            write_run(directory, "structured-dp", seed, 0, None, seconds=seconds, metrics=metrics, src_lines=lines)
        # Traced runs are not compared, but their src_lines must agree.
        write_run(directory, "structured-dp", 7, 1, 1.0, seconds=8, src_lines=lines)
        sides.append(directory)
    return sides


def test_parent_comparison_prints_medians_quartiles_better_counts_and_verdicts(tmp_path, capsys):
    parent, change = write_sides(
        tmp_path,
        {
            "latency_ms.p50": [10, 10, 10],
            "latency_ms.p90": [10, 11, 12],
            "instances_per_s": [100, 100, 100],
            "setup_s": [1, 1, 1],
            "peak_rss_mb": [20, 20, 20],
        },
        {
            "latency_ms.p50": [14, 12, 13],  # median 30% worse, beyond the 0.25 bound
            "latency_ms.p90": [6, 10, 14],  # quartiles 8-12, wider than 0.25 x 11
            "instances_per_s": [130, 200, 300],  # wide, but every run beats every parent run
            "setup_s": [1, 1, 1],  # ties count for neither side
            "peak_rss_mb": [21, 21, 21],  # 5% worse, within the 0.1 bound
        },
        change_src_lines=97,
    )
    output = tmp_path / "BENCH_1.json"
    argv = ["--pr", "1", "--source", str(change), "--parent", str(parent), "--output", str(output)]
    assert load_tool().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change better | spread | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    # spread: the change's quartile distance / (bound x parent median).
    assert lines[2:7] == [
        "| structured-dp | latency_ms.p50 | 10 [10, 10] | 13 [12.5, 13.5] | 0/3 | 0.40 | worse |",
        "| structured-dp | latency_ms.p90 | 11 [10.5, 11.5] | 10 [8, 12] | 2/3 | 1.45 | unresolved |",
        "| structured-dp | instances_per_s | 100 [100, 100] | 200 [165, 250] | 3/3 | 4.25 | ok |",
        "| structured-dp | setup_s | 1 [1, 1] | 1 [1, 1] | 0/3 | 0.00 | ok |",
        "| structured-dp | peak_rss_mb | 20 [20, 20] | 21 [21, 21] | 0/3 | 0.00 | ok |",
    ]
    assert lines[7] == "src_lines: parent 100, change 97, difference -3"
    assert lines[8].startswith("wrote ")
    assert json.loads(output.read_text())["workloads"]["structured-dp"]["trace0"]["median"]["latency_ms.p50"] == 13


def test_spread_shows_a_change_that_beats_every_parent_run_but_spreads_beyond_the_bound(tmp_path):
    # A ten-seed throughput row whose change quartiles lie 14.25 apart
    # against 0.2 x 43 = 8.6.  Every change run beats every parent run, so
    # the verdict reads ok, and only the spread shows the width.
    parent_values = [42.0, 42.5, 43.0, 43.0, 43.0, 43.0, 43.0, 43.0, 43.5, 44.0]
    change_values = [45.0, 46.0, 48.0, 50.0, 55.0, 60.0, 62.0, 63.0, 64.0, 65.0]
    seeds = tuple(range(41, 51))
    sides = []
    for side, values in (("parent", parent_values), ("change", change_values)):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in zip(seeds, values):
            write_run(directory, "collapse-static", seed, 0, None, metrics={"instances_per_s": value})
        sides.append(directory)
    tool = load_tool()
    metric = {"name": "instances_per_s", "better": "higher", "bound": 0.2}
    (row,) = tool.compare(*(tool.gather(d) for d in sides), [metric])
    assert (row["better"], row["verdict"]) == (10, "ok")
    assert row["change"][2] - row["change"][1] == 14.25 and round(row["spread"], 2) == 1.66
    assert "| 10/10 | 1.66 | ok |" in tool.format_rows([row])


def test_parent_comparison_refuses_sides_that_differ_in_seeds_or_run_length(tmp_path, capsys):
    values = {"latency_ms.p50": [5, 5, 5]}
    for case, kwargs, message in (
        (
            "seeds",
            {"change_seeds": (41, 42, 44)},
            "structured-dp: seeds differ: parent ['41', '42', '43'], change ['41', '42', '44']",
        ),
        ("length", {"change_seconds": 3}, "structured-dp: run lengths differ: parent 20 s, change 3 s"),
    ):
        parent, change = write_sides(tmp_path / case, values, values, **kwargs)
        output = tmp_path / case / "BENCH_1.json"
        argv = ["--pr", "1", "--source", str(change), "--parent", str(parent), "--output", str(output)]
        assert load_tool().main(argv) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not output.exists()


def test_parent_comparison_refuses_a_side_whose_entries_disagree_on_src_lines(tmp_path, capsys):
    metrics = ("latency_ms.p50", "latency_ms.p90", "instances_per_s", "setup_s", "peak_rss_mb")
    values = {name: [5, 5, 5] for name in metrics}
    parent, change = write_sides(tmp_path, values, values)
    write_run(change, "structured-dp", 7, 1, 1.0, seconds=8, src_lines=101)  # a traced run of another tree
    output = tmp_path / "BENCH_1.json"
    argv = ["--pr", "1", "--source", str(change), "--parent", str(parent), "--output", str(output)]
    assert load_tool().main(argv) == 1
    assert capsys.readouterr() == ("", "change: src_lines differ across entries: 100, 101\n")
    assert not output.exists()

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, trace, p50, failed=0, seconds=20):
    info = {"seconds": seconds, "src_lines": 100}
    data = {
        "info": {**info, "absent": []} if trace else info,
        "result": {
            "correct": failed == 0,
            "attempted": 10,
            "failed": failed,
            "metrics": {"latency_ms.p50": {"value": p50, "unit": "ms"}},
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

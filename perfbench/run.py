"""Seeded end-to-end and per-layer benchmark of temposep.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Set-up generates the seeded corpus (at least three times; the median is
`setup_s`).  A single closed-loop client then calls the program one call at
a time for `--seconds`: `cli.run_solve` in a worker process for the
in-process workloads, `python -m temposep.cli solve` subprocesses for
cli-batch.  Times are rescaled to a reference machine speed by a probe run
before each call (speed.py).  Every answer is checked afterwards, outside
the timed region.  With `--trace 1` the run instead times whole corpus
passes untraced and then traced, and reports per-layer self times and work
counts.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it (`# perfbench-info ...`) carries
ungated context such as sample counts and the src line count.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from check import AnswerChecker, triples_of
from tracer import merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up runs at least SETUP_MIN_REPEATS times, and more (up to the max)
# until SETUP_TARGET_S has been spent, so cheap set-ups get a steadier median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_TARGET_S = 3, 9, 1.5
MIN_SAMPLES = 100  # the p90 then has at least ten samples beyond it
CALL_CEILING_S = 10.0
CLI_CEILING_S = 30.0
MAX_LOOP_S = 120  # hard cap on a timed loop, also at most 3 x --seconds
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_call(summary, value):
    calls = summary["top_calls"]
    return value / calls if calls else 0.0


def _layer_calls(layer):
    return "count/call", lambda s: _per_call(s, s["calls"].get(layer, 0))


def _layer_self(layer):
    return "ms/call", lambda s: _per_call(s, 1000.0 * s["scale"] * s["self_s"].get(layer, 0.0))


def _layer_total(layer):
    return "ms/call", lambda s: _per_call(s, 1000.0 * s["scale"] * s["total_s"].get(layer, 0.0))


def _counter(name):
    return "count/call", lambda s: _per_call(s, s["counters"].get(name, 0))


def _ratio(num, den):
    return lambda s: (num(s) / den(s)) if den(s) else 0.0


_PATH = "reachability.find_temporal_path"
_SEARCH = "solvers.search_tree"

# Per-layer metrics of a traced run, in report order: name -> (unit, value).
# Counts and times are per top-level call (one run_solve, or one CLI
# invocation for cli-batch), so runs of different length compare.  Times are
# rescaled to the reference speed by the traced calls' median probe.
PER_LAYER = {
    f"{_PATH}.calls": _layer_calls(_PATH),
    f"{_PATH}.self_ms": _layer_self(_PATH),
    "reachability.edges_scanned": _counter("reachability.edges_scanned"),
    "reachability.hit_ratio": (
        "ratio",
        _ratio(lambda s: s["counters"].get("reachability.paths_found", 0), lambda s: s["calls"].get(_PATH, 0)),
    ),
    "core.delete_vertices.calls": _layer_calls("core.delete_vertices"),
    "core.delete_vertices.self_ms": _layer_self("core.delete_vertices"),
    "core.delete_vertices.edges_copied": _counter("core.delete_vertices.edges_copied"),
    f"{_SEARCH}.calls": _layer_calls(_SEARCH),
    f"{_SEARCH}.self_ms": _layer_self(_SEARCH),
    f"{_SEARCH}.total_ms": _layer_total(_SEARCH),
    f"{_SEARCH}.nodes": _counter(f"{_SEARCH}.nodes"),
    f"{_SEARCH}.nodes_per_call": (
        "count",
        _ratio(lambda s: s["counters"].get(f"{_SEARCH}.nodes", 0), lambda s: s["calls"].get(_SEARCH, 0)),
    ),
    "classes.classify.calls": _layer_calls("classes.classify"),
    "classes.classify.self_ms": _layer_self("classes.classify"),
    "classes.check_order_compatible.calls": _layer_calls("classes.check_order_compatible"),
    "classes.check_order_compatible.self_ms": _layer_self("classes.check_order_compatible"),
    "core.underlying.calls": _layer_calls("core.underlying"),
    "core.underlying.self_ms": _layer_self("core.underlying"),
    "solvers.static_cut.calls": _layer_calls("solvers.static_cut"),
    "solvers.static_cut.self_ms": _layer_self("solvers.static_cut"),
    "solvers.static_cut.augmentations": _counter("solvers.static_cut.augmentations"),
    "oracle.is_separator.calls": _layer_calls("oracle.is_separator"),
    "oracle.is_separator.self_ms": _layer_self("oracle.is_separator"),
    "oracle.is_separator.total_ms": _layer_total("oracle.is_separator"),
    "solvers.interval_dp.calls": _layer_calls("solvers.interval_dp"),
    "solvers.interval_dp.self_ms": _layer_self("solvers.interval_dp"),
    "solvers.interval_dp.candidates": _counter("solvers.interval_dp.candidates"),
    "solvers.decomposition.build_tree_decomposition.calls": _layer_calls(
        "solvers.decomposition.build_tree_decomposition"
    ),
    "solvers.decomposition.build_tree_decomposition.self_ms": _layer_self(
        "solvers.decomposition.build_tree_decomposition"
    ),
    "solvers.decomposition.build_tree_decomposition.width": (
        "count",
        lambda s: s["counters"].get("solvers.decomposition.build_tree_decomposition.width", 0),
    ),
    "solvers.treewidth_dp.calls": _layer_calls("solvers.treewidth_dp"),
    "solvers.treewidth_dp.self_ms": _layer_self("solvers.treewidth_dp"),
    "solvers.treewidth_dp.estimate_cells": _counter("solvers.treewidth_dp.estimate_cells"),
    "oracle.distance_to_temporality.calls": _layer_calls("oracle.distance_to_temporality"),
    "oracle.distance_to_temporality.self_ms": _layer_self("oracle.distance_to_temporality"),
    "solvers.auto.solve_auto.self_ms": _layer_self("solvers.auto.solve_auto"),
    **{
        f"solvers.auto.backend.{b}": _counter(f"solvers.auto.backend.{b}")
        for b in ("static-cut", "interval-dp", "treewidth-dp", "search-tree")
    },
    "cli.run_solve.self_ms": _layer_self("cli.run_solve"),
    "cli.import_ms": ("ms/call", lambda s: _per_call(s, 1000.0 * s["scale"] * s.get("import_s", 0.0))),
    "cli.process_ms": ("ms/call", lambda s: _per_call(s, 1000.0 * s["scale"] * s.get("process_s", 0.0))),
    "fileio.load_tg.calls": _layer_calls("fileio.load_tg"),
    "fileio.load_tg.self_ms": _layer_self("fileio.load_tg"),
    "fileio.edges_parsed": _counter("fileio.edges_parsed"),
    "core.build.self_ms": _layer_self("core.build"),
    "trace.calls": ("count", lambda s: s["top_calls"]),
    "trace.latency_ms.p50": ("ms", lambda s: s["traced_p50_ms"]),
    "trace.untraced_latency_ms.p50": ("ms", lambda s: s["untraced_p50_ms"]),
    "trace.overhead_ratio": ("ratio", lambda s: s["traced_p50_ms"] / s["untraced_p50_ms"]),
    "trace.accounted_share": ("ratio", lambda s: sum(s["self_s"].values()) / s["top_wall_s"] if s["top_wall_s"] else 0.0),
}

# Layer -> what its self time is evidence of, for the dominant-layer report.
LAYER_KIND = {
    _PATH: "search kernel",
    "core.delete_vertices": "search kernel",
    _SEARCH: "search kernel",
    "classes.classify": "classify",
    "oracle.is_separator": "verification",
    "solvers.static_cut": "flow",
    "solvers.interval_dp": "DP tables",
    "solvers.treewidth_dp": "DP tables",
    "solvers.decomposition.build_tree_decomposition": "DP tables",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "temposep").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.suffix in (".bin", ".tg"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, members, expected, run_dir: Path):
    """Build the corpus several times; every repeat must be byte-identical.

    Returns the corpus, its directory, the raw set-up times, the times
    rescaled by probes taken around each repeat, and whether all repeats
    matched.
    """
    from workloads import set_up as build_corpus

    times, scaled, digests, corpus, corpus_dir = [], [], [], None, None
    while len(times) < SETUP_MIN_REPEATS or (len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_TARGET_S):
        corpus_dir = run_dir / f"setup{len(times)}"
        gc.collect()
        probes = [speed.probe_ms() for _ in range(3)]
        started = time.perf_counter()
        corpus = build_corpus(workload, members, expected, corpus_dir)
        times.append(time.perf_counter() - started)
        probes += [speed.probe_ms() for _ in range(3)]
        scaled.append(times[-1] * speed.REFERENCE_PROBE_MS / statistics.median(probes))
        digests.append(_digest(corpus_dir))
    return corpus, corpus_dir, times, scaled, len(set(digests)) == 1


# -- in-process workloads -------------------------------------------------------


def max_loop_seconds(seconds: int) -> int:
    return min(3 * seconds, MAX_LOOP_S)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_worker(corpus_dir: Path, run_dir: Path, seconds: int, trace: bool) -> dict:
    job = {
        "corpus_dir": str(corpus_dir),
        "seconds": seconds,
        "max_seconds": max_loop_seconds(seconds),
        "min_samples": MIN_SAMPLES,
        "ceiling_s": CALL_CEILING_S,
        "trace": trace,
        "out": str(run_dir / "worker_out.json"),
    }
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            env=child_env(),
            timeout=max_loop_seconds(seconds) + 4 * CALL_CEILING_S + 20,
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish in time", 1)
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}", 1)
    with open(job["out"], encoding="utf-8") as fh:
        return json.load(fh)


def check_in_process(workload, corpus, corpus_dir, expected, calls, checker) -> int:
    from workloads import read_triples

    failed = 0
    for call in calls:
        item = corpus["items"][call["i"]]

        def graph(item=item):
            return item["n"], triples_of(read_triples(corpus_dir, item))

        ok = checker.check(
            item["spec"]["key"],
            graph,
            item["s"],
            item["z"],
            item["k"],
            item["strict"],
            expected[workload][item["spec"]["key"]]["verdict"],
            call["verdict"],
            call["witness"],
            call["error"],
        )
        failed += not ok
    return failed


# -- cli-batch ------------------------------------------------------------------

_LINE = re.compile(r"^file=(.+?) verdict=(yes|no)(?: separator=([\d,]*) backend=(\S+))?$")


def cli_invocation(item: dict, summary_path=None) -> dict:
    files = [f["path"] for f in item["files"]]
    args = ["solve", *files, "--s", "0", "--z", str(item["n"] - 1), "--k", str(item["k"])]
    if summary_path is None:
        argv = [sys.executable, "-m", "temposep.cli", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(summary_path), *args]
    gc.collect()
    record = {"code": None, "stdout": "", "error": None, "probe_ms": speed.probe_ms()}
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CLI_CEILING_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"exceeded the {CLI_CEILING_S:g}s call ceiling"
    else:
        record["code"], record["stdout"] = proc.returncode, proc.stdout
        if proc.returncode not in (0, 1):
            record["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    record["ms"] = (time.perf_counter() - started) * 1000.0
    return record


def run_cli(corpus, run_dir: Path, seconds: int, trace: bool) -> dict:
    items = corpus["items"]
    calls = []
    started = time.perf_counter()
    if not trace:
        while True:
            i = len(calls) % len(items)
            calls.append(dict(cli_invocation(items[i]), i=i))
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(calls) >= MIN_SAMPLES:
                break
            if elapsed >= max_loop_seconds(seconds):
                break
        return {"calls": calls, "loop_s": time.perf_counter() - started}

    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds / 2:
        for i, item in enumerate(items):
            calls.append(dict(cli_invocation(item), i=i))
        passes += 1
    traced, summaries = [], []
    for p in range(passes):
        for i, item in enumerate(items):
            summary_path = run_dir / f"trace_{p}_{i}.json"
            call = dict(cli_invocation(item, summary_path), i=i)
            traced.append(call)
            if summary_path.exists():
                with open(summary_path, encoding="utf-8") as fh:
                    s = json.load(fh)
                s["process_s"] = call["ms"] / 1000.0 - s["import_s"] - s["main_s"]
                summaries.append(s)
    summary = merge(summaries)
    for key in ("import_s", "process_s"):
        summary[key] = sum(s[key] for s in summaries)
    return {"calls": calls, "traced_calls": traced, "passes": passes, "trace": summary, "loop_s": time.perf_counter() - started}


def _read_tg(path: str):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    n = int(lines[0].split()[1])
    return n, [tuple(int(x) for x in line.split()) for line in lines[1:] if line]


def check_cli(corpus, expected, calls, checker) -> int:
    failed = 0
    recorded = expected["cli-batch"]
    for call in calls:
        item = corpus["items"][call["i"]]
        ok = True
        if call["error"] is not None:
            checker.failures.append(f"{item['key']}: {call['error']}")
            ok = False
        else:
            lines = call["stdout"].splitlines()
            if len(lines) != len(item["files"]):
                checker.failures.append(f"{item['key']}: {len(lines)} output lines for {len(item['files'])} files")
                ok = False
            any_no = False
            for f, line in zip(item["files"], lines):
                m = _LINE.match(line)
                if m is None or m.group(1) != f["path"]:
                    checker.failures.append(f"{f['key']}: unparsable line {line!r}")
                    ok = False
                    continue
                verdict = m.group(2) == "yes"
                any_no |= not verdict
                witness = None
                if verdict:
                    witness = [int(v) for v in m.group(3).split(",") if v] if m.group(3) is not None else "missing"
                ok &= checker.check(
                    f["key"],
                    lambda f=f: _read_tg(f["path"]),
                    0,
                    item["n"] - 1,
                    item["k"],
                    False,
                    recorded[item["key"]]["files"][int(f["key"].split("/")[1])]["verdict"],
                    verdict,
                    witness,
                )
            if ok and call["code"] != (1 if any_no else 0):
                checker.failures.append(f"{item['key']}: exit code {call['code']} does not match the verdicts")
                ok = False
        failed += not ok
    return failed


# -- report ---------------------------------------------------------------------


def dominant_layers(summary) -> list:
    wall = summary["top_wall_s"] or 1.0
    ranked = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
    return [[layer, round(t / wall, 4), LAYER_KIND.get(layer, "")] for layer, t in ranked[:6]]


def _end_to_end(latencies: list[float], files_per_call: int, setup_s: list[float], peak_rss_kb) -> dict:
    return {
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p90": percentile(latencies, 90),
        "instances_per_s": len(latencies) * files_per_call / (sum(latencies) / 1000.0),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_kb / 1024.0 if peak_rss_kb else None,
    }


def rescaled(calls: list[dict]) -> list[float]:
    """Call latencies at the reference speed (speed.py)."""
    return [c["ms"] * f for c, f in zip(calls, speed.scales([c["probe_ms"] for c in calls]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # worker or CLI child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Keep this process and its children on one CPU, so that each probe
    # measures the CPU its call runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "temposep" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'temposep'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    expected = workloads.load_expected()
    members = workloads.select(args.workload, args.seed, expected)
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        corpus, corpus_dir, setup_raw, setup_scaled, deterministic = set_up(args.workload, members, expected, run_dir)
        trace = bool(args.trace)
        if args.workload == workloads.CLI:
            raw = run_cli(corpus, run_dir, args.seconds, trace)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            raw = run_worker(corpus_dir, run_dir, args.seconds, trace)
            peak_rss_kb = raw.get("peak_rss_kb")

        checker = AnswerChecker()
        all_calls = raw["calls"] + raw.get("traced_calls", [])
        if args.workload == workloads.CLI:
            failed = check_cli(corpus, expected, all_calls, checker)
        else:
            failed = check_in_process(args.workload, corpus, corpus_dir, expected, all_calls, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    raw_ms = [c["ms"] for c in raw["calls"]]
    latencies = rescaled(raw["calls"])
    p90 = percentile(latencies, 90)
    files_per_call = workloads.CLI_FILES_PER_BATCH if args.workload == workloads.CLI else 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_clients": 1,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "traced_samples": len(raw.get("traced_calls", [])),
        "failed_ratio": failed / len(all_calls),
        "failures": checker.failures[:10],
        "probe_ms_median": statistics.median(c["probe_ms"] for c in all_calls),
        "raw": _end_to_end(raw_ms, files_per_call, setup_raw, peak_rss_kb),
        "setup_runs_s": setup_raw,
        "setup_deterministic": deterministic,
        "corpus": [workloads.member_key(m) for m in members],
        "warmup_ms": raw.get("warmup_ms"),
        "loop_s": raw["loop_s"],
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if trace:
        summary = raw["trace"]
        traced = raw["traced_calls"]
        summary["scale"] = speed.REFERENCE_PROBE_MS / statistics.median(c["probe_ms"] for c in traced)
        summary["untraced_p50_ms"] = statistics.median(latencies)
        summary["traced_p50_ms"] = statistics.median(rescaled(traced))
        metrics = {name: {"value": fn(summary), "unit": unit} for name, (unit, fn) in PER_LAYER.items()}
        info["passes"] = raw["passes"]
        info["absent"] = summary["absent"]
        info["probe_errors"] = summary["probe_errors"]
        info["dominant_layers"] = dominant_layers(summary)
    else:
        values = _end_to_end(latencies, files_per_call, setup_scaled, peak_rss_kb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0 and deterministic, "attempted": len(all_calls), "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        calls = [[workloads.member_key(members[c["i"]]), round(c["ms"], 3), round(c["probe_ms"], 3)] for c in raw["calls"]]
        json.dump({"info": info, "result": result, "calls": calls}, fh, indent=1)
    print("# perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())

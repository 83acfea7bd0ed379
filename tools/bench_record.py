"""Gather one benchmark run's `.perfbench_out/` results into `BENCH_<pr>.json`.

    python3 tools/bench_record.py --pr <pr> [--source .perfbench_out] [--output PATH]
        [--parent PARENT/.perfbench_out]

Every `<workload>-seed<N>-trace<T>.json` file written by `perfbench/run.py`
becomes one entry: the seed's metric values plus `attempted`, `failed`,
`correct` and the info line's `seconds` and `src_lines`.  Entries are grouped
by workload, untraced (`trace0`) and traced (`trace1`) runs apart, and each
group carries the median of every metric over its seeds.  A group whose runs
differ in `seconds` is refused (exit 1): a shorter run of a seed overwrites
the longer one's file.  Standard library only; the output goes to the
repository root unless `--output` says otherwise.

With `--parent`, the untraced runs of `--source` (the change) are also
compared with the parent's, seed by seed, on every `end_to_end` metric of
`BENCHMARK.json`.  Each row prints both sides' median [q1, q3], how many
seeds the change ran better (a tie counts for neither side), the change's
spread, its quartile distance / (bound x parent median), and a verdict:
`worse` when the change's median is worse than the parent's by more than the
metric's bound, `unresolved` when the spread exceeds 1 and not every change
run beats every parent run, and `ok` otherwise.  So an `ok` row can still
spread beyond 1, when every change run beats every parent run; the spread
column shows it.  A line after the table gives each side's `src_lines` and
the difference.  Sides that differ in workloads, seeds or run length, and a
side whose entries disagree on `src_lines`, are refused (exit 1).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def run_entry(data: dict) -> dict:
    """The metric values and pass/fail counts of one run's result file."""
    result, info = data["result"], data["info"]
    entry = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "seconds": info.get("seconds"),
        "src_lines": info.get("src_lines"),
        "metrics": {name: m["value"] for name, m in sorted(result["metrics"].items())},
    }
    for key in ("absent", "probe_errors"):
        if key in info:
            entry[key] = info[key]
    return entry


def medians(runs: dict[str, dict]) -> dict[str, float]:
    """Per metric, the median over the runs that report it."""
    values: dict[str, list[float]] = {}
    for entry in runs.values():
        for name, value in entry["metrics"].items():
            if isinstance(value, (int, float)):
                values.setdefault(name, []).append(value)
    return {name: statistics.median(vals) for name, vals in sorted(values.items())}


class MixedRunLengths(Exception):
    """A workload/trace group whose runs were not all of one length."""


def gather(source: Path) -> dict[str, dict[str, dict]]:
    """workload -> "trace<T>" -> {"seeds": {seed: entry}, "median": {...}}.

    Raises MixedRunLengths, naming each seed's length, when a group's runs
    differ in `seconds`."""
    groups: dict[tuple[str, str], dict[str, dict]] = {}
    for path in sorted(source.glob("*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        key = (match["workload"], f"trace{match['trace']}")
        groups.setdefault(key, {})[match["seed"]] = run_entry(data)
    out: dict[str, dict[str, dict]] = {}
    for (workload, trace), runs in sorted(groups.items()):
        ordered = {seed: runs[seed] for seed in sorted(runs, key=int)}
        if len({entry["seconds"] for entry in ordered.values()}) > 1:
            lengths = ", ".join(f"seed {seed} {entry['seconds']} s" for seed, entry in ordered.items())
            raise MixedRunLengths(f"{workload} {trace} mixes run lengths: {lengths}")
        out.setdefault(workload, {})[trace] = {"seeds": ordered, "median": medians(ordered)}
    return out


class MismatchedRuns(Exception):
    """Parent and change runs that cannot be paired seed by seed."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, q1 and q3, interpolated between runs like perfbench's percentiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric over the untraced runs.

    Raises MismatchedRuns when the sides differ in workloads, seeds or run
    length."""
    if sorted(parent) != sorted(change):
        raise MismatchedRuns(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    rows = []
    for workload in sorted(change):
        before, after = (side[workload].get("trace0", {}).get("seeds", {}) for side in (parent, change))
        if list(before) != list(after):
            raise MismatchedRuns(f"{workload}: seeds differ: parent {list(before)}, change {list(after)}")
        # gather() leaves one length per group, so the first run speaks for all.
        lengths = [next(iter(runs.values()))["seconds"] if runs else None for runs in (before, after)]
        if lengths[0] != lengths[1]:
            raise MismatchedRuns(f"{workload}: run lengths differ: parent {lengths[0]} s, change {lengths[1]} s")
        for metric in end_to_end:
            name, bound, sign = metric["name"], metric["bound"], 1 if metric["better"] == "lower" else -1
            pairs = [(before[seed]["metrics"][name], after[seed]["metrics"][name]) for seed in after]
            olds, news = [p for p, _ in pairs], [c for _, c in pairs]
            (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = quartiles(olds), quartiles(news)
            better = sum(sign * (c - p) < 0 for p, c in pairs)
            beats_all = all(sign * (c - p) < 0 for c in news for p in olds)
            spread = (c_q3 - c_q1) / (bound * p_med)
            if sign * (c_med - p_med) > bound * p_med:
                verdict = "worse"
            elif spread > 1 and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "parent": (p_med, p_q1, p_q3),
                    "change": (c_med, c_q1, c_q3),
                    "better": better,
                    "pairs": len(pairs),
                    "spread": spread,
                    "verdict": verdict,
                }
            )
    return rows


def side_src_lines(side: dict, name: str) -> int:
    """The `src_lines` that every entry of one side reports.

    Raises MismatchedRuns when the entries disagree."""
    groups = [group for traces in side.values() for group in traces.values()]
    found = {entry["src_lines"] for group in groups for entry in group["seeds"].values()}
    if len(found) != 1:
        raise MismatchedRuns(f"{name}: src_lines differ across entries: {', '.join(map(str, sorted(found, key=str)))}")
    return found.pop()


def format_rows(rows: list[dict]) -> str:
    """The comparison as a Markdown table."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change better | spread | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        p_med, p_q1, p_q3 = row["parent"]
        c_med, c_q1, c_q3 = row["change"]
        lines.append(
            f"| {row['workload']} | {row['metric']} | {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
            f"| {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] | {row['better']}/{row['pairs']} | {row['spread']:.2f} "
            f"| {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--source", type=Path, default=ROOT / ".perfbench_out", help="directory of run results")
    parser.add_argument("--output", type=Path, help="output path (default: BENCH_<pr>.json at the repo root)")
    parser.add_argument("--parent", type=Path, help="the parent's run results, to compare --source against")
    args = parser.parse_args(argv)
    try:
        workloads = gather(args.source)
        parent = None if args.parent is None else gather(args.parent)
    except MixedRunLengths as exc:
        print(exc, file=sys.stderr)
        return 1
    if not workloads:
        print(f"no <workload>-seed<N>-trace<T>.json files in {args.source}", file=sys.stderr)
        return 1
    if parent is not None:
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        try:
            rows = compare(parent, workloads, end_to_end)
            before, after = side_src_lines(parent, "parent"), side_src_lines(workloads, "change")
        except MismatchedRuns as exc:
            print(exc, file=sys.stderr)
            return 1
        print(format_rows(rows))
        print(f"src_lines: parent {before}, change {after}, difference {after - before:+d}")
    output = args.output or ROOT / f"BENCH_{args.pr}.json"
    record = {"pr": args.pr, "workloads": workloads}
    output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output} ({', '.join(workloads)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

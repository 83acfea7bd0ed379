"""Gather one benchmark run's `.perfbench_out/` results into `BENCH_<pr>.json`.

    python3 tools/bench_record.py --pr <pr> [--source .perfbench_out] [--output PATH]

Every `<workload>-seed<N>-trace<T>.json` file written by `perfbench/run.py`
becomes one entry: the seed's metric values plus `attempted`, `failed`,
`correct` and the info line's `seconds` and `src_lines`.  Entries are grouped
by workload, untraced (`trace0`) and traced (`trace1`) runs apart, and each
group carries the median of every metric over its seeds.  A group whose runs
differ in `seconds` is refused (exit 1): a shorter run of a seed overwrites
the longer one's file.  Standard library only; the output goes to the
repository root unless `--output` says otherwise.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--source", type=Path, default=ROOT / ".perfbench_out", help="directory of run results")
    parser.add_argument("--output", type=Path, help="output path (default: BENCH_<pr>.json at the repo root)")
    args = parser.parse_args(argv)
    try:
        workloads = gather(args.source)
    except MixedRunLengths as exc:
        print(exc, file=sys.stderr)
        return 1
    if not workloads:
        print(f"no <workload>-seed<N>-trace<T>.json files in {args.source}", file=sys.stderr)
        return 1
    output = args.output or ROOT / f"BENCH_{args.pr}.json"
    record = {"pr": args.pr, "workloads": workloads}
    output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output} ({', '.join(workloads)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

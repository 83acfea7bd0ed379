"""Record the expected verdicts of every pool member into expected.json.

Usage (from the repository root, with the program's `src` on PYTHONPATH):

    python3 perfbench/record.py [--workload <name> ...]

For each member it records the budget, the verdict, the backend that
answered, the median latency of three cold calls, and their cost: that
latency divided by the latency of a fixed reference call timed just before
and after, which cancels most of the machine's speed swings.  The cost only
orders the pool for difficulty-matched selection.  Budgets of collapse-static and structured-dp members
are set from the minimum separator size the exact backends find at budget n.
Every yes-witness is re-checked with the benchmark's own search before it is
recorded.  Verdicts are recorded once and then stay fixed: a later change
that alters one is a wrong answer, not a new expectation.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

from temposep import Instance, build
from temposep.cli import run_solve

import workloads
from check import witness_problem

REPEATS = 3  # timed calls per member
REFERENCE = workloads.Spec(key="reference", group="k2", family="general", n=80, tau=10, p=0.02, seed=1, k=2)

# The backend each group's instances are built to reach under `auto`.
EXPECTED_BACKEND = {
    "strict": "search-tree",
    "k2": "search-tree",
    "k3": "search-tree",
    "collapse": "static-cut",
    "interval": "interval-dp",
    "ladder": "treewidth-dp",
}


def _kwargs(spec, g) -> dict:
    kwargs = {"strict": spec.strict}
    if spec.family == "unit-interval":
        kwargs["ordering"] = tuple(range(g.n))
    if spec.family == "ladder":
        bags, tree_edges = workloads.minfill_tree_decomposition(g.underlying())
        kwargs["td_raw"] = (bags, tree_edges, g.n)
    return kwargs


def _solve(spec, g, k: int, repeats: int = 1):
    """Cold calls (a graph rebuilt from its triples each time) and their median latency."""
    kwargs = _kwargs(spec, g)
    times = []
    for _ in range(repeats):
        inst = Instance(g=build(g.n, g.tau, g.raw_triples()), s=0, z=g.n - 1, k=k)
        started = time.perf_counter()
        result = run_solve(inst, **kwargs)
        times.append((time.perf_counter() - started) * 1000.0)
    ms = statistics.median(times)
    witness = sorted(result.separator.vertices) if result.verdict else None
    if witness is not None:
        problem = witness_problem(g.n, g.raw_triples(), 0, g.n - 1, k, spec.strict, witness)
        if problem is not None:
            raise SystemExit(f"{spec.key}: program witness rejected: {problem}")
    return result, witness, ms


class Reference:
    """Times the fixed reference call around a member's timed calls."""

    def __init__(self):
        self.g = workloads.make_graph(REFERENCE)

    def ms(self) -> float:
        return _solve(REFERENCE, self.g, REFERENCE.k)[2]

    def cost(self, timed) -> tuple[float, float]:
        """Run `timed()` (returning its ms) between reference calls; return (ms, cost)."""
        around = [self.ms(), self.ms()]
        ms = timed()
        around += [self.ms(), self.ms()]
        return ms, ms / statistics.median(around)


def budget(spec, entry: dict) -> int:
    """A fixed budget, or the recorded minimum plus the spec's offset (not below 0)."""
    if spec.k is not None:
        return spec.k
    return max(entry["min"] + spec.offset, 0)


def record_spec(spec, ref: Reference) -> dict:
    g = workloads.make_graph(spec)
    entry = {}
    if spec.k is None:
        _, witness, _ = _solve(spec, g, g.n)
        entry["min"] = len(witness)
    k = budget(spec, entry)
    timed = {}

    def solve() -> float:
        timed["out"] = _solve(spec, g, k, REPEATS)
        return timed["out"][2]

    ms, cost = ref.cost(solve)
    result, witness, _ = timed["out"]
    if result.backend != EXPECTED_BACKEND[spec.group]:
        raise SystemExit(f"{spec.key}: answered by {result.backend}, expected {EXPECTED_BACKEND[spec.group]}")
    if "min" in entry and result.verdict != (entry["min"] <= k):
        raise SystemExit(f"{spec.key}: verdict at k={k} contradicts the minimum {entry['min']}")
    entry.update(k=k, verdict=bool(result.verdict), size=None if witness is None else len(witness))
    entry.update(backend=result.backend, ms=round(ms, 3), cost=round(cost, 4))
    return entry


def record(workload: str, ref: Reference) -> dict:
    out = {}
    started = time.perf_counter()
    for member in workloads.pool(workload):
        if workload == workloads.CLI:
            files = []

            def solve_batch() -> float:
                for spec in member:
                    result, _, ms = _solve(spec, workloads.make_graph(spec), spec.k, REPEATS)
                    files.append({"key": spec.key, "verdict": bool(result.verdict), "ms": round(ms, 3)})
                return sum(f["ms"] for f in files)

            ms, cost = ref.cost(solve_batch)
            key = workloads.member_key(member)
            out[key] = {"k": member[0].k, "files": files, "ms": round(ms, 3), "cost": round(cost, 4)}
        else:
            out[member.key] = record_spec(member, ref)
        print(f"{workload} {workloads.member_key(member)} {out[workloads.member_key(member)]}", file=sys.stderr)
    verdicts = [
        f["verdict"] for e in out.values() for f in (e["files"] if "files" in e else [e])
    ]
    print(
        f"{workload}: {len(out)} members, {sum(verdicts)} yes / {len(verdicts) - sum(verdicts)} no, "
        f"{time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    try:
        expected = workloads.load_expected()
    except FileNotFoundError:
        expected = {}
    ref = Reference()
    ref.ms()  # warm-up
    for workload in args.workload or workloads.WORKLOADS:
        expected[workload] = record(workload, ref)
    expected["recorded_with"] = {"python": platform.python_version()}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

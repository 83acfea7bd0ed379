"""A reference kernel that measures how fast this machine runs right now.

On shared hosts the same Python work can take 30% longer for tens of
seconds at a time.  Every timed call is therefore preceded by a probe: a
fixed, benchmark-owned copy of the kind of work the program does (rebuild
an edge tuple without some vertices, group it into layer sets, and run a
label-ordered BFS sweep) on a fixed graph.  The probe is benchmark code, so
no change to the program moves it; its time only follows the machine.

A call's time is rescaled by REFERENCE_PROBE_MS / (median probe time around
the call), i.e. reported in milliseconds of a machine on which the probe
takes REFERENCE_PROBE_MS.  Raw times are reported next to the rescaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median probe time on the machine the bounds were set on (2 vCPUs, Python 3.11).
REFERENCE_PROBE_MS = 4.5
# Probes on each side of a call whose median rescales it.
WINDOW = 4

_N, _TAU = 100, 10
_rng = random.Random(7)
_EDGES = sorted(
    {(_rng.randrange(1, _TAU + 1), u, v) for u, v in ((_rng.randrange(_N), _rng.randrange(_N)) for _ in range(1100)) if u < v}
)
_UNREACHED = float("inf")


def _kernel(drop: frozenset) -> int:
    remap: dict[int, int] = {}
    for v in range(_N):
        if v not in drop:
            remap[v] = len(remap)
    kept = tuple((t, remap[u], remap[v]) for t, u, v in _EDGES if u in remap and v in remap)
    sets: list[set] = [set() for _ in range(_TAU)]
    for t, u, v in kept:
        sets[t - 1].add((u, v))
    arrival = [_UNREACHED] * len(remap)
    arrival[0] = 0
    for t, pairs in enumerate((frozenset(s) for s in sets), start=1):
        adj: dict[int, list[int]] = {}
        for u, v in pairs:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        frontier = sorted(v for v in adj if arrival[v] <= t)
        while frontier:
            found: dict[int, int] = {}
            for a in frontier:
                for b in adj[a]:
                    if arrival[b] == _UNREACHED and (b not in found or a < found[b]):
                        found[b] = a
            for b in found:
                arrival[b] = t
            frontier = sorted(found)
    return sum(1 for a in arrival if a != _UNREACHED)


def probe_ms(reps: int = 8) -> float:
    """Time `reps` kernel runs with the collector off, so heap state does not enter."""
    gc.disable()
    try:
        started = time.perf_counter()
        for r in range(reps):
            _kernel(frozenset((r + 1, r + 7)))
        return (time.perf_counter() - started) * 1000.0
    finally:
        gc.enable()


def scales(probes: list[float]) -> list[float]:
    """Per-call rescaling factors from the probes taken before each call."""
    out = []
    for i in range(len(probes)):
        local = statistics.median(probes[max(0, i - WINDOW) : i + WINDOW + 1])
        out.append(REFERENCE_PROBE_MS / local)
    return out

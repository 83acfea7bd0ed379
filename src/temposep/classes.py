"""Detectors for temporal graph classes.

Layer-sequence shape (monotone runs and their peaks), periodicity, steadiness,
and window connectivity are all read off the layer edge sets.  The monotone
detector resolves the segment definition as per-interval uniform direction:
each of the p segments is entirely inclusion-non-decreasing or entirely
inclusion-non-increasing.  Equal consecutive layers count as both directions;
they never start a new segment and never create a peak.  With the per-step
reading, a single segment would cover any comparable sequence and the peak
notion would collapse.
"""

from __future__ import annotations

from operator import le
from typing import NamedTuple, Optional

from .core import TemporalGraph, is_connected
from .errors import NotAPermutation


class MonotoneShape(NamedTuple):
    """Monotone segment count p and the peak labels (1-based, time order)."""

    p: int
    peaks: tuple[int, ...]


class ClassProfile(NamedTuple):
    """All four class detections for one temporal graph.

    monotone is None when some consecutive layer pair is incomparable.
    periodic satisfies p * r = tau with p minimal.  steady_lambda is the
    largest symmetric difference of consecutive layer edge sets (0 when
    tau <= 1).  interval_connected_max_t is the largest T for which every
    length-T window has a connected edge-set intersection, 0 if some layer
    is already disconnected.
    """

    monotone: Optional[MonotoneShape]
    periodic_p: int
    periodic_r: int
    steady_lambda: int
    interval_connected_max_t: int


def monotone_shape(g: TemporalGraph) -> Optional[MonotoneShape]:
    """Segment count and peaks; None if some pair is incomparable, (0, ()) for no layers."""
    labels: list[int] = []  # first label of each run of equal layers
    sets: list[frozenset] = []
    for idx, es in enumerate(g.layer_edge_sets):
        if not sets or es != sets[-1]:
            labels.append(idx + 1)
            sets.append(es)
    if not sets:
        return MonotoneShape(0, ())
    # +1 growing, -1 shrinking, 0 incomparable, between compressed layers
    dirs = [(a < b) - (a > b) for a, b in zip(sets, sets[1:])]
    if 0 in dirs:
        return None
    runs = 1 + sum(d != d_next for d, d_next in zip(dirs, dirs[1:]))
    peaks = [
        labels[m]
        for m in range(len(sets))
        if (m == 0 or dirs[m - 1] == +1) and (m == len(dirs) or dirs[m] == -1)
    ]
    return MonotoneShape(p=runs, peaks=tuple(peaks))


def periodicity(g: TemporalGraph) -> tuple[int, int]:
    """(p, r) with p * r = tau and p minimal; (0, 0) for a graph with no layers."""
    sets = g.layer_edge_sets
    tau = g.tau
    if tau == 0:
        return 0, 0
    for p in range(1, tau):
        if tau % p == 0 and all(sets[j] == sets[j - p] for j in range(p, tau)):
            return p, tau // p
    return tau, 1


def _detect_steady(g: TemporalGraph) -> int:
    sets = g.layer_edge_sets
    return max((len(a ^ b) for a, b in zip(sets, sets[1:])), default=0)


def _detect_interval_connected(g: TemporalGraph) -> int:
    """The largest T for which every length-T window of layers has a
    connected edge intersection, by a two-pointer sweep.

    A window inside a connected one is connected, so the end r(a) of the
    longest connected window [a, r(a)) never decreases with a.  Every
    length-T window is connected iff r(a) - a >= T for each start a with
    r(a) < tau: a window that runs to the last layer lies inside the last
    length-T window.  `count` holds, per edge, the layers of the current
    window that contain it, so the window's common edges are those whose
    count equals its length.
    """
    sets, tau = g.layer_edge_sets, g.tau
    count: dict[tuple[int, int], int] = {}
    shortest, r = tau, 0
    for a in range(tau):
        while r < tau and is_connected(g.n, [e for e in sets[r] if count.get(e, 0) == r - a]):
            for e in sets[r]:
                count[e] = count.get(e, 0) + 1
            r += 1
        if r == tau:
            break  # every later start reaches the last layer too
        if r == a:
            return 0  # layer a alone is disconnected
        shortest = min(shortest, r - a)
        for e in sets[a]:
            count[e] -= 1
    return shortest


def classify(g: TemporalGraph) -> ClassProfile:
    """Run all four class detectors on one graph."""
    p, r = periodicity(g)
    return ClassProfile(
        monotone=monotone_shape(g),
        periodic_p=p,
        periodic_r=r,
        steady_lambda=_detect_steady(g),
        interval_connected_max_t=_detect_interval_connected(g),
    )


class OrderViolation(NamedTuple):
    """An indifference failure: positions i < j < k (0-based) in some layer."""

    layer: int
    i: int
    j: int
    k: int


def check_order_compatible(g: TemporalGraph, ordering: tuple[int, ...]) -> Optional[OrderViolation]:
    """The first violation of the indifference property under `ordering`; None if every layer has it.

    ordering[i] is the vertex at position i.  The property: whenever
    positions i < j < k have the edge (i,k) in a layer, that layer also has
    (i,j) and (j,k).  It characterizes unit-interval layers whose interval
    positions are monotone in the ordering.

    A layer is tested in O(n + m_t) by umbrellas (Looges & Olariu, 1993):
    with r(i) the highest neighbour of i above it (i if none), the layer
    passes iff the higher neighbours of each i are exactly i+1..r(i) and r
    is non-decreasing.  That is exact: (i,k) and i < j < k give (i,j) from
    the run and (j,k) from r(j) >= r(i) >= k; conversely the property forces
    both.  As no i has more than r(i) - i higher neighbours, one edge count
    checks every run.  Only the first failing layer is scanned for its
    first violating triple.  The layers are read off `g.layer_pairs`, so an
    empty layer passes unread and no work is sized by tau.
    """
    if len(ordering) != g.n or sorted(ordering) != list(range(g.n)):
        raise NotAPermutation(f"ordering is not a permutation of 0..{g.n - 1}")
    pos = [0] * g.n
    for i, v in enumerate(ordering):
        pos[v] = i
    for t, pairs in g.layer_pairs:
        reach = list(range(g.n))
        for u, v in pairs:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            if b > reach[a]:
                reach[a] = b
        if len(pairs) == sum(reach) - g.n * (g.n - 1) // 2 and all(map(le, reach, reach[1:])):
            continue
        by_pos = {(pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in pairs}
        for i, k in sorted(by_pos):
            for j in range(i + 1, k):
                if (i, j) not in by_pos or (j, k) not in by_pos:
                    return OrderViolation(t, i, j, k)
    return None

"""Exhaustive ground-truth computations, intended for desk-scale inputs.

These enumerations favor obviousness over speed: they are the reference
answers that every solver backend and instance transformation is checked
against.  The query and witness types they take and return are
`reachability`'s.  No backend imports this module, and the CLI loads it
only for `--algo brute`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import TemporalGraph, build
from .errors import NotAPath, OracleScaleError
from .reachability import Instance, Separator, is_separator

BRUTE_FORCE_MAX_N = 20


def min_separator_bruteforce(inst: Instance, strict: bool = False) -> Separator:
    """A minimum separator by subset enumeration, smallest size then lexicographic.

    Always succeeds: with no time-edge between the terminals, deleting every
    other vertex separates.  Deterministic.
    """
    if inst.g.n > BRUTE_FORCE_MAX_N:
        raise OracleScaleError(f"brute force on {inst.g.n} vertices exceeds the guard of {BRUTE_FORCE_MAX_N}")
    others = [v for v in range(inst.g.n) if v not in (inst.s, inst.z)]
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            if is_separator(inst, subset, strict):
                return Separator(frozenset(subset))
    raise AssertionError("unreachable: deleting all non-terminals always separates")


def enumerate_temporal_paths(
    g: TemporalGraph, s: int, z: int, strict: bool = False
) -> Iterable[tuple[tuple[int, int, int], ...]]:
    """Yield every temporal (s,z)-path as a tuple of oriented (from, to, t) steps.

    Pure depth-first enumeration of label-monotone, vertex-disjoint
    time-edge sequences; the independent oracle for path existence.
    """
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for t, u, v in g.edges:
        incident[u].append((v, t))
        incident[v].append((u, t))

    def extend(cur: int, last_t: int, visited: set[int], steps: list[tuple[int, int, int]]):
        for nxt, t in incident[cur]:
            if nxt in visited:
                continue
            if t < last_t or (strict and steps and t <= last_t):
                continue
            steps.append((cur, nxt, t))
            if nxt == z:
                yield tuple(steps)
            else:
                visited.add(nxt)
                yield from extend(nxt, t, visited, steps)
                visited.remove(nxt)
            steps.pop()

    yield from extend(s, 0, {s}, [])


def temporal_path_exists_exhaustive(g: TemporalGraph, s: int, z: int, strict: bool = False) -> bool:
    for _ in enumerate_temporal_paths(g, s, z, strict):
        return True
    return False


def _edge_labels_along(g: TemporalGraph, p: Sequence[int]) -> list[tuple[int, ...]]:
    if len(p) == 0:
        raise NotAPath("empty vertex sequence")
    if len(set(p)) != len(p):
        raise NotAPath(f"vertex sequence revisits a vertex: {list(p)}")
    labels = []
    for a, b in zip(p, p[1:]):
        pair = (min(a, b), max(a, b))
        if pair not in g.edge_labels:
            raise NotAPath(f"({a},{b}) is not an underlying edge")
        labels.append(g.edge_labels[pair])
    return labels


def path_min_resets(g: TemporalGraph, p: Sequence[int]) -> int:
    """Minimum number of monotone-run breaks over all label realizations of p.

    Greedy: take the smallest available label >= the current one; when none
    exists, reset to the smallest available label and count one break.  The
    greedy choice keeps the running label minimal, which is verified against
    exhaustive search in the test suite.
    """
    breaks = 0
    cur = 0
    for labels in _edge_labels_along(g, p):
        feasible = [t for t in labels if t >= cur]
        if feasible:
            cur = feasible[0]
        else:
            breaks += 1
            cur = labels[0]
    return breaks


def distance_to_temporality(g: TemporalGraph, s: int, z: int) -> int:
    """Max over underlying simple (s,z)-paths of the minimum reset count.

    0 when no (s,z)-path exists.  At one label every simple path of the
    underlying graph is temporal, so the path enumerator walks the one-label
    copy and meets each once.  Only suitable at desk scale.
    """
    flat = build(g.n, 1, [(u, v, 1) for u, v in g.edge_labels])
    paths = enumerate_temporal_paths(flat, s, z)
    return max((path_min_resets(g, [s] + [to for _, to, _ in steps]) for steps in paths), default=0)

"""Temporal (s,z)-path discovery, strict and non-strict.

Path existence is decided by one label-ordered sweep over the cached
adjacency of each label that has edges: within a label it runs a multi-source
BFS from every vertex reached at an earlier label.  Non-strict paths may take
several hops at one label, so the BFS runs to exhaustion; a strict path takes
one hop per label, so the strict sweep stops after the first BFS level.
Either way the work is linear in the number of time-edges, and a witness
search stops at the level that reaches z.  An optional set of blocked
vertices is excluded from the sweep, which answers reachability after vertex
deletion without rebuilding or renumbering the graph.  Every temporal path
is a path of the underlying graph, so `separates` sweeps only when the
blocked set does not already cut s from z there.

The query and witness types live here too: `Instance`, whose `arrival` is
one unblocked sweep, `Separator`, and `is_separator`, which wraps
`separates`.  Every backend and the CLI take them from this module, so no
backend's solve loads the exhaustive oracle.  `Instance.walk_labels` keeps
the time-edges on some temporal s->z walk, read off `arrival` and one sweep
from z over the layers in reverse: a time-edge of a temporal (s,z)-path
after any deletion is one of them, so the pruned graph has the same
separators as the input.
"""

from __future__ import annotations

from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Optional

from .core import TemporalGraph, check_terminals, reachable
from .errors import TerminalEdgePresent, TerminalInSeparator, VertexOutOfRange

UNREACHED = float("inf")


class PathStep(NamedTuple):
    """One oriented traversal of a time-edge."""

    frm: int
    to: int
    t: int


class TemporalPath(NamedTuple):
    """A label-monotone, vertex-disjoint sequence of oriented time-edges."""

    steps: tuple[PathStep, ...]

    def vertices(self) -> list[int]:
        """All visited vertices, in visiting order."""
        if not self.steps:
            return []
        return [self.steps[0].frm] + [st.to for st in self.steps]


def is_valid_path(g: TemporalGraph, path: TemporalPath, s: int, z: int, strict: bool = False) -> bool:
    """Re-validate a witness against the graph it claims to live in."""
    steps = path.steps
    if not steps:
        return False
    if steps[0].frm != s or steps[-1].to != z:
        return False
    verts = path.vertices()
    if len(set(verts)) != len(verts):
        return False
    labels = g.edge_labels
    prev_t = None
    prev_to = None
    for st in steps:
        pair = (min(st.frm, st.to), max(st.frm, st.to))
        if st.t not in labels.get(pair, ()):
            return False
        if prev_to is not None and st.frm != prev_to:
            return False
        if prev_t is not None and (st.t < prev_t or (strict and st.t <= prev_t)):
            return False
        prev_t, prev_to = st.t, st.to
    return True


def _check_blocked(g: TemporalGraph, s: int, z: int, blocked: AbstractSet[int]) -> None:
    terminals = sorted(v for v in (s, z) if v in blocked)
    if terminals:
        raise TerminalInSeparator(f"candidate contains a terminal: {terminals}")
    for v in blocked:
        if not (0 <= v < g.n):
            raise VertexOutOfRange(f"cannot delete vertex {v}, graph has 0..{g.n - 1}")


def _sweep(
    g: TemporalGraph,
    s: int,
    strict: bool,
    blocked: AbstractSet[int] = frozenset(),
    z: Optional[int] = None,
    reverse: bool = False,
) -> tuple[list[float], dict[int, tuple[int, int]]]:
    """Earliest arrival labels from s, with predecessor links for witnesses.

    Blocked vertices start with an arrival after the last label, so they are
    never reached and never relay.  Ties are settled by rule, not by the
    order frontiers or adjacency lists are scanned in: earliest label first,
    then fewest hops within the label (a strict path takes one hop per
    label), then smallest predecessor vertex.

    Given z, the sweep returns after the BFS level that reaches z, leaving
    later arrivals unset.  Later levels only link vertices that are still
    unreached, so z's predecessor chain is the full sweep's.

    With `reverse`, layer t is read as label tau+1-t, last label first.
    Started at z, the sweep then returns tau+1-dep(v), with dep(v) v's
    latest departure towards z: 0 for z, UNREACHED if v cannot reach z.
    """
    arrival: list[float] = [UNREACHED] * g.n
    for v in blocked:
        arrival[v] = g.tau + 1
    arrival[s] = 0
    pred: dict[int, tuple[int, int]] = {}
    layers: Iterable[tuple[int, dict[int, list[int]]]] = g.layer_adjacency
    if reverse:
        layers = ((g.tau + 1 - t, adj) for t, adj in reversed(g.layer_adjacency))
    for t, adj in layers:
        # Level-synchronized multi-source BFS inside the layer.  Its first level
        # relaxes arrivals from earlier labels only: the whole strict step.
        frontier = [v for v in adj if arrival[v] < t]
        while frontier:
            found: dict[int, int] = {}
            for a in frontier:
                for b in adj[a]:
                    if arrival[b] == UNREACHED and (b not in found or a < found[b]):
                        found[b] = a
            for b, a in found.items():
                arrival[b] = t
                pred[b] = (a, t)
            if z in found:
                return arrival, pred
            frontier = () if strict else found.keys()
    return arrival, pred


def find_temporal_path(
    g: TemporalGraph, s: int, z: int, strict: bool = False, blocked: AbstractSet[int] = frozenset()
) -> Optional[TemporalPath]:
    """A temporal (s,z)-path witness, or None when z is unreachable.

    The path avoids every vertex in `blocked`, exactly as if those vertices
    and their time-edges were deleted, and vertices keep their ids.  A
    blocked terminal raises TerminalInSeparator; a blocked vertex outside
    0..n-1 raises VertexOutOfRange.

    The predecessor chain of the arrival sweep is simple by construction
    (each link strictly decreases (label, hop level)), so the extracted
    witness is vertex-disjoint.
    """
    check_terminals(g.n, s, z)
    _check_blocked(g, s, z, blocked)
    arrival, pred = _sweep(g, s, strict, blocked, z)
    if arrival[z] == UNREACHED:
        return None
    steps: list[PathStep] = []
    cur = z
    while cur != s:
        prv, t = pred[cur]
        steps.append(PathStep(prv, cur, t))
        cur = prv
    steps.reverse()
    return TemporalPath(tuple(steps))


def separates(g: TemporalGraph, s: int, z: int, blocked: AbstractSet[int], strict: bool = False) -> bool:
    """Whether deleting `blocked` leaves no temporal (s,z)-path.

    A set that cuts s from z in the underlying graph, as every static-cut
    witness does, is accepted after one search of the underlying edges,
    without a sweep; otherwise one sweep asks for z's arrival, and no path
    is extracted.  Raises like `find_temporal_path` for a bad terminal or
    blocked vertex.
    """
    check_terminals(g.n, s, z)
    _check_blocked(g, s, z, blocked)
    kept = ((u, v) for u, v in g.edge_labels if u not in blocked and v not in blocked)
    return z not in reachable(kept, s) or _sweep(g, s, strict, blocked, z)[0][z] == UNREACHED


class _InstanceFields(NamedTuple):
    g: TemporalGraph
    s: int
    z: int
    k: int


class Instance(_InstanceFields):
    """A separation query: graph, two terminals, and a deletion budget.

    Construction rejects a time-edge between the terminals, which the
    problem definition forbids.  Build a changed copy through the
    constructor, never `_replace`, which skips this check.  Like
    TemporalGraph, a named tuple subclass that keeps a derived view in a
    cached property.
    """

    def __new__(cls, g: TemporalGraph, s: int, z: int, k: int) -> "Instance":
        check_terminals(g.n, s, z)
        if k < 0:
            raise ValueError(f"budget must be non-negative, got {k}")
        pair = (min(s, z), max(s, z))
        if pair in g.edge_labels:
            raise TerminalEdgePresent(f"time-edge between terminals {s} and {z} at labels {g.edge_labels[pair]}")
        return super().__new__(cls, g, s, z, k)

    @cached_property
    def arrival(self) -> tuple[float, ...]:
        """The earliest non-strict arrival label of each vertex from s, with
        nothing deleted: 0 for s, UNREACHED for a vertex s cannot reach."""
        return tuple(_sweep(self.g, self.s, strict=False)[0])

    @cached_property
    def walk_labels(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """`g.edge_labels` with label t of pair (u, v) kept only when
        arr(u) <= t <= dep(v) or arr(v) <= t <= dep(u), and a pair with no
        label left dropped: arr is `arrival`, dep(v) the latest non-strict
        departure from v towards z (tau+1 for z).  A kept t is at or after
        both arr(u) and arr(v), since the end reached by t crosses the edge
        at t, and no label is kept exactly when s cannot reach z."""
        arr, last = self.arrival, self.g.tau + 1
        dep = [last - r for r in _sweep(self.g, self.z, strict=False, reverse=True)[0]]  # -inf: no way to z
        kept = {}
        for (u, v), labels in self.g.edge_labels.items():
            ts = tuple(t for t in labels if arr[u] <= t <= dep[v] or arr[v] <= t <= dep[u])
            if ts:
                kept[(u, v)] = ts
        return kept


class Separator(NamedTuple):
    """A vertex set whose deletion removes all temporal (s,z)-paths.

    A one-field tuple, so `len()` of it is 1: its size is `.size`.
    """

    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def sorted(self) -> list[int]:
        return sorted(self.vertices)


def is_separator(inst: Instance, candidate: Iterable[int], strict: bool = False) -> bool:
    """Whether deleting `candidate` leaves no temporal (s,z)-path.

    Raises TerminalInSeparator or VertexOutOfRange for a bad candidate.
    """
    return separates(inst.g, inst.s, inst.z, frozenset(candidate), strict)

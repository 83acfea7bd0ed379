"""Temporal graph data model.

A temporal graph is a fixed vertex set together with time-labeled undirected
edges over discrete labels 1..tau.  Vertices are dense 0-based integers, time
labels are 1-based.  Derived views are cached on the graph: `layer_pairs`,
the one grouping of the time-edges by label, the layer edge sets and adjacency
lists built from it, and the labels of each edge.  The underlying static graph
(the union of all layers) is not cached: every `underlying()` call builds a
new one from the cached edge labels.  `reachable` is the one search on plain
edge lists (over their `adjacency_lists`), and `is_connected` reads it.

All values are immutable after construction; every operation is a pure
function, so values are safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import LabelOutOfRange, SelfLoop, VertexOutOfRange


class TimeEdge(NamedTuple):
    """An undirected edge {u, v} active at time label t, stored with u < v.

    A plain tuple: it unpacks as (t, u, v) and orders as that tuple.
    """

    t: int
    u: int
    v: int


class _StaticGraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class StaticGraph(_StaticGraphFields):
    """A simple undirected graph on vertices 0..n-1.

    A named tuple subclass without `__slots__`, so cached views can be kept.
    """

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]) -> "StaticGraph":
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"static edge ({u},{v}) is a self-loop")
            if not (0 <= u < v < n):
                raise VertexOutOfRange(f"static edge ({u},{v}) outside 0..{n - 1} or not canonical")
        return super().__new__(cls, n, edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def adjacency_lists(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """The neighbours of each vertex on an edge of `pairs`, in edge order."""
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def reachable(pairs: Iterable[tuple[int, int]], source: int) -> set[int]:
    """The vertices that paths over the edges `pairs` reach from `source`, itself included."""
    adj = adjacency_lists(pairs)
    seen = {source}
    stack = [source]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the graph on vertices 0..n-1 with edges `pairs` is connected."""
    return n <= 1 or len(reachable(pairs, 0)) == n


def check_terminals(n: int, s: int, z: int) -> None:
    """Raise VertexOutOfRange unless s and z are distinct vertices of 0..n-1."""
    for v in (s, z):
        if not (0 <= v < n):
            raise VertexOutOfRange(f"terminal {v} outside 0..{n - 1}")
    if s == z:
        raise VertexOutOfRange(f"terminals must be distinct, both are {s}")


class _TemporalGraphFields(NamedTuple):
    n: int
    tau: int
    edges: tuple[TimeEdge, ...]


class TemporalGraph(_TemporalGraphFields):
    """A temporal graph: n vertices, max label tau, sorted time-edge list.

    Invariants: edges sorted ascending by (t, u, v); no duplicates; every
    label in [1, tau].  tau may exceed the largest label present, so empty
    layers are representable.  Like StaticGraph, a named tuple subclass that
    keeps its derived views in cached properties.
    """

    @cached_property
    def layer_pairs(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """(label, the (u, v) of its time-edges in edge order) for each label that has an edge, in label order."""
        return tuple((t, tuple(map(itemgetter(1, 2), group))) for t, group in groupby(self.edges, key=itemgetter(0)))

    @cached_property
    def layer_edge_sets(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """Edge set of each layer, indexed 0..tau-1 for labels 1..tau; empty layers share one set."""
        sets = [frozenset()] * self.tau
        for t, pairs in self.layer_pairs:
            sets[t - 1] = frozenset(pairs)
        return tuple(sets)

    @cached_property
    def layer_adjacency(self) -> tuple[tuple[int, dict[int, list[int]]], ...]:
        """(label, `adjacency_lists` of its pairs) for each entry of `layer_pairs`.

        Shared by every reachability sweep; callers must treat the lists as read-only."""
        return tuple((t, adjacency_lists(pairs)) for t, pairs in self.layer_pairs)

    @cached_property
    def edge_labels(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Sorted labels at which each underlying edge is active."""
        labels: dict[tuple[int, int], list[int]] = {}
        for t, u, v in self.edges:
            labels.setdefault((u, v), []).append(t)
        return {pair: tuple(ts) for pair, ts in labels.items()}

    def underlying(self) -> StaticGraph:
        """The static union of all layers.

        The pairs of `edge_labels` are canonical and in range by construction,
        so the graph is built without `StaticGraph`'s per-pair check.
        """
        return tuple.__new__(StaticGraph, (self.n, frozenset(self.edge_labels)))

    def delete_vertices(self, drop: Iterable[int]) -> tuple["TemporalGraph", dict[int, int]]:
        """Remove vertices and every incident time-edge.

        Survivors are re-indexed densely; the returned old->new map lets
        witnesses on the smaller graph be translated back.  tau is unchanged.
        """
        dropped = set(drop)
        for v in dropped:
            if not (0 <= v < self.n):
                raise VertexOutOfRange(f"cannot delete vertex {v}, graph has 0..{self.n - 1}")
        remap: dict[int, int] = {}
        for v in range(self.n):
            if v not in dropped:
                remap[v] = len(remap)
        kept = tuple(TimeEdge(t, remap[u], remap[v]) for t, u, v in self.edges if u in remap and v in remap)
        return TemporalGraph(self.n - len(dropped), self.tau, kept), remap

    def raw_triples(self) -> list[tuple[int, int, int]]:
        """The edge list as (u, v, t) triples in canonical order."""
        return [(u, v, t) for t, u, v in self.edges]


def build(n: int, tau: int, raw_edges: Iterable[tuple[int, int, int]]) -> TemporalGraph:
    """Build a canonical TemporalGraph from (u, v, t) triples.

    Input order is irrelevant and duplicates collapse.  Raises SelfLoop,
    VertexOutOfRange, or LabelOutOfRange naming the offending triple.
    """
    if n < 0:
        raise VertexOutOfRange(f"vertex count {n} is negative")
    if tau < 0:
        raise LabelOutOfRange(f"max label {tau} is negative")
    canon: set[tuple[int, int, int]] = set()
    for u, v, t in raw_edges:
        if u == v:
            raise SelfLoop(f"time-edge ({u},{v},{t}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"time-edge ({u},{v},{t}) has a vertex outside 0..{n - 1}")
        if not (1 <= t <= tau):
            raise LabelOutOfRange(f"time-edge ({u},{v},{t}) has label outside 1..{tau}")
        canon.add((t, u, v) if u < v else (t, v, u))
    return TemporalGraph(n, tau, tuple(map(TimeEdge._make, sorted(canon))))


def from_layers(n: int, layer_sets: Iterable[Iterable[tuple[int, int]]]) -> TemporalGraph:
    """Build a temporal graph from an explicit layer sequence."""
    triples = []
    tau = 0
    for t, pairs in enumerate(layer_sets, start=1):
        tau = t
        triples.extend((u, v, t) for u, v in pairs)
    return build(n, tau, triples)


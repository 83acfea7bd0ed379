"""Temporal graph data model.

A temporal graph is a fixed vertex set together with time-labeled undirected
edges over discrete labels 1..tau.  Vertices are dense 0-based integers, time
labels are 1-based.  Layers (the static graph of one label) and the underlying
graph (the union of all layers) are derived views.

All values are immutable after construction; every operation is a pure
function, so values are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    LabelOutOfRange,
    NonpositiveExponent,
    SelfLoop,
    VertexCountMismatch,
    VertexOutOfRange,
)


@dataclass(frozen=True, order=True)
class TimeEdge:
    """An undirected edge {u, v} active at time label t, stored with u < v."""

    t: int
    u: int
    v: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class StaticGraph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise SelfLoop(f"static edge ({u},{v}) is a self-loop")
            if not (0 <= u < v < self.n):
                raise VertexOutOfRange(f"static edge ({u},{v}) outside 0..{self.n - 1} or not canonical")

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


def static_graph(n: int, pairs: Iterable[tuple[int, int]]) -> StaticGraph:
    """Build a StaticGraph, canonicalizing pair order and dropping duplicates."""
    return StaticGraph(n, frozenset((min(u, v), max(u, v)) for u, v in pairs))


def check_terminals(n: int, s: int, z: int) -> None:
    """Raise VertexOutOfRange unless s and z are distinct vertices of 0..n-1."""
    for v in (s, z):
        if not (0 <= v < n):
            raise VertexOutOfRange(f"terminal {v} outside 0..{n - 1}")
    if s == z:
        raise VertexOutOfRange(f"terminals must be distinct, both are {s}")


@dataclass(frozen=True)
class TemporalGraph:
    """A temporal graph: n vertices, max label tau, sorted time-edge list.

    Invariants: edges sorted ascending by (t, u, v); no duplicates; every
    label in [1, tau].  tau may exceed the largest label present, so empty
    layers are representable.
    """

    n: int
    tau: int
    edges: tuple[TimeEdge, ...]

    @cached_property
    def layer_edge_sets(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """Edge set of each layer, indexed 0..tau-1 for labels 1..tau."""
        sets: list[set[tuple[int, int]]] = [set() for _ in range(self.tau)]
        for e in self.edges:
            sets[e.t - 1].add(e.pair)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def layer_adjacency(self) -> tuple[dict[int, list[int]], ...]:
        """Adjacency lists of each layer, indexed 0..tau-1 for labels 1..tau.

        Built once per graph and shared by every reachability sweep; callers
        must treat the lists as read-only.
        """
        layers: list[dict[int, list[int]]] = [{} for _ in range(self.tau)]
        for e in self.edges:
            adj = layers[e.t - 1]
            adj.setdefault(e.u, []).append(e.v)
            adj.setdefault(e.v, []).append(e.u)
        return tuple(layers)

    @cached_property
    def edge_labels(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Sorted labels at which each underlying edge is active."""
        labels: dict[tuple[int, int], list[int]] = {}
        for e in self.edges:
            labels.setdefault(e.pair, []).append(e.t)
        return {pair: tuple(ts) for pair, ts in labels.items()}

    def layer(self, t: int) -> StaticGraph:
        """The static graph of the edges labeled t."""
        if not (1 <= t <= self.tau):
            raise LabelOutOfRange(f"layer {t} outside 1..{self.tau}")
        return StaticGraph(self.n, self.layer_edge_sets[t - 1])

    def underlying(self) -> StaticGraph:
        """The static union of all layers."""
        return StaticGraph(self.n, frozenset(self.edge_labels.keys()))

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
        kept = tuple(
            TimeEdge(e.t, remap[e.u], remap[e.v])
            for e in self.edges
            if e.u in remap and e.v in remap
        )
        return TemporalGraph(self.n - len(dropped), self.tau, kept), remap

    def slice_labels(self, a: int, b: int) -> "TemporalGraph":
        """The temporal graph of labels a..b, renumbered to 1..b-a+1."""
        if not (1 <= a <= b <= self.tau):
            raise LabelOutOfRange(f"label window [{a},{b}] outside 1..{self.tau}")
        kept = tuple(TimeEdge(e.t - a + 1, e.u, e.v) for e in self.edges if a <= e.t <= b)
        return TemporalGraph(self.n, b - a + 1, kept)

    def raw_triples(self) -> list[tuple[int, int, int]]:
        """The edge list as (u, v, t) triples in canonical order."""
        return [(e.u, e.v, e.t) for e in self.edges]


def build(n: int, tau: int, raw_edges: Iterable[tuple[int, int, int]]) -> TemporalGraph:
    """Build a canonical TemporalGraph from (u, v, t) triples.

    Input order is irrelevant and duplicates collapse.  Raises SelfLoop,
    VertexOutOfRange, or LabelOutOfRange naming the offending triple.
    """
    if n < 0:
        raise VertexOutOfRange(f"vertex count {n} is negative")
    if tau < 0:
        raise LabelOutOfRange(f"max label {tau} is negative")
    canon: set[TimeEdge] = set()
    for u, v, t in raw_edges:
        if u == v:
            raise SelfLoop(f"time-edge ({u},{v},{t}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"time-edge ({u},{v},{t}) has a vertex outside 0..{n - 1}")
        if not (1 <= t <= tau):
            raise LabelOutOfRange(f"time-edge ({u},{v},{t}) has label outside 1..{tau}")
        canon.add(TimeEdge(t, min(u, v), max(u, v)))
    return TemporalGraph(n, tau, tuple(sorted(canon)))


def from_layers(n: int, layer_sets: Iterable[Iterable[tuple[int, int]]]) -> TemporalGraph:
    """Build a temporal graph from an explicit layer sequence."""
    triples = []
    tau = 0
    for t, pairs in enumerate(layer_sets, start=1):
        tau = t
        triples.extend((u, v, t) for u, v in pairs)
    return build(n, tau, triples)


def concat(g1: TemporalGraph, g2: TemporalGraph) -> TemporalGraph:
    """g1 followed by g2: g2's labels are shifted up by g1.tau."""
    if g1.n != g2.n:
        raise VertexCountMismatch(f"cannot concatenate graphs on {g1.n} and {g2.n} vertices")
    shifted = tuple(TimeEdge(e.t + g1.tau, e.u, e.v) for e in g2.edges)
    return TemporalGraph(g1.n, g1.tau + g2.tau, g1.edges + shifted)


def power(g: TemporalGraph, x: int) -> TemporalGraph:
    """x-fold self-concatenation; power 1 is the graph itself."""
    if x < 1:
        raise NonpositiveExponent(f"power exponent must be >= 1, got {x}")
    result = g
    for _ in range(x - 1):
        result = concat(result, g)
    return result

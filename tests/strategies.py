"""Hypothesis strategies, and graph operations that only tests use, shared
by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from temposep import StaticGraph, TemporalGraph, build
from temposep.reachability import UNREACHED, _sweep


def static_graph(n: int, pairs) -> StaticGraph:
    """A StaticGraph from pairs in any order, duplicates dropped."""
    return StaticGraph(n, frozenset((min(u, v), max(u, v)) for u, v in pairs))


def concat(g1: TemporalGraph, g2: TemporalGraph) -> TemporalGraph:
    """g1 followed by g2 on the same vertices: g2's labels are shifted up by g1.tau."""
    return build(g1.n, g1.tau + g2.tau, g1.raw_triples() + [(u, v, t + g1.tau) for t, u, v in g2.edges])


def power(g: TemporalGraph, x: int) -> TemporalGraph:
    """x-fold self-concatenation: each (u, v, t) is copied to t + r*tau for r < x."""
    return build(g.n, g.tau * x, [(u, v, t + r * g.tau) for r in range(x) for t, u, v in g.edges])


def reachable_with_earliest_arrival(g: TemporalGraph, s: int) -> dict[int, int]:
    """The non-strict sweep's earliest arrival label of every vertex s reaches; s maps to 0."""
    arrival, _ = _sweep(g, s, strict=False)
    return {v: int(a) for v, a in enumerate(arrival) if a != UNREACHED}


def small_graphs(max_n: int = 6, max_tau: int = 3, min_n: int = 2):
    """Small canonical temporal graphs."""

    @st.composite
    def _graphs(draw):
        n = draw(st.integers(min_n, max_n))
        tau = draw(st.integers(1, max_tau))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        triples = draw(
            st.lists(
                st.tuples(st.sampled_from(pairs), st.integers(1, tau)).map(
                    lambda e: (e[0][0], e[0][1], e[1])
                ),
                max_size=2 * n * tau,
            )
        )
        return build(n, tau, triples)

    return _graphs()


def instance_graphs(max_n: int = 6, max_tau: int = 3, min_n: int = 2):
    """Graphs with no time-edge between 0 and n-1, usable as instances."""

    @st.composite
    def _graphs(draw):
        g = draw(small_graphs(max_n, max_tau, min_n))
        sz = (0, g.n - 1)
        return build(g.n, g.tau, [t for t in g.raw_triples() if (t[0], t[1]) != sz])

    return _graphs()


def indifference_graphs(max_n: int = 7, max_tau: int = 3):
    """(graph, ordering) pairs with every layer compatible with the ordering.

    Each layer joins position i to every position in i+1..r(i) for a
    non-decreasing r with r(i) >= i; the positions are then dealt to the
    vertices by a random permutation, which becomes the ordering.
    """

    @st.composite
    def _cases(draw):
        n = draw(st.integers(2, max_n))
        tau = draw(st.integers(1, max_tau))
        ordering = tuple(draw(st.permutations(range(n))))
        triples = []
        for t in range(1, tau + 1):
            reach = 0
            for i in range(n):
                reach = max(reach, i + draw(st.integers(0, n - 1 - i)))
                triples.extend((ordering[i], ordering[j], t) for j in range(i + 1, reach + 1))
        return build(n, tau, triples), ordering

    return _cases()

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


def elimination_decomposition(g: StaticGraph, order) -> tuple[list[set[int]], list[tuple[int, int]]]:
    """Bags and tree edges from eliminating the vertices of g in `order`.

    A vertex's bag is itself and its neighbours when it is eliminated, which
    then become a clique.  The bag hangs under the bag of its
    first-eliminated neighbour, or under the next bag when it has none.
    """
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    position = {v: i for i, v in enumerate(order)}
    bags: list[set[int]] = []
    tree_edges: list[tuple[int, int]] = []
    for i, v in enumerate(order):
        nbrs = adj.pop(v)
        bags.append({v} | nbrs)
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        if nbrs:
            tree_edges.append((i, min(position[w] for w in nbrs)))
        elif i + 1 < len(order):
            tree_edges.append((i, i + 1))
    return bags, tree_edges


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


def late_arrival_graphs(max_n: int = 7, max_tau: int = 4):
    """Instance graphs (s = 0, z = n-1) that s reaches only in part, and late.

    A drawn set of vertices keeps only its time-edges among itself, so s
    cannot reach it, and s's own time-edges keep only labels from a drawn
    start on, so its neighbours are first reached late and their earlier
    labels cannot be arrival labels.
    """

    @st.composite
    def _graphs(draw):
        g = draw(instance_graphs(max_n, max_tau, min_n=3))
        cut_off = draw(st.sets(st.integers(1, g.n - 1)))
        start = draw(st.integers(1, g.tau))
        kept = [
            (u, v, t)
            for u, v, t in g.raw_triples()
            if (u in cut_off) == (v in cut_off) and (u != 0 or t >= start)
        ]
        return build(g.n, g.tau, kept)

    return _graphs()

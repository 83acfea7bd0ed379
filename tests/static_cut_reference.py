"""The split-network vertex cut, a test-side reference.

Each non-terminal vertex is split into an entry and an exit node joined by a
unit arc; undirected edges become infinite-capacity arc pairs.  Max flow from
the exit of s to the entry of z, one breadth-first augmenting path at a time,
then equals the minimum number of internally vertex-disjoint (s,z)-paths, and
the cut is every vertex whose entry, but not exit, the source still reaches
in the residual graph.  The network holds two residual dicts per vertex of
0..n-1.  `static_min_vertex_cut` must return exactly what this does.
"""

from __future__ import annotations

from collections import deque

from temposep.core import StaticGraph, check_terminals
from temposep.errors import TerminalsAdjacent


def split_network_cut(g: StaticGraph, s: int, z: int) -> frozenset[int]:
    check_terminals(g.n, s, z)
    if g.has_edge(s, z):
        raise TerminalsAdjacent(f"vertices {s} and {z} are adjacent, no cut exists")

    # Node 2v = entry of v, 2v+1 = exit of v.  No two arcs join the same node
    # pair, so each residual capacity is assigned once, its reverse at 0.
    inf = g.n + 1
    cap: list[dict[int, int]] = [{} for _ in range(2 * g.n)]
    for v in range(g.n):
        if v not in (s, z):
            cap[2 * v][2 * v + 1] = 1
            cap[2 * v + 1][2 * v] = 0
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            cap[2 * a + 1][2 * b] = inf
            cap[2 * b][2 * a + 1] = 0

    source, sink = 2 * s + 1, 2 * z
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            cur = queue.popleft()
            for nxt, c in cap[cur].items():
                if c > 0 and nxt not in parent:
                    parent[nxt] = cur
                    queue.append(nxt)
        if sink not in parent:
            break
        # Capacities are integers, so one unit always fits along the path.
        node = sink
        while node != source:
            prv = parent[node]
            cap[prv][node] -= 1
            cap[node][prv] += 1
            node = prv

    # The last, failed search reached exactly the residual-reachable side.
    return frozenset(v for v in range(g.n) if v not in (s, z) and 2 * v in parent and 2 * v + 1 not in parent)

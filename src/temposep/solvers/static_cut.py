"""Minimum static (s,z)-vertex cut via unit-capacity flow.

Each non-terminal vertex is split into an entry and an exit node joined by a
unit arc; undirected edges become infinite-capacity arc pairs.  Max flow from
the exit of s to the entry of z then equals the minimum number of internally
vertex-disjoint (s,z)-paths, and the residual frontier yields the cut.
"""

from __future__ import annotations

from collections import deque

from ..core import StaticGraph, check_terminals
from ..errors import TerminalsAdjacent


def static_min_vertex_cut(g: StaticGraph, s: int, z: int) -> frozenset[int]:
    """A minimum vertex set disjoint from {s,z} disconnecting s from z."""
    check_terminals(g.n, s, z)
    if g.has_edge(s, z):
        raise TerminalsAdjacent(f"vertices {s} and {z} are adjacent, no cut exists")

    # Node 2v = entry of v, 2v+1 = exit of v.
    inf = g.n + 1
    cap: dict[int, dict[int, int]] = {}

    def add_arc(a: int, b: int, c: int) -> None:
        cap.setdefault(a, {})[b] = cap.setdefault(a, {}).get(b, 0) + c
        cap.setdefault(b, {}).setdefault(a, 0)

    for v in range(g.n):
        if v not in (s, z):
            add_arc(2 * v, 2 * v + 1, 1)
    for u, v in sorted(g.edges):
        add_arc(2 * u + 1, 2 * v, inf)
        add_arc(2 * v + 1, 2 * u, inf)

    source, sink = 2 * s + 1, 2 * z

    def bfs_augment() -> int:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            if cur == sink:
                break
            for nxt in sorted(cap.get(cur, {})):
                if nxt not in parent and cap[cur][nxt] > 0:
                    parent[nxt] = cur
                    queue.append(nxt)
        if sink not in parent:
            return 0
        bottleneck = inf
        node = sink
        while node != source:
            prv = parent[node]
            bottleneck = min(bottleneck, cap[prv][node])
            node = prv
        node = sink
        while node != source:
            prv = parent[node]
            cap[prv][node] -= bottleneck
            cap[node][prv] += bottleneck
            node = prv
        return bottleneck

    while bfs_augment():
        pass

    # Residual-reachable side of the cut.
    reach = {source}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt, c in cap.get(cur, {}).items():
            if c > 0 and nxt not in reach:
                reach.add(nxt)
                queue.append(nxt)
    return frozenset(
        v for v in range(g.n) if v not in (s, z) and 2 * v in reach and 2 * v + 1 not in reach
    )

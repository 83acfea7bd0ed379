"""The explicit time-expanded digraph, a test-side cross-check of the sweep.

One node per vertex/label incidence plus the two terminals, and column arcs
for waiting: directed (s,z)-paths in it correspond one-to-one to temporal
(s,z)-paths.  For the strict variant each vertex/label node is split into an
entry and an exit half so that entering and leaving a vertex at the same label
is impossible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from temposep.core import TemporalGraph
from temposep.errors import VertexOutOfRange


class ExpNode(NamedTuple):
    """Descriptor of one expansion node.

    kind is 'source', 'sink', 'node' (non-strict), 'in', or 'out';
    vertex/label are None for the terminals.
    """

    kind: str
    vertex: Optional[int]
    label: Optional[int]


@dataclass(frozen=True)
class StaticExpansion:
    """Time-expanded digraph of (g, s, z); see the module docstring."""

    strict: bool
    nodes: tuple[ExpNode, ...]
    source: int
    sink: int
    layer_arcs: tuple[tuple[int, int], ...]
    source_arcs: tuple[tuple[int, int], ...]
    sink_arcs: tuple[tuple[int, int], ...]
    column_arcs: tuple[tuple[int, int], ...]

    def all_arcs(self) -> tuple[tuple[int, int], ...]:
        return self.layer_arcs + self.source_arcs + self.sink_arcs + self.column_arcs

    def has_sz_path(self) -> bool:
        """BFS from source to sink; equivalent to temporal reachability."""
        adj: dict[int, list[int]] = {}
        for a, b in self.all_arcs():
            adj.setdefault(a, []).append(b)
        seen = {self.source}
        queue = deque([self.source])
        while queue:
            cur = queue.popleft()
            if cur == self.sink:
                return True
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


def build_expansion(g: TemporalGraph, s: int, z: int, strict: bool = False) -> StaticExpansion:
    """Construct the time-expanded digraph of (g, s, z).

    A direct s-z time-edge (which separation instances forbid) is represented
    by a source->sink arc so that reachability on the expansion stays faithful
    on raw graphs.
    """
    if not (0 <= s < g.n and 0 <= z < g.n) or s == z:
        raise VertexOutOfRange(f"terminals {s}, {z} must be distinct vertices of 0..{g.n - 1}")
    active: dict[int, list[int]] = {}
    for e in g.edges:
        for v in (e.u, e.v):
            if v not in (s, z):
                ts = active.setdefault(v, [])
                if not ts or ts[-1] != e.t:
                    ts.append(e.t)

    nodes: list[ExpNode] = [ExpNode("source", None, None), ExpNode("sink", None, None)]
    index: dict[tuple[int, int, str], int] = {}
    kinds = ("in", "out") if strict else ("node",)
    for v in sorted(active):
        for t in active[v]:
            for kind in kinds:
                index[(v, t, kind)] = len(nodes)
                nodes.append(ExpNode(kind, v, t))

    enter = lambda v, t: index[(v, t, "in" if strict else "node")]
    leave = lambda v, t: index[(v, t, "out" if strict else "node")]

    layer_arcs: list[tuple[int, int]] = []
    source_arcs: list[tuple[int, int]] = []
    sink_arcs: list[tuple[int, int]] = []
    column_arcs: list[tuple[int, int]] = []
    for e in g.edges:
        u, v, t = e.u, e.v, e.t
        if {u, v} == {s, z}:
            source_arcs.append((0, 1))
        elif u == s or v == s:
            w = v if u == s else u
            source_arcs.append((0, enter(w, t)))
        elif u == z or v == z:
            w = v if u == z else u
            sink_arcs.append((leave(w, t), 1))
        else:
            layer_arcs.append((leave(u, t), enter(v, t)))
            layer_arcs.append((leave(v, t), enter(u, t)))
    for v in sorted(active):
        ts = active[v]
        for t, t_next in zip(ts, ts[1:]):
            if strict:
                column_arcs.append((enter(v, t), leave(v, t_next)))
                column_arcs.append((leave(v, t), leave(v, t_next)))
            else:
                column_arcs.append((index[(v, t, "node")], index[(v, t_next, "node")]))

    return StaticExpansion(
        strict=strict,
        nodes=tuple(nodes),
        source=0,
        sink=1,
        layer_arcs=tuple(layer_arcs),
        source_arcs=tuple(source_arcs),
        sink_arcs=tuple(sink_arcs),
        column_arcs=tuple(column_arcs),
    )

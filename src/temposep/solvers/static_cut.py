"""Minimum static (s,z)-vertex cut via unit-capacity flow.

The flow runs on the split network of Even and Tarjan (1975) without
building it.  Each non-terminal vertex v has an entry state and an exit
state joined by a unit arc; each undirected edge joins every endpoint's exit
to the other's entry with unbounded capacity.  The unit of flow through a
carrying vertex enters it from one neighbour, its flow predecessor, and one
dict of those predecessors gives every residual move:

- from v's exit to the entry of any neighbour (an unbounded arc);
- from v's entry to v's exit if v carries no flow, and otherwise back to
  the exit of v's flow predecessor, the one arc into that entry that
  carries flow;
- from v's exit back to v's entry if v carries flow.

Max flow from the exit of s to the entry of z equals the minimum number of
internally vertex-disjoint (s,z)-paths, and the cut is every vertex whose
entry, but not exit, the last, failed search reaches.  A search ends as soon
as it reaches the exit of a neighbour of z, one move short of z's entry, so
the depth-first searches find short augmenting paths and leave short flow
paths behind.  The adjacency is built from the edges and the searches record
only the states they reach, so nothing is allocated per vertex of 0..n-1.

That residual-reachable set is the same for every maximum flow: it is the
source side of the minimum cut that lies inside the source side of every
other minimum cut.  So the returned cut does not depend on which augmenting
paths the searches happen to find, and they visit arcs in any order.  Nor
does it change when an augmentation sends a unit from x to y while one
goes from y to x: that leaves a circulation x -> y -> x, and the flow is
still maximum.
"""

from __future__ import annotations

from ..core import StaticGraph, adjacency_lists, check_terminals
from ..errors import TerminalsAdjacent


def static_min_vertex_cut(g: StaticGraph, s: int, z: int) -> frozenset[int]:
    """A minimum vertex set disjoint from {s,z} disconnecting s from z.

    Of all minimum cuts it returns the one closest to s: the vertices s
    reaches once it is deleted lie on s's side of every other minimum cut.
    """
    check_terminals(g.n, s, z)
    if g.has_edge(s, z):
        raise TerminalsAdjacent(f"vertices {s} and {z} are adjacent, no cut exists")

    adj = adjacency_lists(g.edges)
    # The flow predecessor of each carrying vertex; the terminals never carry.
    pred: dict[int, int] = {}
    # The exits from which one move enters z.
    near_z = frozenset(adj.get(z, ()))
    while True:
        # entered[w]: the exit whose move reached w's entry (w itself when
        # w's unit is cancelled); exited[x]: the entry whose move reached x's exit.
        entered: dict[int, int] = {}
        exited = {s: s}
        stack = [s]
        while stack and z not in entered:
            v = stack.pop()
            # From v's exit to each neighbour's entry w, and on to the exit
            # of w's flow predecessor, or of w itself if w carries no flow.
            # The search ends at the first such exit next to z.
            for w in adj.get(v, ()):
                if w not in entered:
                    entered[w] = v
                    x = pred.get(w, w)
                    if x not in exited:
                        exited[x] = w
                        if x in near_z:
                            entered[z] = x
                            break
                        stack.append(x)
            else:
                # From a carrying v's exit back to its entry, and on as above.
                if v in pred and v not in entered:
                    entered[v] = v
                    x = pred[v]
                    if x not in exited:
                        exited[x] = v
                        stack.append(x)
        if z not in entered:
            break
        # One unit along the path, walked back from z's entry: a move from
        # v's exit to w's entry makes v w's flow predecessor, a move back from
        # w's exit to its own entry drops w's flow.  The path's other moves
        # cancel flow that the moves around them replace.
        w = z
        while w != s:
            v = entered[w]
            if v == w:
                del pred[w]
            elif w != z:
                pred[w] = v
            w = exited[v]

    # The last, failed search reached exactly the residual-reachable side.
    return frozenset(v for v in entered if v not in exited)

"""Budget-bounded branch-and-bound solver.

Any separator must hit every temporal (s,z)-path, so: find one path, branch
over its interior vertices, recurse with the budget reduced by one.  Each
path query is one masked sweep over the original graph, with the chosen
vertices blocked, so the whole search works in the input's vertex ids.

Pruning.  Each node also keeps a packing: temporal (s,z)-paths whose
interiors are pairwise disjoint and avoid the chosen vertices.  A separator
that extends the chosen set must take a distinct unchosen vertex from each
packed interior, so a node whose packing holds more paths than its budget
has no separator below it and returns None at once.  The packing is only a
lower bound: Menger's theorem fails for temporal paths (Kempe, Kleinberg and
Kumar, 2000), so a node that is not pruned may still hold no separator.

A child inherits its parent's packing minus the one path whose interior
holds the vertex just branched on; the rest still avoid the child's chosen
set.  The node's branching path joins the packing for free when its
interior is disjoint from the packed ones.  Then the packing grows greedily,
one masked sweep per path with the chosen set and every packed interior
blocked, until it holds budget+1 paths or no further path exists.

The witness is unchanged by pruning: the branching path and the branch order
are those of the plain search, and a pruned subtree provably returns None
there, so the depth-first search meets the same first separator.  That
separator fits the budget; it is not proven minimum.  The tree has depth at
most k and fan-out at most the path length minus one; pruning does not
change the worst case of O(path_length^k * |edges|) work.  Complete:
whenever a separator of size at most k exists, some branch extends a subset
of it.

The depth-first walk keeps an explicit stack of lazy child iterators, one per
open node, so the depth (up to k) is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..oracle import Instance, Separator
from ..reachability import find_temporal_path


def _children(chosen: frozenset[int], budget: int, hops: list[int], packed: list[frozenset[int]]) -> Iterator[tuple]:
    """Each child's (chosen, budget, packing), built only when the walk reaches it, in hop order.

    A generator function, so every node's iterator keeps its own bindings.
    """
    for hop in hops:
        yield chosen | {hop}, budget - 1, tuple(p for p in packed if hop not in p)


def solve_search_tree(inst: Instance, strict: bool = False) -> Optional[Separator]:
    """A separator of size <= inst.k, or None when the budget is too small.

    Deterministic: paths are extracted with fixed tie-breaking and interior
    vertices are branched in path order, so the first separator found is
    always the same.
    """
    g, s, z = inst.g, inst.s, inst.z
    stack: list[Iterator[tuple]] = [iter([(frozenset(), inst.k, ())])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        chosen, budget, packing = state
        path = find_temporal_path(g, s, z, strict, chosen)
        if path is None:
            return Separator(chosen)
        if budget == 0:
            continue
        hops = path.vertices()[1:-1]
        packed = list(packing)
        used = chosen.union(*packed)
        if used.isdisjoint(hops):
            packed.append(frozenset(hops))
            used = used.union(hops)
        while len(packed) <= budget:
            extra = find_temporal_path(g, s, z, strict, used)
            if extra is None:
                break
            interior = frozenset(extra.vertices()[1:-1])
            packed.append(interior)
            used = used | interior
        if len(packed) <= budget:
            stack.append(_children(chosen, budget, hops, packed))
    return None

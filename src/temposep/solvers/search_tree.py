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
set.  Then one loop grows the packing.  Its first candidate is the node's
branching path, which joins when its interior avoids the chosen set and the
packed interiors; each later path is one masked sweep with all of those
blocked.  The loop stops before a sweep once the packing holds budget+1
paths, and ends when no further path exists.

Exclusion.  A node branches on its path's interior hops h1..hl in order, and
the branch on h_i never branches on h1..h_{i-1} or on a hop its parent
excluded: the branch on h_j has searched every extension of the chosen set
by h_j and found none (Cygan et al., Parameterized Algorithms, 2015, ch. 3).

The witness is unchanged by pruning or exclusion: the branching path and the
branch order are those of the plain search, and a skipped subtree provably
returns None there, so the depth-first search meets the same first
separator.  That separator fits the budget; it is not proven minimum.  The
tree has depth at most k and fan-out at most the path length minus one;
pruning does not change the worst case of O(path_length^k * |edges|) work.
Complete: whenever a separator of size at most k exists, some branch
extends a subset of it.

The depth-first walk pops one explicit stack of pending branches, so the
depth (up to k) is not bounded by Python's recursion limit.  A branch holds
its parent's chosen set and packing and builds the child's only when popped,
so a level's sets are freed when its last branch starts.
"""

from __future__ import annotations

from typing import Optional

from ..reachability import Instance, Separator, find_temporal_path


def solve_search_tree(inst: Instance, strict: bool = False) -> Optional[Separator]:
    """A separator of size <= inst.k, or None when the budget is too small.

    Deterministic: paths are extracted with fixed tie-breaking and interior
    vertices are branched in path order, so the first separator found is
    always the same.
    """
    g, s, z = inst.g, inst.s, inst.z
    # (parent's chosen, parent's packing, hop, hops its subtree never branches on); the root has no hop.
    pending: list[tuple] = [(frozenset(), (), None, frozenset())]
    while pending:
        chosen, packing, hop, excluded = pending.pop()
        if hop is not None:
            chosen = chosen | {hop}
        packed = [p for p in packing if hop not in p]
        path = find_temporal_path(g, s, z, strict, chosen)
        if path is None:
            return Separator(chosen)
        hops = [v for v in path.vertices()[1:-1] if v not in excluded]
        used = chosen.union(*packed)
        while path is not None:
            interior = frozenset(path.vertices()[1:-1])
            if used.isdisjoint(interior):
                packed.append(interior)
                used = used | interior
            if len(chosen) + len(packed) > inst.k:
                break
            path = find_temporal_path(g, s, z, strict, used)
        else:  # not pruned: branch on every hop not excluded, the first on top
            pending.extend((chosen, packed, v, excluded.union(hops[:i])) for i, v in reversed(list(enumerate(hops))))
    return None

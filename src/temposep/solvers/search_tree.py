"""Budget-bounded branching solver.

Any separator must hit every temporal (s,z)-path, so: find one path, branch
over its interior vertices, recurse with the budget reduced by one.  Each
node is one masked sweep over the original graph, with the chosen vertices
blocked, so the whole search works in the input's vertex ids.  The tree has
depth at most k and fan-out at most the path length minus one, giving
O(path_length^k * |edges|) work.  Complete: whenever a separator of size at
most k exists, some branch extends a subset of it.
"""

from __future__ import annotations

from typing import Optional

from ..oracle import Instance, Separator
from ..reachability import find_temporal_path


def solve_search_tree(inst: Instance, strict: bool = False) -> Optional[Separator]:
    """A separator of size <= inst.k, or None when the budget is too small.

    Deterministic: paths are extracted with fixed tie-breaking and interior
    vertices are branched in path order, so the first separator found is
    always the same.
    """
    g, s, z = inst.g, inst.s, inst.z

    def branch(chosen: frozenset[int], budget: int) -> Optional[frozenset[int]]:
        path = find_temporal_path(g, s, z, strict, chosen)
        if path is None:
            return chosen
        if budget == 0:
            return None
        for hop in path.vertices()[1:-1]:
            found = branch(chosen | {hop}, budget - 1)
            if found is not None:
                return found
        return None

    result = branch(frozenset(), inst.k)
    return None if result is None else Separator(result)

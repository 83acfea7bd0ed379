"""The unpruned search tree, a test-side reference for the branch-and-bound.

Find one temporal (s,z)-path with the chosen vertices blocked, branch over
its interior vertices in path order, recurse with the budget reduced by one.
Every branch runs to full depth.  `solve_search_tree` prunes subtrees that
provably hold no separator, so it must return exactly what this search
returns: the same separator, or None.
"""

from __future__ import annotations

from typing import Optional

from temposep.oracle import Instance, Separator
from temposep.reachability import find_temporal_path


def reference_search_tree(inst: Instance, strict: bool = False) -> Optional[Separator]:
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

"""Solver backends for minimum temporal (s,z)-separation.

Four interchangeable backends plus a dispatcher:

- search tree: branch over the vertices of a found temporal path; work grows
  as (path length)^budget, so it fits small budgets or short paths.
- static cut: unit-capacity vertex flow on a static graph; exact whenever
  temporal separation collapses to static separation (single-peaked layers,
  identical layers, or enough periods).
- interval DP: polynomial table over a vertex ordering compatible with every
  layer (order-preserving unit-interval layers).
- treewidth DP: coloring tables over a nice tree decomposition of the
  underlying graph.
"""

from .auto import AutoResult, solve_auto, treewidth_work_estimate, DEFAULT_WORK_CAP
from .decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    build_tree_decomposition,
    minfill_tree_decomposition,
    validate_tree_decomposition,
)
from .interval_dp import solve_interval_dp
from .search_tree import solve_search_tree
from .static_cut import static_min_vertex_cut
from .treewidth_dp import solve_treewidth_dp

__all__ = [
    "AutoResult",
    "DEFAULT_WORK_CAP",
    "NiceNode",
    "NiceTreeDecomposition",
    "build_tree_decomposition",
    "minfill_tree_decomposition",
    "solve_auto",
    "solve_interval_dp",
    "solve_search_tree",
    "solve_treewidth_dp",
    "static_min_vertex_cut",
    "treewidth_work_estimate",
    "validate_tree_decomposition",
]

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

Like the top-level package, each name imports its backend module on first
access.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "auto": ("AutoResult", "DEFAULT_WORK_CAP", "solve_auto"),
        "decomposition": (
            "NiceNode",
            "NiceTreeDecomposition",
            "build_tree_decomposition",
            "minfill_tree_decomposition",
            "validate_tree_decomposition",
        ),
        "interval_dp": ("solve_interval_dp",),
        "search_tree": ("solve_search_tree",),
        "static_cut": ("static_min_vertex_cut",),
        "treewidth_dp": ("solve_treewidth_dp", "treewidth_work_estimate"),
    },
)

"""temposep: minimum temporal (s,z)-separators in temporal graphs.

A temporal graph keeps its vertex set fixed while edges carry discrete time
labels; a temporal (s,z)-path traverses edges with non-decreasing labels
(strictly increasing in the strict variant).  This package decides whether
at most k vertices destroy all such paths and constructs such a separator,
via four interchangeable backends, detects membership in several temporal
graph classes, and applies class-targeted instance transformations whose
guarantees are machine-checked.

Every returned separator fits the budget.  The static cut, interval DP and
treewidth DP return minimum separators on the instances they are exact for;
the search tree (and `solve_auto` when it dispatches there) returns the first
separator of size at most k it meets, which is not proven minimum.
"""

from .classes import ClassProfile, MonotoneShape, check_order_compatible, classify
from .core import StaticGraph, TemporalGraph, TimeEdge, build, concat, from_layers, power
from .fileio import dump_tg, load_tg
from .generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    XorShift64Star,
    generate,
)
from .oracle import (
    Instance,
    Separator,
    distance_to_temporality,
    is_separator,
    min_separator_bruteforce,
    path_min_resets,
)
from .reachability import TemporalPath, find_temporal_path, reachable_with_earliest_arrival
from .solvers import (
    AutoResult,
    NiceTreeDecomposition,
    build_tree_decomposition,
    solve_auto,
    solve_interval_dp,
    solve_search_tree,
    solve_treewidth_dp,
    static_min_vertex_cut,
)

__version__ = "0.1.0"

__all__ = [
    "AutoResult",
    "ClassProfile",
    "GenSpec",
    "Instance",
    "MonotoneConstraint",
    "MonotoneShape",
    "NiceTreeDecomposition",
    "PeriodicConstraint",
    "Separator",
    "StaticGraph",
    "SteadyConstraint",
    "TemporalGraph",
    "TemporalPath",
    "TimeEdge",
    "UnitIntervalConstraint",
    "XorShift64Star",
    "build",
    "build_tree_decomposition",
    "check_order_compatible",
    "classify",
    "concat",
    "distance_to_temporality",
    "dump_tg",
    "find_temporal_path",
    "from_layers",
    "generate",
    "is_separator",
    "load_tg",
    "min_separator_bruteforce",
    "path_min_resets",
    "power",
    "reachable_with_earliest_arrival",
    "solve_auto",
    "solve_interval_dp",
    "solve_search_tree",
    "solve_treewidth_dp",
    "static_min_vertex_cut",
]

"""temposep: minimum temporal (s,z)-separators in temporal graphs.

A temporal graph keeps its vertex set fixed while edges carry discrete time
labels; a temporal (s,z)-path traverses edges with non-decreasing labels
(strictly increasing in the strict variant).  This package decides whether
at most k vertices destroy all such paths and constructs such a separator,
via four interchangeable backends, detects membership in several temporal
graph classes, and applies class-targeted instance transformations whose
guarantees are machine-checked.

The static cut, interval DP and treewidth DP return their minimum separator
whatever the budget k (the cut is the minimum where separation collapses to
static); `solve_auto` returns a separator within k, or None.  The search tree
returns the first separator of size at most k it meets, not proven minimum.

Importing the package loads no submodule: each name in `__all__` imports its
defining submodule on first access (PEP 562), so `from temposep import
Instance` costs only the modules `Instance` needs.
"""

from importlib import import_module

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 `__getattr__` and `__dir__` for `package`, and its `__all__`.

    `exports` maps a submodule (relative to `package`) to the names it
    defines.  A name is looked up on its submodule at every access, never
    copied into the package, so it is always the submodule's current value.
    """
    table = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f".{table[name]}", package), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(import_module(package))) | set(table))

    return __getattr__, __dir__, sorted(table)


__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "classes": ("ClassProfile", "MonotoneShape", "check_order_compatible", "classify"),
        "core": ("StaticGraph", "TemporalGraph", "TimeEdge", "build", "from_layers"),
        "fileio": ("dump_tg", "load_tg"),
        "generators": (
            "GenSpec",
            "MonotoneConstraint",
            "PeriodicConstraint",
            "SteadyConstraint",
            "UnitIntervalConstraint",
            "XorShift64Star",
            "generate",
        ),
        "oracle": ("distance_to_temporality", "min_separator_bruteforce", "path_min_resets"),
        "reachability": ("Instance", "Separator", "TemporalPath", "find_temporal_path", "is_separator"),
        "solvers.auto": ("AutoResult", "solve_auto"),
        "solvers.decomposition": ("NiceTreeDecomposition", "build_tree_decomposition"),
        "solvers.interval_dp": ("solve_interval_dp",),
        "solvers.search_tree": ("solve_search_tree",),
        "solvers.static_cut": ("static_min_vertex_cut",),
        "solvers.treewidth_dp": ("solve_treewidth_dp",),
    },
)

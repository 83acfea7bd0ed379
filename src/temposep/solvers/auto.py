"""Backend dispatch from detected structure.

Order of the rules, most specific first.  A rule computes only the evidence
it reads, and only when no earlier rule fired: rule 1 `monotone_shape`,
rule 2 `periodicity`.  No other detector of `classify` runs here.

1. at most one peak in the layer sequence: the one peak layer dominates
   every other, so temporal separation equals static separation in the
   underlying graph.  Identical layers form one run with one peak, and a
   graph with no layers has none.
2. periodic with at least as many periods as vertices: any underlying
   (s,z)-path splits into at most n-1 monotone label runs, and with one
   period per run it realizes as a temporal path, so the static cut is
   exact.
3. a vertex ordering was supplied: interval DP, which validates the hint
   itself; an ordering incompatible with some layer falls through.
4. a tree decomposition was supplied and `treewidth_work_estimate`, which
   first raises DecompositionMismatch unless it fits the instance, puts the
   table cells within `DEFAULT_WORK_CAP`: treewidth DP.
5. otherwise: budget-bounded search tree.

Rules 1-4 run exact backends, each returning a minimum separator; `_exact`
turns one above k into None.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from ..classes import monotone_shape, periodicity
from ..errors import IncompatibleOrdering
from ..reachability import Instance, Separator
from .search_tree import solve_search_tree
from .static_cut import static_min_vertex_cut

if TYPE_CHECKING:
    from .decomposition import NiceTreeDecomposition

DEFAULT_WORK_CAP = 10**8


class AutoResult(NamedTuple):
    separator: Optional[Separator]  # None when nothing fits the budget
    backend: str


def _exact(sep: Separator, k: int, backend: str) -> AutoResult:
    """An exact backend's minimum separator, or None when it exceeds k."""
    return AutoResult(sep if sep.size <= k else None, backend)


def solve_auto(
    inst: Instance,
    ordering: Optional[Sequence[int]] = None,
    td: Optional[NiceTreeDecomposition] = None,
) -> AutoResult:
    """Solve the (non-strict) instance with the cheapest applicable backend.

    Each hint is checked when its rule is reached, and only then."""
    shape = monotone_shape(inst.g)
    if (shape is not None and len(shape.peaks) <= 1) or periodicity(inst.g)[1] >= inst.g.n:
        return _exact(Separator(static_min_vertex_cut(inst.g.underlying(), inst.s, inst.z)), inst.k, "static-cut")
    # The DP backends are imported by the rule that runs them.
    if ordering is not None:
        from .interval_dp import solve_interval_dp

        try:
            return _exact(solve_interval_dp(inst, ordering), inst.k, "interval-dp")
        except IncompatibleOrdering:
            pass
    if td is not None:
        from .treewidth_dp import solve_treewidth_dp, treewidth_work_estimate

        if treewidth_work_estimate(inst, td) <= DEFAULT_WORK_CAP:
            return _exact(solve_treewidth_dp(inst, td), inst.k, "treewidth-dp")
    return AutoResult(solve_search_tree(inst), "search-tree")

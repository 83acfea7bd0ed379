"""Test-only decoders: the DP tables as readable sets, and the peak reduction.

`interval_dp_table` and `treewidth_root_table` decode the integer tables the
two DP backends fill, so tests can hold each cell to a reference or to
exhaustive search.  `reduce_to_peaks` is the peak reduction rule, checked
against the oracle, and `NotMonotone` is what it raises on a graph with no
monotone shape.  No solver calls any of them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from temposep import Instance, from_layers
from temposep.classes import monotone_shape
from temposep.errors import ContractError
from temposep.solvers.decomposition import NiceTreeDecomposition
from temposep.solvers.interval_dp import _mask_table, _positions
from temposep.solvers.treewidth_dp import _fill_tables


def interval_dp_table(inst: Instance, ordering: Sequence[int]) -> tuple[list[list[frozenset[int]]], dict[int, int]]:
    """Fill the full table; returns (T, position->original-vertex map).

    T is 1-based in both dimensions: T[t][i] for t in 1..tau, i in 1..n-1,
    each entry a frozenset of positions.  The ordering is reversed when s
    comes after z, and vertices outside the s..z ordering window are left
    out; neither changes the answer.
    """
    masks, _, labels, window = _mask_table(inst, ordering)
    n = len(window)
    rows = [[_positions(m, n) for m in row] for row in masks]
    # A label without edges repeats the row of the latest label before it.
    table = [rows[bisect_right(labels, t) - 1] for t in range(inst.g.tau + 1)]
    return table, {q: v for q, v in enumerate(window, start=1)}


def treewidth_root_table(inst: Instance, td: NiceTreeDecomposition) -> dict[tuple[tuple[int, int], ...], int]:
    """Finite root entries, decoded as ((vertex, color), ...) -> separator size.

    The tables are filled with the bound n, which no mask exceeds, so every
    entry is kept.

    Color indices: i-1 for A_i, tau for S, tau+1 for Z.  For tau >= 1 only:
    at tau = 0 the S digit equals s's A_1 digit.
    """
    base = inst.g.tau + 2
    root_bag = sorted(td.nodes[td.root].bag)
    return {
        tuple((v, key // base**p % base) for p, v in enumerate(root_bag)): sep.bit_count()
        for key, sep in _fill_tables(inst, td, inst.g.n).items()
    }


class NotMonotone(ContractError):
    """Peak reduction requested on a graph with incomparable consecutive layers."""


def reduce_to_peaks(inst: Instance) -> Instance:
    """Shrink a monotone instance to its peak layers, preserving the answer.

    Every non-peak layer is a subset of an adjacent peak layer, so deleting
    it (and renumbering) changes no separator.
    """
    shape = monotone_shape(inst.g)
    if shape is None:
        raise NotMonotone("graph has an incomparable consecutive layer pair")
    sets = inst.g.layer_edge_sets
    g2 = from_layers(inst.g.n, (sets[t - 1] for t in shape.peaks))
    return Instance(g2, inst.s, inst.z, inst.k)

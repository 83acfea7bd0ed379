"""Polynomial solver for layers that are unit-interval under one ordering.

With every layer compatible with the same vertex ordering, temporal paths can
be assumed to visit vertices in ordering direction, and any separator can be
trimmed to the ordering window between the terminals.  That supports a table
T[t][i] (labels 1..tau, positions 1..n-1) holding a minimum separator for the
label prefix 1..t such that, after deleting it, nothing beyond position i is
reachable from s.

With position 1 = s and position n = z:

    T[1][1] = first-layer neighborhood of s
    T[t][1] = largest over-window larger-neighborhood of s in labels 1..t
    T[1][i] = smaller of T[1][i-1] and the layer-1 larger-neighborhood of i
    T[t][i] = min over: T[t][i-1];
              the largest larger-neighborhood of i over labels 1..t;
              T[t'][i'] + the largest larger-neighborhood of i over labels
              t'+1..t, for every t' < t and i' < i.

"Largest" breaks ties towards the smallest label; "min" orders sets by size,
then by their sorted position tuples.  The larger-neighborhood family of a
position is replaced by the infeasible sentinel (all non-terminals) whenever
that position is adjacent to z inside the label window, so the arithmetic
needs no special cases.  The answer is yes iff some |T[tau][i]| fits the
budget; that entry is the witness.

Sets of positions are int bitmasks: position q is bit n - q, so z is bit 0
and a larger-neighborhood with bit 0 set marks a label at which the position
touches z.  Between two distinct sets of equal size, the smallest position in
only one of them is the highest bit of their XOR; that set has the smaller
sorted tuple and the larger mask.  Ordering masks by (popcount, -mask)
therefore orders sets exactly as (size, sorted tuple) does.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..classes import check_order_compatible
from ..errors import IncompatibleOrdering
from ..oracle import Instance, Separator


def _mask_table(inst: Instance, ordering: Sequence[int]) -> tuple[list[list[int]], tuple[int, ...]]:
    """The table as masks, T[t][i] for t in 1..tau, i in 1..n-1, plus the window.

    window[q - 1] is the original vertex at position q.  The ordering is
    reversed when s comes after z; edges with an end outside the s..z window
    are skipped, which does not change the answer.
    """
    order = tuple(ordering)
    checked = check_order_compatible(inst.g, order)
    if not checked.ok:
        raise IncompatibleOrdering(
            f"layer {checked.violation.layer} violates indifference at positions "
            f"({checked.violation.i},{checked.violation.j},{checked.violation.k})"
        )
    index = [0] * inst.g.n
    for i, v in enumerate(order):
        index[v] = i
    lo, hi = index[inst.s], index[inst.z]
    if lo > hi:
        order = order[::-1]
        lo, hi = inst.g.n - 1 - lo, inst.g.n - 1 - hi
        index = [inst.g.n - 1 - i for i in index]
    window = order[lo : hi + 1]
    n = len(window)
    tau = inst.g.tau

    # larger[t][q]: positions above q adjacent to q at label t, as a mask.
    larger = [[0] * (n + 1) for _ in range(tau + 1)]
    for e in inst.g.edges:
        a, b = index[e.u] - lo + 1, index[e.v] - lo + 1
        if a > b:
            a, b = b, a
        if a >= 1 and b <= n:
            larger[e.t][a] |= 1 << (n - b)

    sentinel = (1 << (n - 1)) - 2  # every non-terminal position: bits 1..n-2
    table = [[0] * n for _ in range(tau + 1)]
    for t in range(1, tau + 1):
        row = table[t]
        for i in range(1, n):
            best = row[i - 1] if i > 1 else sentinel
            best_count = best.bit_count()
            # tail: the largest larger-neighborhood of i over labels a..t, a
            # running max while a walks down from t; equal sizes go to the
            # new, smaller label.  It joins T[a-1][i'] for every i' < i, or
            # stands alone at a = 1.  Once i touches z the family is the
            # sentinel for every smaller a, and the sentinel contains every
            # entry, so it never beats `best`.
            tail, tail_count = 0, -1
            for a in range(t, 0, -1):
                m = larger[a][i]
                if m & 1:
                    break
                c = m.bit_count()
                if c >= tail_count:
                    tail, tail_count = m, c
                for prev in table[a - 1][1:i] if a > 1 else (0,):
                    m = prev | tail
                    c = m.bit_count()
                    if c < best_count or (c == best_count and m > best):
                        best, best_count = m, c
            row[i] = best
    return table, window


def _positions(mask: int, n: int) -> frozenset[int]:
    return frozenset(n - b for b in range(n) if mask >> b & 1)


def interval_dp_table(inst: Instance, ordering: Sequence[int]) -> tuple[list[list[frozenset[int]]], dict[int, int]]:
    """Fill the full table; returns (T, position->original-vertex map).

    T is 1-based in both dimensions: T[t][i] for t in 1..tau, i in 1..n-1,
    each entry a frozenset of positions.  The ordering is reversed when s
    comes after z, and vertices outside the s..z ordering window are left
    out; neither changes the answer.
    """
    masks, window = _mask_table(inst, ordering)
    n = len(window)
    table = [[_positions(m, n) for m in row] for row in masks]
    return table, {q: v for q, v in enumerate(window, start=1)}


def solve_interval_dp(inst: Instance, ordering: Sequence[int]) -> Optional[Separator]:
    """A minimum separator via the ordering table, or None above budget."""
    if inst.g.tau == 0 or not inst.g.edges:
        return Separator(frozenset())
    masks, window = _mask_table(inst, ordering)
    best = min(masks[-1][1:], key=lambda m: (m.bit_count(), -m))
    if best.bit_count() > inst.k:
        return None
    return Separator(frozenset(window[q - 1] for q in _positions(best, len(window))))

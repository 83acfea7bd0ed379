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

"min" orders sets by size, then by their sorted position tuples.  The
larger-neighborhood family of a position is replaced by the infeasible
sentinel (all non-terminals) whenever that position is adjacent to z inside
the label window, so the arithmetic needs no special cases.  T[t][i] starts
from T[t][i-1], so sizes never grow along a row: T[tau][n-1] is the answer.

Sets of positions are int bitmasks: position q is bit n - q, so z is bit 0
and a larger-neighborhood with bit 0 set marks a label at which the position
touches z.  Between two distinct sets of equal size, the smallest position in
only one of them is the highest bit of their XOR; that set has the smaller
sorted tuple and the larger mask.  Ordering masks by (popcount, -mask)
therefore orders sets exactly as (size, sorted tuple) does.

The kernel rests on one fact: in a layer the ordering fits, the
larger-neighborhood of window position q is the run q+1..r_t(q).  So
equal-size neighborhoods of q are equal, and every non-empty entry T[.][i']
(a union of runs from positions <= i', or the sentinel) holds a position
<= i' + 1.  At cell i the tail, the largest larger-neighborhood of i over
labels t'+1..t, is a run from i + 1, and every candidate other than the tail
itself holds a position <= i, so the tail loses every size tie on the mask.
With popcounts stored beside the masks, the scan for T[t][i] stops early:
- i' is scanned downward from i - 1, and the first T[t'][i'] larger than the
  best so far ends the scan: every candidate further left contains a set at
  least as large.  An equal size may still win on the mask.
- the tail never shrinks as t' falls, and every candidate contains it.  Once
  it is as large as the best so far, no smaller t' can win.
(popcount, -mask) is a total order on distinct masks, so no scan order or
early exit can change a witness.  The worst case is still O(L^2 * n^2)
candidates for L labels with edges.
"""

from __future__ import annotations

from typing import Sequence

from ..classes import check_order_compatible
from ..errors import IncompatibleOrdering
from ..reachability import Instance, Separator


def _mask_table(
    inst: Instance, ordering: Sequence[int]
) -> tuple[list[list[int]], list[list[int]], list[int], tuple[int, ...]]:
    """The table as masks, their popcounts, its labels and the window.

    Row j of the table is T[labels[j]][i] for i in 1..n-1.  Row 0 is all
    zeros and stands for label 0; the others are the labels that have edges,
    in order.  An empty label t adds nothing to the recurrence, so T[t] equals
    the row of the latest label before it that has edges.

    window[q - 1] is the original vertex at position q.  The ordering is
    reversed when s comes after z; edges with an end outside the s..z window
    are skipped, which does not change the answer.
    """
    order = tuple(ordering)
    bad = check_order_compatible(inst.g, order)
    if bad is not None:
        raise IncompatibleOrdering(f"layer {bad.layer} violates indifference at positions ({bad.i},{bad.j},{bad.k})")
    lo, hi = order.index(inst.s), order.index(inst.z)
    window = order[lo : hi + 1] if lo <= hi else order[hi : lo + 1][::-1]
    n = len(window)
    pos = {v: q for q, v in enumerate(window, 1)}

    # larger[j][q]: positions above q adjacent to q at label labels[j], as a mask.
    labels, larger = [0], [[0] * (n + 1)]
    for t, pairs in inst.g.layer_pairs:
        labels.append(t)
        larger.append([0] * (n + 1))
        for u, v in pairs:
            a, b = pos.get(u, 0), pos.get(v, 0)  # 0: outside the window
            if a > b:
                a, b = b, a
            if a:
                larger[-1][a] |= 1 << (n - b)

    sentinel = (1 << (n - 1)) - 2  # every non-terminal position: bits 1..n-2
    table = [[0] * n for _ in labels]
    counts = [[0] * n for _ in labels]  # counts[j][i] == table[j][i].bit_count()
    for t in range(1, len(labels)):
        row, row_counts = table[t], counts[t]
        best, best_count = sentinel, sentinel.bit_count()  # row[i-1], or the sentinel at i = 1
        for i in range(1, n):
            # tail: the largest larger-neighborhood of i over rows a..t, a
            # running max while a walks down from t.  It joins row a-1 at
            # every i' < i, or stands alone at a = 1.  Once i touches z the
            # family is the sentinel for every smaller a, and the sentinel
            # contains every entry, so it never beats `best`.  Once tail is
            # as large as `best`, no candidate at a smaller a can win.
            tail, tail_count = 0, -1
            for a in range(t, 0, -1):
                m = larger[a][i]
                if m & 1:
                    break
                c = m.bit_count()
                if c > tail_count:
                    tail, tail_count = m, c
                if tail_count >= best_count:
                    break
                if a == 1:
                    best, best_count = tail, tail_count
                    break  # a = 1 is the last row
                prev_row, prev_counts = table[a - 1], counts[a - 1]
                # Row a-1 grows leftwards, so the first i' that outgrows
                # `best` ends the scan; an equal size may still win on the mask.
                for j in range(i - 1, 0, -1):
                    if prev_counts[j] > best_count:
                        break
                    m = prev_row[j] | tail
                    c = m.bit_count()
                    if c < best_count or (c == best_count and m > best):
                        best, best_count = m, c
            row[i], row_counts[i] = best, best_count
    return table, counts, labels, window


def _positions(mask: int, n: int) -> frozenset[int]:
    return frozenset(n - b for b in range(n) if mask >> b & 1)


def solve_interval_dp(inst: Instance, ordering: Sequence[int]) -> Separator:
    """A minimum separator via the ordering table, whatever the budget."""
    masks, _, _, window = _mask_table(inst, ordering)
    return Separator(frozenset(window[q - 1] for q in _positions(masks[-1][-1], len(window))))

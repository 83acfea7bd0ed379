"""The interval DP table on frozensets, a test-side reference for the bitmask kernel.

This is the straightforward form of the recurrence in
`temposep.solvers.interval_dp`: the s..z ordering window becomes its own
graph through `delete_vertices`, every table entry is a frozenset of window
positions, the larger-neighborhood family of a position over a label window is
rescanned for every query, and each minimum compares an explicit candidate
list by (size, sorted tuple).  `interval_dp_table` must agree with it on every
cell.

`full_scan_mask_table` is the bitmask kernel before its early exits: for
every cell it builds every candidate T[a-1][i'] | tail, a <= t and i' < i.
`_mask_table` must agree with it on every mask, at sizes where the exits fire.
"""

from __future__ import annotations

from typing import Sequence

from temposep.classes import check_order_compatible
from temposep.errors import IncompatibleOrdering
from temposep.oracle import Instance


def _set_key(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def reference_interval_dp_table(
    inst: Instance, ordering: Sequence[int]
) -> tuple[list[list[frozenset[int]]], dict[int, int]]:
    """(T, position->original-vertex map), shaped like `interval_dp_table`."""
    order = tuple(ordering)
    bad = check_order_compatible(inst.g, order)
    if bad is not None:
        raise IncompatibleOrdering(f"layer {bad.layer} violates indifference at positions ({bad.i},{bad.j},{bad.k})")
    pos = {v: i for i, v in enumerate(order)}
    if pos[inst.s] > pos[inst.z]:
        order = tuple(reversed(order))
        pos = {v: i for i, v in enumerate(order)}
    window = [order[i] for i in range(pos[inst.s], pos[inst.z] + 1)]
    keep = set(window)
    g, remap = inst.g.delete_vertices(v for v in range(inst.g.n) if v not in keep)
    back = {new: old for old, new in remap.items()}

    # Position q (1-based) holds the window vertex with new id by_pos[q].
    by_pos = [None] + [remap[v] for v in window]
    pos_of = {vid: q for q, vid in enumerate(by_pos) if vid is not None}
    n = len(window)
    tau = g.tau
    to_original = {q: back[by_pos[q]] for q in range(1, n + 1)}

    larger: list[list[frozenset[int]]] = [[frozenset()] * (n + 1) for _ in range(tau + 1)]
    z_labels: list[set[int]] = [set() for _ in range(n + 1)]
    for t in range(1, tau + 1):
        adj: dict[int, set[int]] = {}
        for u, v in g.layer_edge_sets[t - 1]:
            qu, qv = pos_of[u], pos_of[v]
            adj.setdefault(qu, set()).add(qv)
            adj.setdefault(qv, set()).add(qu)
        for q in range(1, n + 1):
            nbrs = adj.get(q, set())
            larger[t][q] = frozenset(w for w in nbrs if w > q)
            if n in nbrs:
                z_labels[q].add(t)

    sentinel = frozenset(range(2, n))  # every non-terminal position

    def best_nbhd(q: int, a: int, b: int) -> frozenset[int]:
        """argmax by size over the window family; ties to the smallest label."""
        if any(t in z_labels[q] for t in range(a, b + 1)):
            return sentinel
        best = larger[a][q]
        for t in range(a + 1, b + 1):
            if len(larger[t][q]) > len(best):
                best = larger[t][q]
        return best

    table: list[list[frozenset[int]]] = [[frozenset()] * n for _ in range(tau + 1)]
    for t in range(1, tau + 1):
        table[t][1] = best_nbhd(1, 1, t)
    for i in range(2, n):
        table[1][i] = min((table[1][i - 1], best_nbhd(i, 1, 1)), key=_set_key)
    for t in range(2, tau + 1):
        for i in range(2, n):
            candidates = [table[t][i - 1], best_nbhd(i, 1, t)]
            for t_prev in range(1, t):
                tail = best_nbhd(i, t_prev + 1, t)
                for i_prev in range(1, i):
                    candidates.append(table[t_prev][i_prev] | tail)
            table[t][i] = min(candidates, key=_set_key)
    return table, to_original


def full_scan_mask_table(
    inst: Instance, ordering: Sequence[int]
) -> tuple[list[list[int]], list[int], tuple[int, ...]]:
    """The bitmask table with every candidate scanned: (masks, labels, window),
    shaped like the first, third and fourth parts of `_mask_table`.

    This is the bitmask kernel without its early exits, kept as a reference.

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
    for t, u, v in inst.g.edges:  # sorted by label
        if t != labels[-1]:
            labels.append(t)
            larger.append([0] * (n + 1))
        a, b = pos.get(u, 0), pos.get(v, 0)  # 0: outside the window
        if a > b:
            a, b = b, a
        if a:
            larger[-1][a] |= 1 << (n - b)

    sentinel = (1 << (n - 1)) - 2  # every non-terminal position: bits 1..n-2
    table = [[0] * n for _ in labels]
    for t in range(1, len(labels)):
        row = table[t]
        for i in range(1, n):
            best = row[i - 1] if i > 1 else sentinel
            best_count = best.bit_count()
            # tail: the largest larger-neighborhood of i over rows a..t, a
            # running max while a walks down from t; equal sizes go to the
            # new, smaller label.  It joins row a-1 at every i' < i, or
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
    return table, labels, window

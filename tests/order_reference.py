"""The plain triple scan for order compatibility, a test-side reference.

For every edge (i, k) of a layer, in sorted position order, it tests each
middle position j for the edges (i, j) and (j, k), and reports the first
triple that misses one, or None.  `check_order_compatible` must return
exactly what this scan returns.
"""

from __future__ import annotations

from typing import Optional

from temposep.classes import OrderViolation
from temposep.core import TemporalGraph


def scan_order_compatible(g: TemporalGraph, ordering: tuple[int, ...]) -> Optional[OrderViolation]:
    pos = {v: i for i, v in enumerate(ordering)}
    for t_idx, pairs in enumerate(g.layer_edge_sets):
        by_pos = {tuple(sorted((pos[u], pos[v]))) for u, v in pairs}
        for i, k in sorted(by_pos):
            for j in range(i + 1, k):
                if (i, j) not in by_pos or (j, k) not in by_pos:
                    return OrderViolation(t_idx + 1, i, j, k)
    return None

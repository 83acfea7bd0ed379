"""Window connectivity by intersecting every window, a test-side reference.

For each window length from 1 to tau it intersects the edge sets of every
window of that length, and returns one less than the first length with a
disconnected intersection.  `classes._detect_interval_connected` must return
exactly what this does.
"""

from __future__ import annotations

from temposep.core import TemporalGraph, is_connected


def all_windows_interval_connected(g: TemporalGraph) -> int:
    sets = g.layer_edge_sets
    for window in range(1, g.tau + 1):
        starts = range(g.tau - window + 1)
        if not all(is_connected(g.n, frozenset.intersection(*sets[a : a + window])) for a in starts):
            return window - 1
    return g.tau

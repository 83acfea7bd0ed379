import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from static_cut_reference import split_network_cut
from strategies import static_graph

from temposep import static_min_vertex_cut
from temposep.core import StaticGraph
from temposep.errors import TerminalsAdjacent
from temposep.generators import GenSpec, PeriodicConstraint, generate


def test_four_cycle():
    g = static_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert sorted(static_min_vertex_cut(g, 0, 2)) == [1, 3]


def test_path_has_unique_cut_vertex():
    g = static_graph(3, [(0, 1), (1, 2)])
    assert sorted(static_min_vertex_cut(g, 0, 2)) == [1]


def test_disconnected_terminals():
    g = static_graph(4, [(0, 1), (2, 3)])
    assert static_min_vertex_cut(g, 0, 3) == frozenset()


def test_adjacent_terminals_rejected():
    g = static_graph(2, [(0, 1)])
    with pytest.raises(TerminalsAdjacent):
        static_min_vertex_cut(g, 0, 1)


def _s_side(g: StaticGraph, s: int, cut) -> frozenset[int]:
    """The vertices s reaches once the cut is deleted."""
    blocked = set(cut)
    seen, stack = {s}, [s]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in blocked and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def _separates(g: StaticGraph, s: int, z: int, cut) -> bool:
    return z not in _s_side(g, s, cut)


def _brute_min_cut_size(g: StaticGraph, s: int, z: int) -> int:
    others = [v for v in range(g.n) if v not in (s, z)]
    for size in range(len(others) + 1):
        if any(_separates(g, s, z, sub) for sub in combinations(others, size)):
            return size
    raise AssertionError


def _vertex_disjoint_path_count(g: StaticGraph, s: int, z: int) -> int:
    """max number of internally vertex-disjoint (s,z)-paths, by exhaustion."""
    best = 0

    def paths_from(used: frozenset, count: int):
        nonlocal best
        best = max(best, count)
        found = []

        # enumerate one more simple path avoiding `used`, then try each
        def walk(cur, visited):
            if cur == z:
                found.append(frozenset(visited) - {s, z})
                return
            for w in sorted(g.adjacency[cur]):
                if w not in visited and w not in used:
                    walk(w, visited | {w})

        walk(s, {s})
        for interior in found:
            paths_from(used | interior, count + 1)

    paths_from(frozenset(), 0)
    return best


@st.composite
def small_static(draw):
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, n - 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return static_graph(n, chosen)


@given(small_static())
@settings(max_examples=60, deadline=None)
def test_cut_is_minimum_and_separating(g):
    cut = static_min_vertex_cut(g, 0, g.n - 1)
    assert _separates(g, 0, g.n - 1, cut)
    assert len(cut) == _brute_min_cut_size(g, 0, g.n - 1)


@given(small_static())
@settings(max_examples=25, deadline=None)
def test_duality_with_disjoint_paths(g):
    if len(g.edges) > 12:  # keep the exhaustive path packing tractable
        return
    cut = static_min_vertex_cut(g, 0, g.n - 1)
    assert len(cut) == _vertex_disjoint_path_count(g, 0, g.n - 1)


@given(small_static())
@settings(max_examples=80, deadline=None)
def test_cut_is_the_source_side_minimal_minimum_cut(g):
    s, z = 0, g.n - 1
    cut = static_min_vertex_cut(g, s, z)
    side = _s_side(g, s, cut)
    others = [v for v in range(g.n) if v not in (s, z)]
    for other in combinations(others, len(cut)):
        if _separates(g, s, z, other):
            assert side <= _s_side(g, s, other)


@st.composite
def terminal_cases(draw):
    """(graph, s, z) with s and z anywhere, non-adjacent; edges are drawn
    from a random subset of the vertices, so a terminal may be isolated and
    the terminals may lie in different components."""
    n = draw(st.integers(2, 12))
    s, z = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    live = draw(st.sets(st.integers(0, n - 1)))
    pairs = [(u, v) for u in sorted(live) for v in sorted(live) if u < v and {u, v} != {s, z}]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return static_graph(n, chosen), s, z


@given(terminal_cases())
@settings(max_examples=400, deadline=None)
def test_same_cut_as_the_split_network(case):
    g, s, z = case
    assert static_min_vertex_cut(g, s, z) == split_network_cut(g, s, z)


def test_cut_work_is_not_sized_by_the_declared_vertex_count():
    g = StaticGraph(10**6, frozenset({(0, 1), (1, 2)}))
    tracemalloc.start()
    try:
        cut = static_min_vertex_cut(g, 0, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cut == frozenset({1})
    assert peak < 2**20


# Seeded generator graphs whose underlying cuts are pinned in GOLDEN: general
# sparse layers and identical layers, n from 20 to 400, three terminal pairs.
# To re-record after an intended output change:
#     PYTHONPATH=src:tests python -c "import test_solvers_static_cut as t; t.record()"
GOLDEN = Path(__file__).parent / "golden" / "static_cut_witnesses.txt"

GOLDEN_CORPUS = [
    GenSpec(n=n, tau=2 + j % 3, edge_prob=(2.0 + j % 4) / n, seed=1100 + j)
    for j, n in enumerate(range(20, 401, 20))
] + [
    GenSpec(n=n, tau=3, edge_prob=(3.0 + j % 3) / n, constraint=PeriodicConstraint(1, 3), seed=1200 + j)
    for j, n in enumerate(range(40, 401, 40))
]


def _golden_lines() -> list[str]:
    lines = []
    for j, spec in enumerate(GOLDEN_CORPUS):
        g = generate(spec).g.underlying()
        n = g.n
        for s, z in ((0, n - 1), (1, n // 2), (n // 3, 2 * n // 3)):
            label = f"cut g-{j:02d} n={n} m={len(g.edges)} s={s} z={z}"
            if g.has_edge(s, z):
                lines.append(f"{label} terminals-adjacent")
            else:
                cut = sorted(static_min_vertex_cut(g, s, z))
                lines.append(f"{label} size={len(cut)} " + (",".join(map(str, cut)) or "-"))
    return lines


def transcript() -> str:
    return "\n".join(_golden_lines()) + "\n"


def record() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="ascii")


def test_cuts_match_golden():
    assert transcript() == GOLDEN.read_text(encoding="ascii")

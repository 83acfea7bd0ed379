from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import instance_graphs, small_graphs

from temposep import (
    Instance,
    build,
    distance_to_temporality,
    is_separator,
    min_separator_bruteforce,
    path_min_resets,
)
from temposep.errors import (
    NotAPath,
    OracleScaleError,
    TerminalEdgePresent,
    TerminalInSeparator,
)


class TestInstance:
    def test_rejects_terminal_time_edge(self):
        g = build(3, 1, [(0, 2, 1)])
        with pytest.raises(TerminalEdgePresent):
            Instance(g=g, s=0, z=2, k=1)

    def test_rejects_equal_terminals(self, g1):
        with pytest.raises(Exception):
            Instance(g=g1, s=1, z=1, k=0)


class TestIsSeparator:
    def test_vertex_one_separates_g1(self, g1_inst):
        assert is_separator(g1_inst, {1})

    def test_empty_does_not_separate_g1(self, g1_inst):
        assert not is_separator(g1_inst, set())

    def test_terminal_in_candidate(self, g1_inst):
        with pytest.raises(TerminalInSeparator):
            is_separator(g1_inst, {0})


class TestBruteForce:
    def test_g1_minimum(self, g1_inst):
        assert min_separator_bruteforce(g1_inst).sorted() == [1]

    def test_no_path_gives_empty(self, g2_inst):
        assert min_separator_bruteforce(g2_inst).sorted() == []

    def test_complete_but_one_on_four_vertices(self):
        g = build(4, 1, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
        inst = Instance(g=g, s=0, z=3, k=2)
        assert min_separator_bruteforce(inst).sorted() == [1, 2]

    def test_scale_guard(self):
        g = build(25, 1, [])
        with pytest.raises(OracleScaleError):
            min_separator_bruteforce(Instance(g=g, s=0, z=24, k=0))

    @given(instance_graphs(max_n=6, max_tau=3))
    @settings(max_examples=80)
    def test_minimum_is_separating_and_tight(self, g):
        inst = Instance(g=g, s=0, z=g.n - 1, k=0)
        best = min_separator_bruteforce(inst)
        assert is_separator(inst, best.vertices)
        # No strictly smaller subset separates: full enumeration one size down.
        from itertools import combinations

        others = [v for v in range(g.n) if v not in (0, g.n - 1)]
        if best.size > 0:
            assert not any(
                is_separator(inst, sub) for sub in combinations(others, best.size - 1)
            )

    @given(instance_graphs(max_n=6, max_tau=3))
    @settings(max_examples=60)
    def test_strict_minimum_never_larger(self, g):
        inst = Instance(g=g, s=0, z=g.n - 1, k=0)
        assert min_separator_bruteforce(inst, strict=True).size <= min_separator_bruteforce(inst).size


def exhaustive_min_resets(labels_along: list[tuple[int, ...]]) -> int:
    """Try every realization; resets = number of strict label descents."""
    best = None
    for choice in product(*labels_along):
        resets = sum(1 for a, b in zip(choice, choice[1:]) if b < a)
        best = resets if best is None else min(best, resets)
    return best


class TestPathMinResets:
    def test_path_0_1_3_in_g1(self, g1):
        assert path_min_resets(g1, [0, 1, 3]) == 0

    def test_path_0_2_3_in_g1(self, g1):
        assert path_min_resets(g1, [0, 2, 3]) == 1

    def test_single_edge(self, g1):
        assert path_min_resets(g1, [0, 1]) == 0

    def test_not_a_path(self, g1):
        with pytest.raises(NotAPath):
            path_min_resets(g1, [0, 3])
        with pytest.raises(NotAPath):
            path_min_resets(g1, [0, 1, 0])
        with pytest.raises(NotAPath, match="empty vertex sequence"):
            path_min_resets(g1, [])

    @given(
        st.lists(st.sets(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=6)
    )
    @settings(max_examples=300)
    def test_greedy_matches_exhaustive(self, label_sets):
        # A fixed path 0-1-2-...-L with the drawn label sets on its edges.
        n = len(label_sets) + 1
        triples = [
            (i, i + 1, t) for i, labels in enumerate(label_sets) for t in labels
        ]
        g = build(n, 3, triples)
        path = list(range(n))
        assert path_min_resets(g, path) == exhaustive_min_resets(
            [tuple(sorted(s)) for s in label_sets]
        )


class TestDistanceToTemporality:
    def test_g1(self, g1):
        assert distance_to_temporality(g1, 0, 3) == 1

    def test_constant_labels_give_zero(self):
        g = build(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 1)])
        assert distance_to_temporality(g, 0, 3) == 0

    def test_disconnected_terminals(self):
        g = build(4, 2, [(0, 1, 1)])
        assert distance_to_temporality(g, 0, 3) == 0

    @given(small_graphs(max_n=7, max_tau=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_permutation_reference(self, g, data):
        s, z = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        others = [v for v in range(g.n) if v not in (s, z)]
        edges = g.edge_labels.keys()
        resets = [
            path_min_resets(g, p)
            for size in range(len(others) + 1)
            for middle in permutations(others, size)
            for p in [(s, *middle, z)]
            if all((min(a, b), max(a, b)) in edges for a, b in zip(p, p[1:]))
        ]
        assert distance_to_temporality(g, s, z) == max(resets, default=0)

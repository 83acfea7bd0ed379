import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temposep import Instance, build, find_temporal_path, reachability
from temposep.errors import TerminalInSeparator, VertexOutOfRange
from temposep.core import StaticGraph
from temposep.oracle import min_separator_bruteforce, temporal_path_exists_exhaustive
from temposep.reachability import UNREACHED, PathStep, TemporalPath, _sweep, is_separator, is_valid_path, separates
from temposep.solvers.static_cut import static_min_vertex_cut

from expansion import build_expansion
from strategies import instance_graphs, reachable_with_earliest_arrival, small_graphs


class TestFindPath:
    def test_g1_witness(self, g1):
        path = find_temporal_path(g1, 0, 3)
        assert [(st.frm, st.to, st.t) for st in path.steps] == [(0, 1, 1), (1, 3, 2)]

    def test_g2_absent(self, g2):
        assert find_temporal_path(g2, 0, 3) is None

    def test_strictness_forbids_equal_labels(self):
        g = build(3, 1, [(0, 1, 1), (1, 2, 1)])
        assert find_temporal_path(g, 0, 2, strict=True) is None
        relaxed = find_temporal_path(g, 0, 2, strict=False)
        assert [st.t for st in relaxed.steps] == [1, 1]

    def test_witness_is_deterministic(self, g1):
        a = find_temporal_path(g1, 0, 3)
        b = find_temporal_path(g1, 0, 3)
        assert a == b

    @given(small_graphs())
    @settings(max_examples=120)
    def test_agrees_with_exhaustive_enumeration(self, g):
        for strict in (False, True):
            got = find_temporal_path(g, 0, g.n - 1, strict)
            expected = temporal_path_exists_exhaustive(g, 0, g.n - 1, strict)
            assert (got is not None) == expected
            if got is not None:
                assert is_valid_path(g, got, 0, g.n - 1, strict)

    @given(small_graphs(max_n=5))
    @settings(max_examples=60)
    def test_adding_an_edge_never_disconnects(self, g):
        reachable_before = set(reachable_with_earliest_arrival(g, 0))
        missing = [
            (u, v, t)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            for t in range(1, g.tau + 1)
            if t not in g.edge_labels.get((u, v), ())
        ]
        if not missing:
            return
        g2 = build(g.n, g.tau, g.raw_triples() + [missing[0]])
        assert reachable_before <= set(reachable_with_earliest_arrival(g2, 0))


class TestBlocked:
    @given(small_graphs(max_n=8, max_tau=4), st.sets(st.integers(1, 6)))
    @settings(max_examples=150)
    def test_mask_matches_deletion_step_for_step(self, g, drop):
        s, z = 0, g.n - 1
        blocked = frozenset(v for v in drop if v < z)
        reduced, remap = g.delete_vertices(blocked)
        back = {new: old for old, new in remap.items()}
        for strict in (False, True):
            deleted = find_temporal_path(reduced, remap[s], remap[z], strict)
            expected = None
            if deleted is not None:
                expected = TemporalPath(tuple(PathStep(back[a], back[b], t) for a, b, t in deleted.steps))
            assert find_temporal_path(g, s, z, strict, blocked) == expected

    @given(small_graphs(max_n=8, max_tau=4), st.sets(st.integers(1, 6)), st.booleans())
    @settings(max_examples=200)
    def test_early_stop_returns_the_full_sweeps_path(self, g, drop, strict):
        s, z = 0, g.n - 1
        blocked = frozenset(v for v in drop if v < z)
        arrival, pred = _sweep(g, s, strict, blocked)  # every label, no stop at z
        expected = None
        if arrival[z] != UNREACHED:
            steps, cur = [], z
            while cur != s:
                prv, t = pred[cur]
                steps.append(PathStep(prv, cur, t))
                cur = prv
            expected = TemporalPath(tuple(reversed(steps)))
        assert find_temporal_path(g, s, z, strict, blocked) == expected

    @given(small_graphs(max_n=8, max_tau=4), st.sets(st.integers(1, 6)), st.booleans())
    @settings(max_examples=200)
    def test_separates_answers_as_the_sweep(self, g, drop, strict):
        s, z = 0, g.n - 1
        blocked = frozenset(v for v in drop if v < z)
        assert separates(g, s, z, blocked, strict) == (find_temporal_path(g, s, z, strict, blocked) is None)

    def test_separates_sweeps_when_the_underlying_graph_stays_joined(self):
        # 0-1-2 runs backwards in time, 0-3-2 forwards.
        g = build(4, 2, [(0, 1, 2), (1, 2, 1), (0, 3, 1), (2, 3, 1)])
        assert not separates(g, 0, 2, frozenset())
        assert separates(g, 0, 2, frozenset({3}))  # joined underneath, not in time
        assert separates(g, 0, 2, frozenset({1, 3}))  # cut underneath

    def test_separates_sweeps_without_extracting_a_path(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("separates asked for a path")

        monkeypatch.setattr(reachability, "find_temporal_path", no_path)
        g = build(4, 2, [(0, 1, 2), (1, 2, 1), (0, 3, 1), (2, 3, 1)])
        assert not separates(g, 0, 2, frozenset())
        assert separates(g, 0, 2, frozenset({3}))

    @pytest.mark.parametrize(
        "blocked, error",
        [({0}, TerminalInSeparator), ({1, 3}, TerminalInSeparator), ({4}, VertexOutOfRange), ({-1}, VertexOutOfRange)],
    )
    def test_invalid_mask_is_rejected(self, g1, blocked, error):
        with pytest.raises(error):
            find_temporal_path(g1, 0, 3, blocked=blocked)
        with pytest.raises(error):
            separates(g1, 0, 3, frozenset(blocked))


class TestWalkLabels:
    @given(small_graphs(max_n=8, max_tau=4), st.sets(st.integers(0, 7)), st.booleans())
    @settings(max_examples=200)
    def test_reversed_sweep_is_the_forward_sweep_of_the_time_reversed_graph(self, g, drop, strict):
        z = g.n - 1
        blocked = frozenset(v for v in drop if v < z)
        flipped = build(g.n, g.tau, [(u, v, g.tau + 1 - t) for t, u, v in g.edges])
        assert _sweep(g, z, strict, blocked, reverse=True) == _sweep(flipped, z, strict, blocked)

    @given(instance_graphs(max_n=8, max_tau=4, min_n=3), st.sets(st.integers(1, 6)))
    @settings(max_examples=200)
    def test_pruned_graph_has_the_same_paths_under_any_deletion(self, g, drop):
        s, z = 0, g.n - 1
        inst = Instance(g, s, z, 0)
        walk, arr = inst.walk_labels, inst.arrival
        assert all(labels and set(labels) <= set(g.edge_labels[pair]) for pair, labels in walk.items())
        # What the treewidth DP rests on: no kept label precedes either end's
        # arrival, and nothing is kept exactly when z is unreachable.
        assert all(arr[u] <= t and arr[v] <= t for (u, v), labels in walk.items() for t in labels)
        assert (not walk) == (arr[z] == UNREACHED)
        pruned = build(g.n, g.tau, [(u, v, t) for (u, v), labels in walk.items() for t in labels])
        blocked = frozenset(v for v in drop if v < z)
        found = find_temporal_path(pruned, s, z, blocked=blocked)
        assert (found is None) == (find_temporal_path(g, s, z, blocked=blocked) is None)
        assert found is None or is_valid_path(g, found, s, z)

    @given(instance_graphs(max_n=8, max_tau=4, min_n=3))
    @settings(max_examples=150)
    def test_static_cut_of_the_pruned_graph_separates_the_input(self, g):
        inst = Instance(g, 0, g.n - 1, g.n)
        cut = static_min_vertex_cut(StaticGraph(g.n, frozenset(inst.walk_labels)), inst.s, inst.z)
        assert is_separator(inst, cut)
        assert len(cut) >= min_separator_bruteforce(inst).size


class TestEarliestArrival:
    def test_g1(self, g1):
        assert reachable_with_earliest_arrival(g1, 0) == {0: 0, 1: 1, 2: 2, 3: 2}

    def test_edgeless(self):
        g = build(3, 1, [])
        assert reachable_with_earliest_arrival(g, 0) == {0: 0}

    def test_g2_partial(self, g2):
        assert reachable_with_earliest_arrival(g2, 0) == {0: 0, 1: 2}

    @given(small_graphs(max_n=5))
    @settings(max_examples=60)
    def test_arrival_is_minimum_over_enumerated_paths(self, g):
        from temposep.oracle import enumerate_temporal_paths

        got = reachable_with_earliest_arrival(g, 0)
        for v in range(1, g.n):
            arrivals = [p[-1][2] for p in enumerate_temporal_paths(g, 0, v)]
            if arrivals:
                assert got[v] == min(arrivals)
            else:
                assert v not in got


class TestExpansion:
    def test_g1_node_and_column_counts(self, g1):
        exp = build_expansion(g1, 0, 3)
        assert len(exp.nodes) == 6  # source, sink, two labels each for vertices 1 and 2
        assert len(exp.column_arcs) == 2

    def test_single_active_label_has_no_column_arcs(self):
        g = build(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        exp = build_expansion(g, 0, 3)
        assert len(exp.column_arcs) == 0

    def test_edgeless_expansion(self):
        g = build(3, 2, [])
        exp = build_expansion(g, 0, 2)
        assert len(exp.nodes) == 2
        assert exp.all_arcs() == ()

    @given(small_graphs())
    @settings(max_examples=100)
    def test_size_invariants(self, g):
        exp = build_expansion(g, 0, g.n - 1)
        active = {}
        for e in g.edges:
            for v in (e.u, e.v):
                if v not in (0, g.n - 1):
                    active.setdefault(v, set()).add(e.t)
        assert len(exp.nodes) == 2 + sum(len(ts) for ts in active.values())
        assert len(exp.nodes) <= 2 + 2 * len(g.edges)
        assert len(exp.column_arcs) == sum(max(0, len(ts) - 1) for ts in active.values())

    @given(small_graphs())
    @settings(max_examples=100)
    def test_expansion_reachability_matches_sweep(self, g):
        for strict in (False, True):
            exp = build_expansion(g, 0, g.n - 1, strict)
            assert exp.has_sz_path() == (find_temporal_path(g, 0, g.n - 1, strict) is not None)


def test_terminal_validation(g1):
    with pytest.raises(Exception):
        find_temporal_path(g1, 0, 0)
    with pytest.raises(Exception):
        build_expansion(g1, 0, 9)


# s = 0, z = 4; 0-1-2-4 runs at labels 1,1,1 and at 1,2,2.
CHECK_GRAPH = build(5, 3, [(0, 1, 1), (1, 2, 1), (1, 2, 2), (2, 4, 1), (2, 4, 2), (1, 4, 3)])


@pytest.mark.parametrize(
    "steps",
    [
        [],
        [(1, 2, 2), (2, 4, 2)],
        [(0, 1, 1), (1, 2, 2)],
        [(0, 1, 1), (1, 2, 1), (2, 1, 2), (1, 4, 3)],
        [(0, 1, 2), (1, 4, 3)],
        [(0, 1, 1), (2, 4, 2)],
        [(0, 1, 1), (1, 2, 2), (2, 4, 1)],
    ],
    ids=["empty", "wrong-first", "wrong-last", "repeated-vertex", "missing-label", "unchained", "decreasing"],
)
def test_malformed_paths_are_rejected(steps):
    path = TemporalPath(tuple(PathStep(*step) for step in steps))
    assert not is_valid_path(CHECK_GRAPH, path, 0, 4)


def test_equal_labels_pass_only_non_strict():
    path = TemporalPath((PathStep(0, 1, 1), PathStep(1, 2, 1), PathStep(2, 4, 1)))
    assert is_valid_path(CHECK_GRAPH, path, 0, 4)
    assert not is_valid_path(CHECK_GRAPH, path, 0, 4, strict=True)


def test_empty_path_visits_no_vertex():
    assert TemporalPath(()).vertices() == []

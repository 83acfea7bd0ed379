import pytest
from decoders import NotMonotone, reduce_to_peaks
from hypothesis import given, settings
from hypothesis import strategies as st
from order_reference import scan_order_compatible
from strategies import indifference_graphs, instance_graphs, power, small_graphs
from window_reference import all_windows_interval_connected

from temposep import (
    Instance,
    build,
    check_order_compatible,
    classify,
    from_layers,
    min_separator_bruteforce,
)
from temposep.classes import OrderViolation, periodicity
from temposep.errors import NotAPermutation
from temposep.generators import GenSpec, MonotoneConstraint, generate

A = [(0, 1), (1, 3)]
E_EXTRA = (0, 2)


class TestClassify:
    def test_bump_is_two_monotone_single_peak(self):
        g = from_layers(4, [A, A + [E_EXTRA], A])
        profile = classify(g)
        assert profile.monotone.p == 2
        assert profile.monotone.peaks == (2,)
        assert profile.steady_lambda == 1

    def test_alternating_layers_are_periodic(self):
        b = [(1, 2)]
        g = from_layers(4, [A, b, A, b])
        profile = classify(g)
        assert (profile.periodic_p, profile.periodic_r) == (2, 2)
        assert profile.monotone is None  # A and b are incomparable

    def test_edge_disjoint_spanning_trees_have_window_one(self):
        t1 = [(0, 1), (1, 2), (2, 3)]
        t2 = [(0, 2), (0, 3), (1, 3)]
        g = from_layers(4, [t1, t2])
        profile = classify(g)
        assert profile.interval_connected_max_t == 1

    def test_disconnected_layer_gives_zero_window(self, g1):
        assert classify(g1).interval_connected_max_t == 0

    def test_single_layer_is_single_peaked(self):
        g = from_layers(3, [[(0, 1)]])
        profile = classify(g)
        assert profile.monotone.p == 1 and profile.monotone.peaks == (1,)

    def test_equal_layers_never_create_extra_peaks(self):
        g = from_layers(4, [A, A, A + [E_EXTRA], A + [E_EXTRA], A, A])
        profile = classify(g)
        assert profile.monotone.p == 2
        assert profile.monotone.peaks == (3,)

    def test_falling_then_rising_has_two_peaks(self):
        g = from_layers(4, [A + [E_EXTRA], A, A + [E_EXTRA]])
        profile = classify(g)
        assert profile.monotone.p == 2
        assert profile.monotone.peaks == (1, 3)

    def test_period_of_sparse_labels_is_tau(self, sparse_labels):
        assert periodicity(sparse_labels) == (250000, 1)

    def test_steady_zero_for_single_layer(self):
        assert classify(from_layers(3, [[(0, 1)]])).steady_lambda == 0

    @given(small_graphs())
    @settings(max_examples=80)
    def test_periodic_reconstruction_round_trips(self, g):
        profile = classify(g)
        block = build(
            g.n,
            profile.periodic_p,
            [t for t in g.raw_triples() if t[2] <= profile.periodic_p],
        )
        assert power(block, profile.periodic_r) == g

    @given(small_graphs(max_n=5, max_tau=3))
    @settings(max_examples=60)
    def test_single_extra_edge_moves_lambda_by_at_most_two(self, g):
        base = classify(g).steady_lambda
        missing = [
            (u, v, t)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            for t in range(1, g.tau + 1)
            if t not in g.edge_labels.get((u, v), ())
        ]
        for extra in missing[:4]:
            bumped = classify(build(g.n, g.tau, g.raw_triples() + [extra])).steady_lambda
            assert abs(bumped - base) <= 2

    @given(st.data())
    @settings(max_examples=300)
    def test_window_sweep_matches_all_windows(self, data):
        # Each layer keeps any subset of the pairs; at n <= 5 connected layers are common.
        n = data.draw(st.integers(1, 5))
        tau = data.draw(st.integers(0, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        layers = [[e for e, kept in zip(pairs, data.draw(keep)) if kept] for _ in range(tau)]
        g = from_layers(n, layers)
        assert classify(g).interval_connected_max_t == all_windows_interval_connected(g)


class TestReduceToPeaks:
    def test_single_peak_collapses_to_union(self):
        g = from_layers(4, [A, A + [E_EXTRA], A])
        inst = Instance(g=g, s=0, z=3, k=1)
        out = reduce_to_peaks(inst)
        assert out.g.tau == 1
        assert out.g.layer_edge_sets[0] == frozenset(A + [E_EXTRA])

    def test_two_peaks(self):
        f_extra = (2, 3)
        g = from_layers(4, [A, A + [E_EXTRA], A, A + [f_extra], A])
        out = reduce_to_peaks(Instance(g=g, s=0, z=3, k=1))
        assert out.g.tau == 2
        assert out.g.layer_edge_sets[0] == frozenset(A + [E_EXTRA])
        assert out.g.layer_edge_sets[1] == frozenset(A + [f_extra])

    def test_single_layer_unchanged(self):
        g = from_layers(3, [[(0, 1)]])
        inst = Instance(g=g, s=0, z=2, k=0)
        assert reduce_to_peaks(inst).g == g

    def test_not_monotone_rejected(self):
        g = from_layers(4, [A, [(1, 2)]])
        with pytest.raises(NotMonotone):
            reduce_to_peaks(Instance(g=g, s=0, z=3, k=0))

    @pytest.mark.parametrize("seed", range(200))
    def test_equivalence_on_generated_monotone_instances(self, seed):
        tau = 3 + seed % 4
        spec = GenSpec(
            n=4 + seed % 4,
            tau=tau,
            edge_prob=0.35,
            constraint=MonotoneConstraint(1 + seed % min(3, tau - 1)),
            seed=seed + 100,
        )
        inst = generate(spec)
        out = reduce_to_peaks(inst)
        assert out.g.tau <= len(classify(inst.g).monotone.peaks)
        assert (
            min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size
        )


class TestOrderCompatibility:
    def test_path_layers_along_the_path(self):
        g = from_layers(4, [[(0, 1), (1, 2), (2, 3)], [(1, 2)]])
        assert check_order_compatible(g, (0, 1, 2, 3)) is None

    def test_violation_positions(self):
        g = from_layers(3, [[(0, 2)]])  # edge between extremes, middle not attached
        assert check_order_compatible(g, (0, 1, 2)) == OrderViolation(layer=1, i=0, j=1, k=2)

    def test_edgeless_vacuous(self):
        g = build(4, 2, [])
        assert check_order_compatible(g, (3, 1, 0, 2)) is None

    def test_not_a_permutation(self, g1):
        with pytest.raises(NotAPermutation):
            check_order_compatible(g1, (0, 1, 2, 2))

    @given(small_graphs(max_n=7, max_tau=3), st.data())
    @settings(max_examples=150)
    def test_matches_triple_scan_on_random_orderings(self, g, data):
        shuffled = tuple(data.draw(st.permutations(range(g.n))))
        for ordering in (shuffled, shuffled[::-1], tuple(range(g.n))):
            assert check_order_compatible(g, ordering) == scan_order_compatible(g, ordering)

    @given(indifference_graphs(), st.data())
    @settings(max_examples=150)
    def test_matches_triple_scan_on_compatible_orderings(self, case, data):
        g, ordering = case
        for order in (ordering, ordering[::-1]):
            assert check_order_compatible(g, order) is None
            assert scan_order_compatible(g, order) is None
        # Toggling one time-edge usually breaks compatibility somewhere.
        u, v = sorted(data.draw(st.permutations(range(g.n)))[:2])
        t = data.draw(st.integers(1, g.tau))
        toggled = set(g.raw_triples()) ^ {(u, v, t)}
        g2 = build(g.n, g.tau, toggled)
        for order in (ordering, ordering[::-1]):
            assert check_order_compatible(g2, order) == scan_order_compatible(g2, order)


@given(instance_graphs(max_n=5, max_tau=4))
@settings(max_examples=40)
def test_monotone_profile_matches_definition(g):
    """p counts maximal uniform-inclusion runs; incomparable pairs give None."""
    sets = g.layer_edge_sets
    comparable = all(a <= b or b <= a for a, b in zip(sets, sets[1:]))
    profile = classify(g)
    assert (profile.monotone is not None) == comparable
    if comparable and g.tau > 1:
        dirs = [
            +1 if a < b else -1
            for a, b in zip(sets, sets[1:])
            if a != b
        ]
        runs = 1 + sum(1 for d, e in zip(dirs, dirs[1:]) if d != e) if dirs else 1
        assert profile.monotone.p == runs

import pytest

from temposep import check_order_compatible, classify
from temposep.errors import InvalidSpec
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    XorShift64Star,
    generate,
)


class TestPrng:
    def test_deterministic_stream(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_zero_seed_remapped(self):
        assert XorShift64Star(0).next_u64() != 0

    def test_random_in_unit_interval(self):
        rng = XorShift64Star(7)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_sample_distinct(self):
        rng = XorShift64Star(3)
        got = rng.sample(list(range(10)), 4)
        assert len(set(got)) == 4


class TestGenerate:
    def test_deterministic(self):
        spec = GenSpec(n=6, tau=3, edge_prob=0.4, seed=11)
        assert generate(spec).g == generate(spec).g

    def test_zero_probability_gives_edgeless(self):
        inst = generate(GenSpec(n=5, tau=3, edge_prob=0.0, seed=1))
        assert inst.g.edges == ()

    def test_terminals_never_adjacent(self):
        inst = generate(GenSpec(n=5, tau=3, edge_prob=1.0, seed=2))
        assert (0, 4) not in inst.g.underlying().edges
        assert len(inst.g.underlying().edges) == 9  # all pairs but the terminal one

    def test_unit_interval_identity_always_compatible(self):
        for seed in range(25):
            inst = generate(
                GenSpec(n=6, tau=3, edge_prob=0.5, constraint=UnitIntervalConstraint(), seed=seed)
            )
            assert check_order_compatible(inst.g, tuple(range(6))) is None

    def test_periodic_detection_matches_request(self):
        inst = generate(
            GenSpec(n=5, tau=6, edge_prob=0.4, constraint=PeriodicConstraint(2, 3), seed=4)
        )
        profile = classify(inst.g)
        assert (profile.periodic_p, profile.periodic_r) == (2, 3)

    def test_steady_within_bound(self):
        for seed in range(10):
            inst = generate(
                GenSpec(n=5, tau=5, edge_prob=0.5, constraint=SteadyConstraint(2), seed=seed)
            )
            assert classify(inst.g).steady_lambda <= 2

    def test_monotone_shape_matches_request(self):
        for seed in range(10):
            inst = generate(
                GenSpec(n=5, tau=5, edge_prob=0.4, constraint=MonotoneConstraint(2), seed=seed)
            )
            shape = classify(inst.g).monotone
            assert shape is not None and shape.p == 2

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            GenSpec(n=1, tau=1, edge_prob=0.5)
        with pytest.raises(InvalidSpec):
            GenSpec(n=3, tau=0, edge_prob=0.5)
        with pytest.raises(InvalidSpec):
            GenSpec(n=3, tau=2, edge_prob=1.5)
        with pytest.raises(InvalidSpec):
            GenSpec(n=3, tau=5, edge_prob=0.5, constraint=PeriodicConstraint(2, 2))
        with pytest.raises(InvalidSpec):
            GenSpec(n=3, tau=2, edge_prob=0.5, constraint=MonotoneConstraint(3))
        with pytest.raises(InvalidSpec, match="steadiness bound -1 is negative"):
            GenSpec(n=3, tau=2, edge_prob=0.5, constraint=SteadyConstraint(-1))

    def test_one_monotone_run_over_one_layer(self):
        inst = generate(GenSpec(n=4, tau=1, edge_prob=0.5, constraint=MonotoneConstraint(1), seed=3))
        assert inst.g.tau == 1
        assert classify(inst.g).monotone.p == 1

    def test_unrealizable_monotone_shape_raises(self):
        # n = 2 leaves no pair besides the terminal one, so no layer can change
        with pytest.raises(InvalidSpec, match="could not realize monotone shape p=1"):
            generate(GenSpec(2, 3, 0.5, MonotoneConstraint(1)))

    def test_unknown_constraint_raises(self):
        with pytest.raises(InvalidSpec, match="unknown constraint 'cyclic'"):
            generate(GenSpec(n=3, tau=2, edge_prob=0.5, constraint="cyclic"))

    def test_unrealizable_periodicity_raises(self):
        # probability 0 forces empty layers, whose minimal period is 1
        with pytest.raises(InvalidSpec):
            generate(GenSpec(n=4, tau=4, edge_prob=0.0, constraint=PeriodicConstraint(2, 2), seed=1))

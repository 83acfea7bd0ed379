import hashlib

import pytest

from temposep import check_order_compatible, classify, generators
from temposep.core import from_layers
from temposep.errors import InvalidSpec
from temposep.fileio import format_tg
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

    def test_accepted_monotone_graph_is_built_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return from_layers(*args)

        monkeypatch.setattr(generators, "from_layers", counted)
        generate(GenSpec(10, 6, 0.4, MonotoneConstraint(2), seed=6))
        assert len(calls) == 1  # accepted on the first attempt, and kept

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


# sha256 of format_tg(generate(spec).g).  The benchmark's recorded verdicts
# assume generated corpora stay byte-identical, so a change that moves any
# of these digests changes every corpus built from the generator.
PINNED_DIGESTS = [
    (GenSpec(7, 3, 0.45, seed=5), "f505be84de135ec0a42b2fe9f6d229161e68fd9258ad87b422f47a76b358e021"),
    (GenSpec(24, 6, 0.08, seed=41), "2a050ee4d281e663b424becd5733f474164bbfa9f705d0fce8ab22b222cea2bf"),
    (
        GenSpec(12, 4, 0.6, UnitIntervalConstraint(), seed=3),
        "0e73565381273e2dffeaa607f1a2f003eb08f1e9f0fe10ea9cf3fe029c65656a",
    ),
    (
        GenSpec(62, 12, 0.92, UnitIntervalConstraint(), seed=1234567),
        "e772add81fe7b82341f1672e66cdbe2f56dba7f88d9051ac8c6a3bc766911bd4",
    ),
    (
        GenSpec(9, 6, 0.4, PeriodicConstraint(2, 3), seed=2),
        "ab22d491e1ad379553e9f59beaef0e4f1bf33fab0cf0356e951afe53a3c93dd2",
    ),
    (
        GenSpec(400, 4, 0.05, PeriodicConstraint(1, 4), seed=9),
        "7ef63fd7001acdbac5d0d1dcfffdba3c99c87382e9daaf0dd594bdf46776046b",
    ),
    (
        GenSpec(10, 5, 0.4, SteadyConstraint(2), seed=8),
        "efa7e0c20ae09bcf1be77308e127573b0f7f92ec9bc3359047b3d5df8f345338",
    ),
    (
        GenSpec(400, 4, 0.05, MonotoneConstraint(1), seed=4),
        "d97ade526a9aa969d006157512a8fde5461305f9b74528819f0a570eeacb4f99",
    ),
    (
        GenSpec(10, 6, 0.4, MonotoneConstraint(2), seed=6),
        "a65d0e50d28d21ed65f2043cd7367705b2df8f90a3efff0e713fdd8a0d14a6ed",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_DIGESTS, ids=[repr(spec) for spec, _ in PINNED_DIGESTS])
def test_generated_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(format_tg(generate(spec).g).encode()).hexdigest() == digest

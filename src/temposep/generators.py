"""Seeded instance generation, general and class-constrained.

Randomness comes from an embedded xorshift64* generator (shift triple
12/25/27, output multiplier 0x2545F4914F6CDD1D) so that a (spec, seed) pair
produces byte-identical corpora everywhere, independent of any runtime's
random module.  Generated instances use s = 0 and z = n-1, and the terminal
pair is excluded from every layer, as separation instances require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .classes import monotone_shape, periodicity
from .core import from_layers
from .errors import InvalidSpec
from .reachability import Instance

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


class XorShift64Star:
    """Deterministic 64-bit generator; seed 0 is remapped to a fixed constant."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, bound: int) -> int:
        return self.next_u64() % bound

    def sample(self, population: list, count: int) -> list:
        """count distinct elements via a partial shuffle; order deterministic."""
        pool = list(population)
        for i in range(count):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]


@dataclass(frozen=True)
class UnitIntervalConstraint:
    """Layers induced by per-layer unit intervals placed along the identity order."""


@dataclass(frozen=True)
class PeriodicConstraint:
    p: int
    r: int


@dataclass(frozen=True)
class SteadyConstraint:
    lam: int


@dataclass(frozen=True)
class MonotoneConstraint:
    p: int


Constraint = Union[UnitIntervalConstraint, PeriodicConstraint, SteadyConstraint, MonotoneConstraint]

_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance; equal specs + seeds give equal output."""

    n: int
    tau: int
    edge_prob: float
    constraint: Optional[Constraint] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidSpec(f"need n >= 2 for two terminals, got {self.n}")
        if self.tau < 1:
            raise InvalidSpec(f"need tau >= 1, got {self.tau}")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise InvalidSpec(f"edge probability {self.edge_prob} outside [0, 1]")
        c = self.constraint
        if isinstance(c, PeriodicConstraint):
            if c.p < 1 or c.r < 1 or c.p * c.r != self.tau:
                raise InvalidSpec(f"periodic({c.p},{c.r}) incompatible with tau={self.tau}")
        elif isinstance(c, SteadyConstraint):
            if c.lam < 0:
                raise InvalidSpec(f"steadiness bound {c.lam} is negative")
        elif isinstance(c, MonotoneConstraint):
            if c.p < 1 or (c.p > 1 and c.p > self.tau - 1):
                raise InvalidSpec(f"monotone({c.p}) needs tau >= p+1, got tau={self.tau}")


def _allowed_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs except the terminal pair (0, n-1), lexicographic."""
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) != (0, n - 1)
    ]


def _random_layer(rng: XorShift64Star, pairs: list[tuple[int, int]], prob: float) -> set[tuple[int, int]]:
    return {pair for pair in pairs if rng.random() < prob}


def _unit_interval_layer(
    rng: XorShift64Star, n: int, pairs: list[tuple[int, int]], prob: float
) -> set[tuple[int, int]]:
    span = 1.0 + (n - 1) * (1.0 - prob)
    positions = sorted(rng.random() * span for _ in range(n))
    return {(u, v) for u, v in pairs if positions[v] - positions[u] <= 1.0}


def _monotone_layers(rng: XorShift64Star, spec: GenSpec, pairs: list[tuple[int, int]]) -> Optional[list[set]]:
    p = spec.constraint.p
    steps = spec.tau - 1
    if p == 1 and steps == 0:
        return [_random_layer(rng, pairs, spec.edge_prob)]
    # Split tau-1 strict steps into p runs of alternating direction.
    lengths = [1] * p
    for _ in range(steps - p):
        lengths[rng.randrange(p)] += 1
    first_dir = 1 if rng.randrange(2) == 0 else -1
    current = _random_layer(rng, pairs, spec.edge_prob)
    layers = [set(current)]
    direction = first_dir
    for run in lengths:
        for _ in range(run):
            if direction > 0:
                missing = [e for e in pairs if e not in current]
                if not missing:
                    return None
                for e in rng.sample(missing, 1 + rng.randrange(min(3, len(missing)))):
                    current.add(e)
            else:
                present = sorted(current)
                if not present:
                    return None
                for e in rng.sample(present, 1 + rng.randrange(min(3, len(present)))):
                    current.discard(e)
            layers.append(set(current))
        direction = -direction
    return layers


def generate(spec: GenSpec) -> Instance:
    """Generate the instance of a spec; the budget defaults to 0.

    Class-constrained outputs are re-checked against the matching detector;
    periodicity and monotone shape are regenerated on accidental collapse
    (a smaller period, an unrealizable run) until they verify.
    """
    rng = XorShift64Star(spec.seed)
    pairs = _allowed_pairs(spec.n)
    c = spec.constraint

    if c is None:
        layers = [_random_layer(rng, pairs, spec.edge_prob) for _ in range(spec.tau)]
        g = from_layers(spec.n, layers)
    elif isinstance(c, UnitIntervalConstraint):
        layers = [_unit_interval_layer(rng, spec.n, pairs, spec.edge_prob) for _ in range(spec.tau)]
        g = from_layers(spec.n, layers)
    elif isinstance(c, PeriodicConstraint):
        for _ in range(_MAX_ATTEMPTS):
            block = [_random_layer(rng, pairs, spec.edge_prob) for _ in range(c.p)]
            g = from_layers(spec.n, block * c.r)
            if periodicity(g) == (c.p, c.r):
                break
        else:
            raise InvalidSpec(f"could not realize a minimal period of {c.p} with these parameters")
    elif isinstance(c, SteadyConstraint):
        current = _random_layer(rng, pairs, spec.edge_prob)
        layers = [set(current)]
        for _ in range(spec.tau - 1):
            flips = rng.randrange(c.lam + 1) if c.lam else 0
            for e in rng.sample(pairs, min(flips, len(pairs))):
                if e in current:
                    current.discard(e)
                else:
                    current.add(e)
            layers.append(set(current))
        g = from_layers(spec.n, layers)
    elif isinstance(c, MonotoneConstraint):
        for _ in range(_MAX_ATTEMPTS):
            layers = _monotone_layers(rng, spec, pairs)
            if layers is not None:
                g = from_layers(spec.n, layers)
                shape = monotone_shape(g)
                if shape is not None and shape.p == c.p:
                    break
        else:
            raise InvalidSpec(f"could not realize monotone shape p={c.p} with these parameters")
    else:
        raise InvalidSpec(f"unknown constraint {c!r}")

    return Instance(g=g, s=0, z=spec.n - 1, k=0)

"""Shared fixtures: the two worked graphs used across the suite plus corpus helpers."""

from __future__ import annotations

import pytest

from temposep import Instance, build
from temposep.generators import GenSpec, generate


@pytest.fixture
def g1():
    """4 vertices, 4-cycle underlying, one temporal (0,3)-path via vertex 1."""
    return build(4, 2, [(0, 1, 1), (1, 3, 2), (0, 2, 2), (2, 3, 1)])


@pytest.fixture
def g1_inst(g1):
    return Instance(g=g1, s=0, z=3, k=1)


@pytest.fixture
def g2():
    """Underlying path 0-1-3 whose labels decrease; no temporal (0,3)-path."""
    return build(4, 2, [(1, 3, 1), (0, 1, 2)])


@pytest.fixture
def g2_inst(g2):
    return Instance(g=g2, s=0, z=3, k=0)


@pytest.fixture
def sparse_labels():
    """Labels 1..4 used, tau declared as 250000: every other layer is empty."""
    return build(4, 250000, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (1, 3, 4)])


def random_instances(count: int, *, n_max: int = 7, tau_max: int = 4, probs=(0.2, 0.4), seed0: int = 1):
    """A deterministic stream of small random instances."""
    out = []
    seed = seed0
    while len(out) < count:
        n = 3 + seed % (n_max - 2)
        tau = 1 + seed % tau_max
        prob = probs[seed % len(probs)]
        out.append(generate(GenSpec(n=n, tau=tau, edge_prob=prob, seed=seed)))
        seed += 1
    return out

import tracemalloc

from hypothesis import given, settings
from search_tree_reference import reference_search_tree
from strategies import instance_graphs

import temposep.solvers.search_tree as search_tree
from temposep import Instance, build, is_separator, min_separator_bruteforce, solve_auto, solve_search_tree
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    generate,
)


def test_g1_with_budget_one(g1_inst):
    found = solve_search_tree(g1_inst)
    assert found is not None and found.sorted() == [1]


def test_g1_with_budget_zero(g1_inst):
    assert solve_search_tree(Instance(g1_inst.g, g1_inst.s, g1_inst.z, 0)) is None


def test_no_path_yields_empty_even_at_zero_budget(g2_inst):
    found = solve_search_tree(g2_inst)
    assert found is not None and found.size == 0


def test_deterministic(g1_inst):
    assert solve_search_tree(g1_inst) == solve_search_tree(g1_inst)


@given(instance_graphs(max_n=6, max_tau=3))
@settings(max_examples=80, deadline=None)
def test_complete_at_oracle_budget_and_stuck_below(g):
    inst = Instance(g=g, s=0, z=g.n - 1, k=0)
    best = min_separator_bruteforce(inst)
    found = solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size))
    assert found is not None and found.size <= best.size
    assert is_separator(inst, found.vertices)
    if best.size > 0:
        assert solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size - 1)) is None


@given(instance_graphs(max_n=5, max_tau=3))
@settings(max_examples=40, deadline=None)
def test_strict_variant_against_strict_oracle(g):
    inst = Instance(g=g, s=0, z=g.n - 1, k=0)
    best = min_separator_bruteforce(inst, strict=True)
    found = solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size), strict=True)
    assert found is not None
    assert is_separator(inst, found.vertices, strict=True)
    if best.size > 0:
        assert solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size - 1), strict=True) is None


def family_specs(seed):
    """One spec per generator family: general, unit-interval, periodic, steady, monotone."""
    n = 7 + seed % 8
    prob = 0.25 + 0.05 * (seed % 4)
    yield GenSpec(n, 3 + seed % 3, prob, seed=seed)
    yield GenSpec(n, 3, prob, UnitIntervalConstraint(), seed=seed)
    yield GenSpec(n, 6, prob, PeriodicConstraint(2, 3), seed=seed)
    yield GenSpec(n, 4, prob, SteadyConstraint(2), seed=seed)
    yield GenSpec(n, 4, prob, MonotoneConstraint(2), seed=seed)


def family_queries():
    """(spec, instance, strict) for every family spec of seeds 1..24, both semantics, k = 0..minimum+1."""
    for seed in range(1, 25):
        for spec in family_specs(seed):
            inst = generate(spec)
            for strict in (False, True):
                minimum = 0
                while reference_search_tree(Instance(inst.g, inst.s, inst.z, minimum), strict) is None:
                    minimum += 1
                for k in range(minimum + 2):
                    yield spec, Instance(inst.g, inst.s, inst.z, k), strict


def test_same_separator_as_the_unpruned_search_on_every_family():
    for spec, inst, strict in family_queries():
        expected = reference_search_tree(inst, strict)
        assert solve_search_tree(inst, strict) == expected, (spec, strict, inst.k)


def counting_sweeps(monkeypatch):
    """The list that records each `find_temporal_path` call the search makes."""
    calls = []
    real = search_tree.find_temporal_path

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search_tree, "find_temporal_path", counting)
    return calls


def test_sweep_count_on_every_family_is_pinned(monkeypatch):
    # Pruning effort: a change that sweeps more or less on purpose re-records it.
    queries = list(family_queries())
    calls = counting_sweeps(monkeypatch)
    for _, inst, strict in queries:
        solve_search_tree(inst, strict)
    assert len(calls) == 6221


# The hard no-family: sparse general graphs at n = 20..34, tau = 6, whose
# search-tree minima (found by deepening the budget) are pinned here.
HARD_NO_MINIMA = [7, 8, 6, 11, 4, 7, 8, 5, 8, 7, 9, 10, 8, 11, 8, 6, 7, 4, 9, 8]
HARD_NO_MINIMA += [6, 9, 8, 9, 6, 9, 8, 10, 10, 9, 6, 7, 4, 7, 7, 8, 7, 7, 8, 8]


def hard_no_family():
    """(instance, minimum) for the 40 graphs; s = 0, z = n - 1 and k = 0."""
    for j, minimum in enumerate(HARD_NO_MINIMA):
        n = 20 + j % 15
        yield generate(GenSpec(n, 6, 2.5 / n, seed=1000 + j)), minimum


def test_exclusion_pins_the_path_calls_of_a_full_search_on_the_hard_no_family(monkeypatch):
    # Every budget below the minimum is a full search.  Without exclusion,
    # sibling subtrees re-search refuted chosen sets: 28,784 path calls.
    family = list(hard_no_family())
    calls = counting_sweeps(monkeypatch)
    for inst, minimum in family:
        assert solve_search_tree(Instance(inst.g, inst.s, inst.z, minimum - 1)) is None
    assert len(calls) == 6175
    for inst, minimum in family:
        found = solve_search_tree(Instance(inst.g, inst.s, inst.z, minimum))
        assert found is not None and found.size == minimum and is_separator(inst, found.vertices)


def disjoint_paths_instance(width, interior, k):
    """`width` internally disjoint (s,z)-paths, labels rising 1, 2, ... along each."""
    z = width * interior + 1
    triples = []
    for i in range(width):
        verts = [0] + [1 + i * interior + j for j in range(interior)] + [z]
        triples += [(a, b, t) for t, (a, b) in enumerate(zip(verts, verts[1:]), start=1)]
    return Instance(g=build(z + 1, interior + 1, triples), s=0, z=z, k=k)


def test_packing_prunes_at_the_root(monkeypatch):
    calls = counting_sweeps(monkeypatch)
    w = 4
    assert solve_search_tree(disjoint_paths_instance(w, 5, w - 1)) is None
    # The unpruned search takes 1 + 5 + 25 + 125 sweeps here.
    assert len(calls) <= w + 1
    inst = disjoint_paths_instance(w, 5, w)
    found = solve_search_tree(inst)
    assert found is not None and found == reference_search_tree(inst)


def test_depth_beyond_the_recursion_limit():
    # 1100 disjoint two-edge paths: every one of the 1100 middle vertices is
    # chosen, one tree level each, deeper than Python's default recursion limit.
    inst = disjoint_paths_instance(1100, 1, 1100)
    found, backend = solve_auto(inst)
    assert backend == "search-tree"
    assert found.vertices == frozenset(range(1, 1101))
    assert solve_search_tree(Instance(inst.g, inst.s, inst.z, 1099)) is None


def test_a_deep_search_frees_each_level_when_its_last_branch_starts():
    # 300 levels of up to 300 packed paths each: keeping every open level's
    # chosen set and packing would take O(k^2) memory, about 2.7 MiB here.
    inst = disjoint_paths_instance(300, 1, 300)
    inst.g.layer_adjacency  # the graph's cached view, built before measuring
    tracemalloc.start()
    try:
        found = solve_search_tree(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.vertices == frozenset(range(1, 301))
    assert peak < 1 << 20

"""Interval DP against the oracle, plus the ordering-structure properties
(order-monotone rerouting, window trimming, forced larger-neighborhoods)."""

import pytest
from decoders import interval_dp_table
from strategies import instance_graphs, reachable_with_earliest_arrival
from hypothesis import given, settings

from temposep import (
    Instance,
    StaticGraph,
    build,
    build_tree_decomposition,
    check_order_compatible,
    find_temporal_path,
    is_separator,
    min_separator_bruteforce,
    solve_interval_dp,
)
from temposep.errors import IncompatibleOrdering, NotAPermutation
from temposep.generators import GenSpec, UnitIntervalConstraint, generate
from temposep.oracle import BRUTE_FORCE_MAX_N, enumerate_temporal_paths
from temposep.solvers import solve_search_tree, solve_treewidth_dp, static_min_vertex_cut


def unit_interval_corpus(count, *, n_max=8, tau_max=4, seed0=500):
    out = []
    seed = seed0
    while len(out) < count:
        spec = GenSpec(
            n=4 + seed % (n_max - 3),
            tau=1 + seed % tau_max,
            edge_prob=0.2 + (seed % 6) * 0.12,
            constraint=UnitIntervalConstraint(),
            seed=seed,
        )
        out.append(generate(spec))
        seed += 1
    return out


IDENTITY_CORPUS = unit_interval_corpus(60)


def test_path_layer_base_case():
    g = build(4, 1, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    inst = Instance(g=g, s=0, z=3, k=1)
    table, to_original = interval_dp_table(inst, (0, 1, 2, 3))
    assert {to_original[q] for q in table[1][1]} == {1}  # layer-1 neighborhood of s
    found = solve_interval_dp(inst, (0, 1, 2, 3))
    assert found is not None and found.size == 1


def test_edgeless_layer_chains_to_empty():
    g = build(4, 1, [])
    inst = Instance(g=g, s=0, z=3, k=0)
    found = solve_interval_dp(inst, (0, 1, 2, 3))
    assert found is not None and found.size == 0


def test_edgeless_graph_still_checks_the_ordering():
    with pytest.raises(NotAPermutation):
        solve_interval_dp(Instance(build(3, 2, []), 0, 2, 0), (0, 0, 1))


def test_incompatible_ordering_rejected():
    g = build(3, 1, [(0, 2, 1)])
    inst = Instance(g=g, s=0, z=1, k=1)
    with pytest.raises(IncompatibleOrdering):
        solve_interval_dp(inst, (0, 1, 2))


def test_reversed_and_padded_orderings_accepted():
    """s after z in the ordering, and vertices outside the s..z window."""
    g = build(5, 2, [(1, 2, 1), (2, 3, 1), (1, 2, 2), (0, 1, 2), (3, 4, 2)])
    inst = Instance(g=g, s=3, z=1, k=1)
    assert check_order_compatible(g, (0, 1, 2, 3, 4)) is None
    found = solve_interval_dp(inst, (0, 1, 2, 3, 4))
    oracle = min_separator_bruteforce(inst)
    assert found is not None and found.size == oracle.size
    assert is_separator(inst, found.vertices)


@pytest.mark.parametrize("idx", range(0, 60, 3))
def test_matches_oracle_on_unit_interval_corpus(idx):
    base = IDENTITY_CORPUS[idx]
    inst = Instance(base.g, base.s, base.z, base.g.n)
    found = solve_interval_dp(inst, tuple(range(inst.g.n)))
    assert found.size == min_separator_bruteforce(inst).size
    assert is_separator(inst, found.vertices)


@pytest.mark.parametrize("idx", range(0, 60, 5))
def test_order_monotone_rerouting(idx):
    """A temporal (v_i,v_j)-path implies one visiting vertices in order."""
    g = IDENTITY_CORPUS[idx].g
    for i in range(g.n):
        for j in range(i + 1, g.n):
            reachable = j in reachable_with_earliest_arrival(g, i) if i != j else True
            monotone_exists = any(
                all(a < b for a, b in zip(p_verts, p_verts[1:]))
                for p_verts in (
                    [steps[0][0]] + [st[1] for st in steps]
                    for steps in enumerate_temporal_paths(g, i, j)
                )
            )
            if reachable and i != j:
                assert monotone_exists


@pytest.mark.parametrize("idx", range(0, 60, 5))
def test_window_trimming_preserves_separation(idx):
    """Dropping separator vertices outside the i..j window keeps it separating."""
    inst = IDENTITY_CORPUS[idx]
    g = inst.g
    import itertools

    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    for i, j in pairs[:6]:
        if (min(i, j), max(i, j)) in g.edge_labels:
            continue
        sub = Instance(g=g, s=i, z=j, k=0)
        base = min_separator_bruteforce(sub)
        others = [v for v in range(g.n) if v not in (i, j)]
        for extra in itertools.combinations(others, min(1, len(others))):
            candidate = base.vertices | set(extra)
            if not is_separator(sub, candidate):
                continue
            trimmed = {v for v in candidate if i < v < j}
            assert is_separator(sub, trimmed)


@pytest.mark.parametrize("idx", range(0, 60, 4))
def test_forced_larger_neighborhood(idx):
    """If v_i is the largest vertex reachable from s after deleting S, every
    larger-neighborhood of v_i at labels from its first arrival onward is
    inside S."""
    import itertools

    inst = IDENTITY_CORPUS[idx]
    g = inst.g
    s, z = inst.s, inst.z
    others = [v for v in range(g.n) if v not in (s, z)]
    samples = list(itertools.combinations(others, 2))[:8] + [(v,) for v in others[:4]] + [()]
    for cand in samples:
        cut = frozenset(cand)
        reduced, remap = g.delete_vertices(cut)
        arrivals = reachable_with_earliest_arrival(reduced, remap[s])
        back = {new: old for old, new in remap.items()}
        reached = {back[v] for v in arrivals}
        vi = max(reached)
        if vi == z:
            continue
        first = arrivals[remap[vi]] if vi != s else 1
        first = max(first, 1)
        for t in range(first, g.tau + 1):
            larger_nb = {
                w
                for w in range(vi + 1, g.n)
                if t in g.edge_labels.get((vi, w), ())
            } - {z}
            if any(t in g.edge_labels.get((vi, w), ()) for w in (z,)):
                continue  # the sentinel case: v_i adjacent to z in the window
            assert larger_nb <= cut


def test_interior_terminals_match_oracle():
    """The ordering-window preprocessing (trim + reverse) keeps the answer."""
    from temposep.generators import XorShift64Star

    rng = XorShift64Star(31337)
    checked = 0
    seed = 0
    while checked < 40:
        seed += 1
        base = unit_interval_corpus(1, n_max=7, tau_max=4, seed0=seed)[0]
        g = base.g
        s = 1 + rng.randrange(3)
        z = s + 2 + rng.randrange(max(1, g.n - s - 2))
        if z >= g.n or (min(s, z), max(s, z)) in g.edge_labels:
            continue
        for s2, z2 in ((s, z), (z, s)):  # also reversed terminal order
            inst = Instance(g=g, s=s2, z=z2, k=g.n)
            found = solve_interval_dp(inst, tuple(range(g.n)))
            assert found.size == min_separator_bruteforce(inst).size
            assert is_separator(inst, found.vertices)
        checked += 1


@given(instance_graphs(max_n=5, max_tau=3))
@settings(max_examples=40, deadline=None)
def test_whenever_identity_is_compatible_dp_matches_oracle(g):
    if check_order_compatible(g, tuple(range(g.n))) is not None:
        return
    inst = Instance(g=g, s=0, z=g.n - 1, k=g.n)
    found = solve_interval_dp(inst, tuple(range(g.n)))
    assert found.size == min_separator_bruteforce(inst).size


@pytest.mark.parametrize("j", range(20))
def test_matches_treewidth_dp_and_search_tree_beyond_oracle_scale(j):
    # These graphs start at the oracle's BRUTE_FORCE_MAX_N vertices and grow
    # past it, so the treewidth DP on a min-fill decomposition and the search
    # tree cross-check the size instead, and the walk-pruned static cut, the
    # treewidth DP's table bound, must be a separator at least that size.
    spec = GenSpec(n=20 + j, tau=3 + j % 2, edge_prob=0.75, constraint=UnitIntervalConstraint(), seed=7000 + j)
    inst = generate(spec)
    assert inst.g.n >= BRUTE_FORCE_MAX_N
    identity = tuple(range(inst.g.n))
    assert check_order_compatible(inst.g, identity) is None
    best = solve_interval_dp(inst, identity)
    by_width = solve_treewidth_dp(inst, build_tree_decomposition(inst.g.underlying(), inst.s, inst.z))
    assert by_width.size == best.size
    walk_cut = static_min_vertex_cut(StaticGraph(inst.g.n, frozenset(inst.walk_labels)), inst.s, inst.z)
    assert by_width.size <= len(walk_cut) and is_separator(inst, walk_cut)
    searched = solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size))
    assert searched is not None
    assert solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size - 1)) is None
    for sep in (best, by_width, searched):
        assert is_separator(inst, sep.vertices)

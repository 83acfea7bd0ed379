"""Treewidth DP against the oracle and against exhaustive coloring semantics."""

import re
from itertools import product

import pytest
from decoders import treewidth_root_table
from strategies import (
    elimination_decomposition,
    instance_graphs,
    late_arrival_graphs,
    reachable_with_earliest_arrival,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from temposep import (
    Instance,
    build,
    build_tree_decomposition,
    is_separator,
    min_separator_bruteforce,
    solve_treewidth_dp,
)
from temposep.errors import DecompositionMismatch
from temposep.oracle import Separator
from temposep.solvers import treewidth_dp
from temposep.solvers.auto import solve_auto
from temposep.solvers.treewidth_dp import _fill_tables, treewidth_work_estimate


def test_g1_budget_one(g1_inst):
    td = build_tree_decomposition(g1_inst.g.underlying(), 0, 3)
    found = solve_treewidth_dp(g1_inst, td)
    assert found is not None and found.size == 1
    assert is_separator(g1_inst, found.vertices)


def test_no_path_zero_budget(g2_inst):
    td = build_tree_decomposition(g2_inst.g.underlying(), 0, 3)
    found = solve_treewidth_dp(g2_inst, td)
    assert found is not None and found.size == 0


def test_join_unites_the_separators_of_both_sides():
    # Two disjoint s-z paths, 0-1-2-5 and 0-3-4-5, each forgotten below its
    # own side of one join: a join that kept one side's mask would return a
    # single vertex that leaves the other path open.
    g = build(6, 1, [(0, 1, 1), (1, 2, 1), (2, 5, 1), (0, 3, 1), (3, 4, 1), (4, 5, 1)])
    inst = Instance(g, 0, 5, 2)
    external = ([{0, 5}, {0, 1, 2, 5}, {0, 3, 4, 5}], [(0, 1), (0, 2)])
    td = build_tree_decomposition(g.underlying(), 0, 5, external=external)
    assert [node.kind for node in td.nodes].count("join") == 1
    found = solve_treewidth_dp(inst, td)
    assert found is not None and found.size == 2
    assert is_separator(inst, found.vertices)


@pytest.mark.parametrize(
    "td_graph, inst, message",
    [
        (build(4, 1, []), Instance(g=build(4, 1, [(1, 2, 1)]), s=0, z=3, k=0), r"edge \(1,2\) is not an edge of"),
        (build(4, 1, [(1, 2, 1)]), Instance(g=build(4, 1, [(1, 2, 1)]), s=1, z=3, k=0), "misses a terminal"),
        (build(4, 1, [(1, 2, 1)]), Instance(g=build(5, 1, [(1, 2, 1)]), s=0, z=3, k=0), "appears in no bag"),
        (build(5, 1, []), Instance(g=build(4, 1, [(1, 2, 1)]), s=0, z=3, k=0), r"vertex 4, outside 0\.\.3"),
    ],
    ids=["uncovered-edge", "other-terminals", "fewer-vertices", "more-vertices"],
)
def test_mismatched_decomposition_rejected(td_graph, inst, message):
    """Each decomposition is built for terminals 0 and 3 and does not fit `inst`."""
    td = build_tree_decomposition(td_graph.underlying(), 0, 3)
    with pytest.raises(DecompositionMismatch, match=message):
        solve_treewidth_dp(inst, td)


def test_unreachable_z_is_answered_without_tables_after_the_fit_check(monkeypatch):
    # 0-1@1, 1-2@3, 2-3@2, 3-4@1: no temporal path from 0 reaches 4.
    g = build(5, 3, [(0, 1, 1), (3, 4, 1), (2, 3, 2), (1, 2, 3)])
    inst = Instance(g, 0, 4, 0)

    def no_tables(*args):
        raise AssertionError("tables filled for an unreachable z")

    monkeypatch.setattr(treewidth_dp, "_fill_tables", no_tables)
    td = build_tree_decomposition(g.underlying(), 0, 4)
    assert solve_treewidth_dp(inst, td) == Separator(frozenset())
    misfit = build_tree_decomposition(build(5, 3, [(0, 1, 1), (2, 3, 2), (3, 4, 1)]).underlying(), 0, 4)
    with pytest.raises(DecompositionMismatch, match=re.escape("edge (1,2) is not an edge of the decomposition's graph")):
        solve_treewidth_dp(inst, misfit)


def test_a_decomposition_of_a_larger_graph_is_a_misfit_before_any_bag_is_read():
    big = build(6, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3), (4, 5, 2), (1, 4, 1)])
    small = Instance(build(4, 3, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 2, 3)]), 0, 3, 1)
    td = build_tree_decomposition(big.underlying(), 0, 3)
    for entry in (solve_treewidth_dp, treewidth_work_estimate, lambda inst, td: solve_auto(inst, td=td)):
        with pytest.raises(DecompositionMismatch, match=re.escape("a bag contains vertex 5, outside 0..3")):
            entry(small, td)


def test_deep_decomposition_solves():
    # A 1000-vertex path nicifies into a chain about 2000 nodes deep.
    n = 1000
    inst = Instance(g=build(n, 1, [(v, v + 1, 1) for v in range(n - 1)]), s=0, z=n - 1, k=1)
    td = build_tree_decomposition(inst.g.underlying(), 0, n - 1)
    assert solve_treewidth_dp(inst, td).vertices == {n - 2}


def test_tau_zero_join_keeps_s_out_of_the_witness():
    # Vertex 1 is introduced on all three sides of two joins, so s sits in a
    # joined bag.
    external = ([{1}, {1}, {1}, {0, 2, 3}], [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g=build(4, 0, []), s=0, z=3, k=0)
    td = build_tree_decomposition(inst.g.underlying(), 0, 3, external=external)
    assert [node.bag for node in td.nodes if node.kind == "join"] == [frozenset((0, 1, 3))] * 2
    assert solve_treewidth_dp(inst, td) == Separator(frozenset())


@given(instance_graphs(max_n=6, max_tau=3))
@settings(max_examples=80, deadline=None)
def test_matches_oracle(g):
    inst = Instance(g=g, s=0, z=g.n - 1, k=g.n)
    td = build_tree_decomposition(g.underlying(), 0, g.n - 1)
    found = solve_treewidth_dp(inst, td)
    assert found.size == min_separator_bruteforce(inst).size
    assert is_separator(inst, found.vertices)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matches_oracle_at_every_budget_on_random_elimination_orders(data):
    # Vertices that s cannot reach, or first reaches late, lose A colours;
    # any decomposition, not only min-fill's, must keep the minimum.
    g = data.draw(late_arrival_graphs())
    order = data.draw(st.permutations(range(g.n)))
    under = g.underlying()
    td = build_tree_decomposition(under, 0, g.n - 1, external=elimination_decomposition(under, order))
    minimum = min_separator_bruteforce(Instance(g=g, s=0, z=g.n - 1, k=g.n)).size
    for k in range(g.n - 1):
        inst = Instance(g=g, s=0, z=g.n - 1, k=k)
        found = solve_treewidth_dp(inst, td)
        assert found.size == minimum and is_separator(inst, found.vertices)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_decomposition_of_another_graph_fits_exactly_when_h_is_a_subgraph_of_g(data):
    g = data.draw(instance_graphs(max_n=6, max_tau=3))
    h = data.draw(instance_graphs(max_n=g.n, max_tau=3, min_n=g.n))
    td = build_tree_decomposition(g.underlying(), 0, g.n - 1)
    inst = Instance(g=h, s=0, z=h.n - 1, k=h.n)
    foreign = sorted(h.underlying().edges - g.underlying().edges)
    if foreign:
        with pytest.raises(DecompositionMismatch, match=re.escape(f"edge ({foreign[0][0]},{foreign[0][1]})")):
            solve_treewidth_dp(inst, td)
    else:
        found = solve_treewidth_dp(inst, td)
        assert found.size == min_separator_bruteforce(inst).size
        assert is_separator(inst, found.vertices)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_a_decomposition_solves_every_subgraph_on_its_vertices(data):
    g = data.draw(instance_graphs(max_n=6, max_tau=3))
    td = build_tree_decomposition(g.underlying(), 0, g.n - 1)
    kept = [e for e in sorted(g.underlying().edges) if data.draw(st.booleans())]
    labels = st.lists(st.integers(1, g.tau), min_size=1, max_size=g.tau, unique=True)
    h = build(g.n, g.tau, [(u, v, t) for u, v in kept for t in data.draw(labels)])
    inst = Instance(g=h, s=0, z=h.n - 1, k=h.n)
    found = solve_treewidth_dp(inst, td)
    assert found.size == min_separator_bruteforce(inst).size
    assert is_separator(inst, found.vertices)


def _earliest_arrivals_from(g, start, depart_at_least):
    """Earliest arrival labels for paths leaving `start` at label >= depart_at_least."""
    if depart_at_least > g.tau:
        return {start: 0}
    shift = depart_at_least - 1
    sliced = build(g.n, g.tau - shift, [(u, v, t - shift) for t, u, v in g.edges if t > shift])
    return {
        v: (0 if v == start else a + shift)
        for v, a in reachable_with_earliest_arrival(sliced, start).items()
    }


def _coloring_is_valid(g, coloring, tau):
    """The global consistency predicate, computed from path sweeps.

    coloring: vertex -> color index (i-1 for A_i, tau for S, tau+1 for Z).
    """
    s_color, z_color = tau, tau + 1
    cut = {v for v, c in coloring.items() if c == s_color}
    reduced, remap = g.delete_vertices(cut)
    for a, ca in coloring.items():
        if ca >= tau:
            continue
        i = ca + 1
        arrivals = _earliest_arrivals_from(reduced, remap[a], i)
        for b, cb in coloring.items():
            if b == a or b in cut:
                continue
            if remap[b] not in arrivals:
                continue
            got = arrivals[remap[b]]
            if got == 0:
                continue  # b == a only
            if cb == z_color:
                return False  # an A_i vertex reaches a Z vertex departing >= i
            j = cb + 1
            if got <= j - 1:
                return False  # reaches an A_j vertex before label j
    return True


def brute_force_min_colorings(g, s, z, canonical=True):
    """min |S| over valid whole-graph colorings, per restriction to a bag.

    Canonical colorings give a vertex other than s and z the color A_i only
    when one of its own time-edges has label i and s reaches it by label i
    with nothing deleted, as the DP tables do.
    """
    tau = g.tau
    verts = [v for v in range(g.n) if v not in (s, z)]
    colors = {v: list(range(tau + 2)) for v in verts}
    if canonical:
        arrival = reachable_with_earliest_arrival(g, s)
        for v in verts:
            own = {t for t, a, b in g.edges if v in (a, b) and t >= arrival.get(v, tau + 1)}
            colors[v] = [i - 1 for i in sorted(own)] + [tau, tau + 1]
    results = {}
    for combo in product(*(colors[v] for v in verts)):
        coloring = dict(zip(verts, combo))
        coloring[s] = 0
        coloring[z] = tau + 1
        if not _coloring_is_valid(g, coloring, tau):
            continue
        size = sum(1 for c in coloring.values() if c == tau)
        key = frozenset(coloring.items())
        if key not in results or size < results[key]:
            results[key] = size
    return results


@pytest.mark.parametrize("seed", [2, 5, 9, 14, 21, 33])
def test_root_table_equals_exhaustive_coloring_minimum(seed):
    from temposep.generators import GenSpec, generate

    inst = generate(GenSpec(n=4 + seed % 2, tau=1 + seed % 3, edge_prob=0.4, seed=seed))
    g = inst.g
    td = build_tree_decomposition(g.underlying(), inst.s, inst.z)
    table = treewidth_root_table(inst, td)
    # The DP colors the graph of the time-edges on some s->z walk.
    pruned = build(g.n, g.tau, [(u, v, t) for (u, v), labels in inst.walk_labels.items() for t in labels])
    whole = brute_force_min_colorings(pruned, inst.s, inst.z)
    root_bag = sorted(td.nodes[td.root].bag)

    # Canonical colorings lose no minimum: the earliest-arrival argument of
    # the DP's docstring, checked against every coloring.
    unrestricted = brute_force_min_colorings(pruned, inst.s, inst.z, canonical=False)
    assert whole.keys() <= unrestricted.keys()
    assert min(whole.values()) == min(unrestricted.values())
    # And the prune loses none either.
    assert min(whole.values()) == min(brute_force_min_colorings(g, inst.s, inst.z).values())

    # For every root entry: its cost must equal the min over valid global
    # colorings agreeing with it on the root bag (infinite entries absent).
    for entry, cost in table.items():
        entry_map = dict(entry)
        agreeing = [
            size
            for key, size in whole.items()
            if all(dict(key)[v] == entry_map[v] for v in root_bag)
        ]
        assert agreeing, f"finite root entry {entry} has no valid extension"
        assert cost == min(agreeing)

    # And conversely: every valid global coloring's bag restriction is finite.
    for key, size in whole.items():
        restriction = tuple((v, dict(key)[v]) for v in root_bag)
        assert restriction in table
        assert table[restriction] <= size



def test_root_masks_are_the_s_vertices_and_the_smallest_is_the_witness():
    from conftest import random_instances

    for inst in random_instances(40, n_max=7, tau_max=4, seed0=900):
        td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
        root = _fill_tables(inst, td)
        base = inst.g.tau + 2
        root_bag = sorted(td.nodes[td.root].bag)
        for key, mask in root.items():
            assert not mask >> inst.s & 1 and not mask >> inst.z & 1
            # The bag's S digits are the mask's bits inside the bag.
            in_s = {v for p, v in enumerate(root_bag) if key // base**p % base == inst.g.tau}
            assert in_s == {v for v in root_bag if mask >> v & 1}
        key, mask = min(root.items(), key=lambda entry: (entry[1].bit_count(), entry[0]))
        found = solve_treewidth_dp(Instance(inst.g, inst.s, inst.z, inst.g.n), td)
        assert found.vertices == {v for v in range(inst.g.n) if mask >> v & 1}
        assert is_separator(inst, found.vertices) and found.size == min_separator_bruteforce(inst).size

def test_min_over_root_table_equals_oracle_on_corpus():
    from conftest import random_instances

    for inst in random_instances(40, n_max=7, tau_max=4, seed0=900):
        td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
        table = treewidth_root_table(inst, td)
        tau = inst.g.tau
        finite = [
            cost
            for entry, cost in table.items()
            if dict(entry)[inst.s] == 0 and dict(entry)[inst.z] == tau + 1
        ]
        assert min(finite) == min_separator_bruteforce(inst).size

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ... PASS` line (visible with -s, and
recorded even when capture is on via the terminal summary of failures).
Criteria are exact-agreement checks against the exhaustive oracle plus two
wall-clock budgets, on seeded deterministic corpora.
"""

from __future__ import annotations

import time
from itertools import combinations, product

import pytest
from decoders import interval_dp_table
from strategies import power, reachable_with_earliest_arrival, static_graph

from temposep import (
    Instance,
    build,
    build_tree_decomposition,
    check_order_compatible,
    classify,
    find_temporal_path,
    from_layers,
    is_separator,
    min_separator_bruteforce,
    oracle,
    path_min_resets,
    solve_auto,
    solve_interval_dp,
    solve_search_tree,
    solve_treewidth_dp,
)
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    XorShift64Star,
    generate,
)
from temposep.oracle import enumerate_temporal_paths, temporal_path_exists_exhaustive
from temposep.reductions import (
    REDUCTIONS,
    add_universal_vertex,
    line_graph_gadget,
    one_edge_per_layer,
)


def _passed(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


def seeded_instances(count, *, n_max=7, tau_max=4, probs=(0.2, 0.4), seed0=1):
    out = []
    seed = seed0
    while len(out) < count:
        spec = GenSpec(
            n=3 + seed % (n_max - 2),
            tau=1 + seed % tau_max,
            edge_prob=probs[seed % len(probs)],
            seed=seed,
        )
        out.append(generate(spec))
        seed += 1
    return out


def unit_interval_instances(count, *, n_max=8, tau_max=4, seed0=300):
    out = []
    seed = seed0
    while len(out) < count:
        spec = GenSpec(
            n=4 + seed % (n_max - 3),
            tau=1 + seed % tau_max,
            edge_prob=0.15 + (seed % 7) * 0.12,
            constraint=UnitIntervalConstraint(),
            seed=seed,
        )
        out.append(generate(spec))
        seed += 1
    return out


def test_c1_search_tree_oracle_agreement():
    started = time.perf_counter()
    for inst in seeded_instances(500, seed0=11):
        best = min_separator_bruteforce(inst)
        found = solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size))
        assert found is not None and found.size <= best.size
        assert is_separator(inst, found.vertices)
        if best.size > 0:
            assert solve_search_tree(Instance(inst.g, inst.s, inst.z, best.size - 1)) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"500 instances took {elapsed:.1f}s"
    _passed(f"1 search-tree agreement on 500 instances in {elapsed:.1f}s")


def test_c2_treewidth_dp_oracle_agreement():
    checked = 0
    seed = 2000
    worst = 0.0
    while checked < 200:
        inst = seeded_instances(1, seed0=seed)[0]
        seed += 1
        td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
        if td.width > 5:
            continue
        started = time.perf_counter()
        found = solve_treewidth_dp(Instance(inst.g, inst.s, inst.z, inst.g.n), td)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 1.0, f"instance took {elapsed:.2f}s"
        assert found.size == min_separator_bruteforce(inst).size
        checked += 1
    _passed(f"2 treewidth-dp agreement on 200 instances, worst {worst * 1000:.0f}ms")


def test_c3_interval_dp_oracle_agreement():
    for inst in unit_interval_instances(200):
        identity = tuple(range(inst.g.n))
        assert check_order_compatible(inst.g, identity) is None
        best = min_separator_bruteforce(inst)
        if inst.g.tau == 0 or not inst.g.edges:
            assert best.size == 0
            continue
        table, _ = interval_dp_table(inst, identity)
        table_min = min(len(entry) for entry in table[inst.g.tau][1:])
        assert table_min == best.size
        found = solve_interval_dp(Instance(inst.g, inst.s, inst.z, best.size), identity)
        assert found is not None and is_separator(inst, found.vertices)
    _passed("3 interval-dp agreement on 200 instances")


def _line_graph_corpus(count):
    """Equal-layer strict instances with min degree 2, kept desk-scale."""
    rng = XorShift64Star(777)
    out = []
    while len(out) < count:
        n = 4 + rng.randrange(2)
        tau = 1 + rng.randrange(2)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 2)]
        chosen = [p for p in pairs if rng.random() < 0.6]
        shape = static_graph(n, chosen)
        if any(shape.degree(v) < 2 for v in range(n)):
            continue
        g = from_layers(n, [sorted(shape.edges)] * tau)
        out.append(Instance(g=g, s=0, z=2, k=n))
    return out


def test_c4_and_c5_reduction_equivalence_and_size_bounds(monkeypatch):
    corpus = seeded_instances(100, n_max=6, tau_max=3, seed0=4400)
    deltas = {"one-edge": 0, "complete-but-one": 0, "pad-monotone": 0, "universal": 1, "steady": 0}
    for kind, delta in deltas.items():
        for inst in corpus:
            out, report = REDUCTIONS[kind](inst)
            assert report.all_passed, f"{kind} checklist failed: {report.checks}"
            assert report.budget_delta == delta
            got = min_separator_bruteforce(out).size
            want = min_separator_bruteforce(inst).size + delta
            assert got == want, f"{kind}: {got} != {want}"
            if kind == "one-edge":
                assert out.g.tau <= inst.g.tau * inst.g.n**4
    gadget_corpus = _line_graph_corpus(100)
    monkeypatch.setattr(oracle, "BRUTE_FORCE_MAX_N", 80)  # gadget outputs outgrow the default guard
    for inst in gadget_corpus:
        out, report = line_graph_gadget(inst)
        assert report.all_passed, f"line-graph checklist failed: {report.checks}"
        strict_min = min_separator_bruteforce(inst, strict=True).size
        nonstrict_min = min_separator_bruteforce(out, strict=False).size
        assert strict_min == nonstrict_min
        under = inst.g.underlying()
        # |W_v| = deg(v)+1: one hub plus one carrier per incident edge.
        hubs_and_carriers = out.g.n - 4 * len(under.edges)
        assert hubs_and_carriers == sum(under.degree(v) + 1 for v in range(inst.g.n))
        assert report.checks["clique_sizes_are_degree_plus_one"]
    _passed("4 reduction equivalence on 6x100 instances")
    _passed("5 size bounds (tau' <= tau*n^4; |W_v| = deg+1) on every corpus instance")


def test_c6_path_existence_matches_exhaustive_enumeration():
    for inst in seeded_instances(300, n_max=6, tau_max=3, seed0=6600):
        g = inst.g
        for strict in (False, True):
            fast = find_temporal_path(g, inst.s, inst.z, strict) is not None
            slow = temporal_path_exists_exhaustive(g, inst.s, inst.z, strict)
            assert fast == slow
    _passed("6 path existence matches exhaustive enumeration on 300 instances, both variants")


def test_c7_greedy_resets_optimal_on_1000_paths():
    rng = XorShift64Star(7070)
    for _ in range(1000):
        edges = 1 + rng.randrange(6)
        label_sets = [
            sorted({1 + rng.randrange(3) for _ in range(1 + rng.randrange(3))})
            for _ in range(edges)
        ]
        n = edges + 1
        g = build(n, 3, [(i, i + 1, t) for i, ts in enumerate(label_sets) for t in ts])
        exhaustive = min(
            sum(1 for a, b in zip(combo, combo[1:]) if b < a)
            for combo in product(*label_sets)
        )
        assert path_min_resets(g, list(range(n))) == exhaustive
    _passed("7 greedy reset count equals exhaustive minimum on 1000 paths")


def test_c8_dispatcher_uses_static_cut_on_collapsing_classes():
    cases = []
    for seed in range(20):  # single-peaked
        cases.append(generate(GenSpec(n=5, tau=4, edge_prob=0.45, constraint=MonotoneConstraint(1), seed=seed)))
    for seed in range(20):  # identical layers
        cases.append(generate(GenSpec(n=5, tau=3, edge_prob=0.45, constraint=SteadyConstraint(0), seed=50 + seed)))
    for seed in range(20):  # r >= n periods
        try:
            inst = generate(GenSpec(n=5, tau=10, edge_prob=0.45, constraint=PeriodicConstraint(2, 5), seed=100 + seed))
        except Exception:
            continue
        cases.append(inst)
    assert len(cases) >= 55
    for inst in cases:
        profile = classify(inst.g)
        single_peaked = profile.monotone is not None and len(profile.monotone.peaks) == 1
        assert single_peaked or profile.periodic_p == 1 or profile.periodic_r >= inst.g.n
        best = min_separator_bruteforce(inst)
        result = solve_auto(Instance(inst.g, inst.s, inst.z, best.size))
        assert result.backend == "static-cut"
        assert result.separator is not None and result.separator.size == best.size
        if best.size:
            assert solve_auto(Instance(inst.g, inst.s, inst.z, best.size - 1)).separator is None
    _passed(f"8 dispatcher static-cut soundness on {len(cases)} collapsing instances")


def _ordered_instances_for_battery(count):
    return unit_interval_instances(count, n_max=7, tau_max=4, seed0=9100)


def test_c9_ordering_structure_battery():
    """Order-monotone rerouting, window trimming, forced larger-neighborhoods."""
    instances = _ordered_instances_for_battery(200)
    rng = XorShift64Star(9191)
    for inst in instances:
        g = inst.g
        n = g.n
        # (ii) rerouting: temporal reachability between i<j implies an
        # order-monotone temporal path.
        for i in range(n):
            arr = reachable_with_earliest_arrival(g, i)
            for j in range(i + 1, n):
                if j not in arr:
                    continue
                monotone = any(
                    all(a < b for a, b in zip(verts, verts[1:]))
                    for verts in (
                        [steps[0][0]] + [s[1] for s in steps]
                        for steps in enumerate_temporal_paths(g, i, j)
                    )
                )
                assert monotone, f"no order-monotone witness {i}->{j}"
        # (iii) trimming: separators keep separating after dropping vertices
        # outside the terminal window.
        others = [v for v in range(n) if v not in (inst.s, inst.z)]
        base = min_separator_bruteforce(inst).vertices
        candidates = [base]
        for _ in range(3):
            extra = {others[rng.randrange(len(others))]} if others else set()
            candidates.append(base | extra)
        for cand in candidates:
            if not is_separator(inst, cand):
                continue
            trimmed = {v for v in cand if inst.s < v < inst.z}
            assert is_separator(inst, trimmed)
        # (v) forced neighborhoods: with v_i the largest vertex reachable from
        # s after deleting S, larger-neighborhoods of v_i from its arrival
        # label onward lie inside S.
        samples = [frozenset()] + [
            frozenset(rng.sample(others, min(2, len(others)))) for _ in range(3)
        ]
        for cut in samples:
            reduced, remap = g.delete_vertices(cut)
            arrivals = reachable_with_earliest_arrival(reduced, remap[inst.s])
            back = {new: old for old, new in remap.items()}
            reached = {back[v] for v in arrivals}
            vi = max(reached)
            if vi == inst.z:
                continue
            first = max(arrivals[remap[vi]], 1)
            for t in range(first, g.tau + 1):
                larger_nb = {
                    w for w in range(vi + 1, n) if t in g.edge_labels.get((vi, w), ())
                }
                if inst.z in larger_nb:
                    continue  # sentinel case: v_i adjacent to z in the window
                assert larger_nb <= cut
    _passed("9 ordering-structure battery on 200 instances, zero violations")


def _ladder_graph_instance():
    """Underlying treewidth <= 2 on 50 vertices, tau = 6.

    Chain labels ramp upward so the far end stays temporally reachable and
    the minimum separator is non-trivial; extra seeded labels add density.
    """
    rng = XorShift64Star(123)
    n = 50
    ramp = lambda i: 1 + (i * 6) // n
    triples = []
    for i in range(n - 1):
        triples.append((i, i + 1, ramp(i)))
        triples.append((i, i + 1, min(6, ramp(i) + rng.randrange(2))))
    for i in range(n - 2):
        triples.append((i, i + 2, ramp(i)))
    return Instance(g=build(n, 6, triples), s=0, z=n - 1, k=n)


def _layered_search_instance():
    """30 vertices, tau = 10: four disjoint 8-hop chains from s to z.

    Every underlying simple (s,z)-path is one whole chain, so the maximum
    temporal path length is 8; the minimum separator (one vertex per chain)
    has size 4, leaving the budget of 3 exhausted by the full search tree.
    """
    rng = XorShift64Star(321)
    triples = []
    z = 29
    for chain in range(4):
        verts = [0] + [1 + chain * 7 + i for i in range(7)] + [z]
        label = 1
        for a, b in zip(verts, verts[1:]):
            triples.append((a, b, label))
            label += 1 if rng.random() < 0.8 else 0
    return Instance(g=build(30, 10, triples), s=0, z=z, k=3)


def test_c10_performance_smoke():
    ladder = _ladder_graph_instance()
    started = time.perf_counter()
    td = build_tree_decomposition(ladder.g.underlying(), ladder.s, ladder.z)
    found = solve_treewidth_dp(ladder, td)
    tw_elapsed = time.perf_counter() - started
    assert tw_elapsed < 10.0, f"treewidth smoke took {tw_elapsed:.1f}s"
    assert found is not None and is_separator(ladder, found.vertices)

    layered = _layered_search_instance()
    longest = max(
        (len(p) for p in enumerate_temporal_paths(layered.g, layered.s, layered.z)),
        default=0,
    )
    assert longest <= 8
    started = time.perf_counter()
    result = solve_search_tree(layered)
    st_elapsed = time.perf_counter() - started
    assert st_elapsed < 10.0, f"search-tree smoke took {st_elapsed:.1f}s"
    if result is not None:
        assert is_separator(layered, result.vertices)
    _passed(
        f"10 performance smoke: treewidth {tw_elapsed:.2f}s, search tree {st_elapsed:.2f}s (budgets 10s)"
    )

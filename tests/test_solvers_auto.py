from itertools import accumulate
from math import prod

import pytest
from conftest import random_instances
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import elimination_decomposition, indifference_graphs, instance_graphs, late_arrival_graphs, power

import temposep.classes
import temposep.oracle
import temposep.reachability
import temposep.solvers.auto
import temposep.solvers.treewidth_dp

from temposep import (
    Instance,
    TemporalGraph,
    build,
    build_tree_decomposition,
    check_order_compatible,
    classify,
    from_layers,
    is_separator,
    min_separator_bruteforce,
    solve_auto,
)
from temposep.errors import IncompatibleOrdering
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    generate,
)
from temposep.oracle import Separator
from temposep.solvers import solve_interval_dp, solve_search_tree, solve_treewidth_dp, static_min_vertex_cut
from temposep.solvers.auto import DEFAULT_WORK_CAP, AutoResult
from temposep.solvers.treewidth_dp import treewidth_work_estimate


def test_single_peaked_dispatches_to_static_cut():
    a = [(0, 1), (1, 3), (0, 2), (2, 3)]
    g = from_layers(4, [a, a + [(1, 2)], a])
    inst = Instance(g=g, s=0, z=3, k=2)
    result = solve_auto(inst)
    assert result.backend == "static-cut"
    assert result.separator.size == min_separator_bruteforce(inst).size


def test_one_layer_dispatches_to_static_cut():
    g = build(4, 1, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    inst = Instance(g=g, s=0, z=3, k=2)
    result = solve_auto(inst)
    assert result.backend == "static-cut"
    assert result.separator.size == 2


def test_identical_layers_dispatch_to_static_cut():
    layer = [(0, 1), (1, 2), (2, 3)]
    g = from_layers(4, [layer, layer, layer])
    inst = Instance(g=g, s=0, z=3, k=1)
    result = solve_auto(inst)
    assert result.backend == "static-cut"
    assert result.separator is not None


def test_many_periods_dispatch_to_static_cut(g1):
    tiled = power(g1, g1.n + 1)
    inst = Instance(g=tiled, s=0, z=3, k=2)
    profile = classify(tiled)
    assert profile.periodic_r >= tiled.n
    result = solve_auto(inst)
    assert result.backend == "static-cut"
    assert result.separator.size == min_separator_bruteforce(inst).size


def test_few_periods_does_not_collapse(g1):
    """Two periods of the g1 block change the answer; the dispatcher must
    not use the static cut here (its minimum is 2, the true minimum 1)."""
    inst = Instance(g=g1, s=0, z=3, k=1)
    result = solve_auto(inst)
    assert result.backend == "search-tree"
    assert result.separator is not None and result.separator.size == 1


def _forced_reset_path_graph():
    """Path 0-1-2-3-4 with labels 1,2,1,2: its one underlying path needs a
    label descent, so no static-collapse rule applies (distance 1, period 1)."""
    return build(5, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)])


def test_ordering_hint_dispatches_to_interval_dp():
    inst = Instance(g=_forced_reset_path_graph(), s=0, z=4, k=1)
    result = solve_auto(inst, ordering=(0, 1, 2, 3, 4))
    assert result.backend == "interval-dp"
    assert result.separator.size == min_separator_bruteforce(inst).size


def test_incompatible_ordering_hint_falls_through():
    g = build(4, 2, [(0, 2, 1), (1, 3, 2)])
    inst = Instance(g=g, s=0, z=3, k=1)
    result = solve_auto(inst, ordering=(0, 1, 2, 3))
    assert result.backend != "interval-dp"


def test_td_hint_dispatches_to_treewidth_dp():
    g = _forced_reset_path_graph()
    inst = Instance(g=g, s=0, z=4, k=1)
    td = build_tree_decomposition(g.underlying(), 0, 4)
    result = solve_auto(inst, td=td)
    assert result.backend == "treewidth-dp"
    assert result.separator.size == min_separator_bruteforce(inst).size


def test_td_hint_over_cap_falls_back_to_search_tree(monkeypatch):
    g = _forced_reset_path_graph()
    inst = Instance(g=g, s=0, z=4, k=1)
    td = build_tree_decomposition(g.underlying(), 0, 4)
    monkeypatch.setattr(temposep.solvers.auto, "DEFAULT_WORK_CAP", 1)
    result = solve_auto(inst, td=td)
    assert result.backend == "search-tree"


def test_work_estimate_counts_canonical_colors_per_bag():
    # s reaches 1 at label 1 and 2 at label 2: labels {1, 2} give 1 four
    # colors and labels {2} give 2 three; the terminals have one each.
    g = build(4, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 2)])
    td = build_tree_decomposition(g.underlying(), 0, 3, external=([{0, 3}, {0, 1, 2, 3}], [(0, 1)]))
    assert [set(node.bag) for node in td.nodes] == [{0, 3}, {0, 1, 3}, {0, 1, 2, 3}, {0, 2, 3}, {0, 3}]
    assert treewidth_work_estimate(Instance(g=g, s=0, z=3, k=0), td) == 1 + 4 + 12 + 3 + 1


def test_work_estimate_drops_labels_before_the_arrival():
    # s reaches 1 only at label 2, so the walk prune keeps A_2, S and Z of
    # 1's labels {1, 2}, and drops 2's one edge (label 1), which comes too
    # early: s never reaches 2, which keeps only S and Z.
    g = build(4, 2, [(0, 1, 2), (1, 2, 1), (1, 3, 2)])
    td = build_tree_decomposition(g.underlying(), 0, 3, external=([{0, 3}, {0, 1, 2, 3}], [(0, 1)]))
    assert [set(node.bag) for node in td.nodes] == [{0, 3}, {0, 1, 3}, {0, 1, 2, 3}, {0, 2, 3}, {0, 3}]
    assert treewidth_work_estimate(Instance(g=g, s=0, z=3, k=0), td) == 1 + 3 + 6 + 2 + 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_work_estimate_is_at_most_the_product_over_all_labels(data):
    g = data.draw(late_arrival_graphs())
    order = data.draw(st.permutations(range(g.n)))
    under = g.underlying()
    td = build_tree_decomposition(under, 0, g.n - 1, external=elimination_decomposition(under, order))
    colors = [len({t for t, u, v in g.edges if w in (u, v)}) + 2 for w in range(g.n)]
    colors[0] = colors[g.n - 1] = 1
    all_labels = sum(prod(colors[v] for v in node.bag) for node in td.nodes)
    assert treewidth_work_estimate(Instance(g=g, s=0, z=g.n - 1, k=0), td) <= all_labels


def _ramped_ladder(rails, length, tau):
    """A rails x length grid between s = 0 and z = n-1 whose rail and rung
    labels ramp up with the column, so every rail is a temporal path."""
    n = rails * length + 2

    def ladder_vertex(r, i):
        return 1 + i * rails + r

    def ramp(i):
        return 1 + i * tau // length

    triples = []
    for r in range(rails):
        triples += [(0, ladder_vertex(r, 0), 1), (ladder_vertex(r, length - 1), n - 1, tau)]
        triples += [(ladder_vertex(r, i), ladder_vertex(r, i + 1), ramp(i)) for i in range(length - 1)]
    triples += [(ladder_vertex(r, i), ladder_vertex(r + 1, i), ramp(i)) for i in range(length) for r in range(rails - 1)]
    return build(n, tau, triples)


def test_wide_ladder_is_admitted_to_treewidth_dp():
    # The old (tau+2)^(width+2) estimate put this ladder far over the cap.
    g = _ramped_ladder(4, 40, 8)
    td = build_tree_decomposition(g.underlying(), 0, g.n - 1)
    assert (g.tau + 2) ** (td.width + 2) * len(td.nodes) > DEFAULT_WORK_CAP
    for k in (3, 4):
        inst = Instance(g=g, s=0, z=g.n - 1, k=k)
        assert treewidth_work_estimate(inst, td) <= DEFAULT_WORK_CAP
        result = solve_auto(inst, td=td)
        searched = solve_search_tree(inst)
        assert result.backend == "treewidth-dp"
        assert (result.separator is None) == (searched is None) == (k == 3)
        if searched is not None:
            assert result.separator.size == searched.size
            assert is_separator(inst, result.separator.vertices)


def test_ladder_solve_sweeps_forward_and_back_once_before_the_dp(monkeypatch):
    # The work estimate and the tables share one arrival sweep from s and one
    # reversed sweep from z, which `Instance.walk_labels` prunes with.
    g = _ramped_ladder(3, 12, 5)
    inst = Instance(g=g, s=0, z=g.n - 1, k=3)
    td = build_tree_decomposition(g.underlying(), 0, g.n - 1)
    sweeps = []
    at_dp = []
    real_sweep, real_dp = temposep.reachability._sweep, temposep.solvers.treewidth_dp.solve_treewidth_dp

    def counting_sweep(g, start, *args, reverse=False, **kwargs):
        sweeps.append((start, reverse))
        return real_sweep(g, start, *args, reverse=reverse, **kwargs)

    def noting_dp(*args, **kwargs):
        at_dp.append(len(sweeps))
        return real_dp(*args, **kwargs)

    monkeypatch.setattr(temposep.reachability, "_sweep", counting_sweep)
    monkeypatch.setattr(temposep.solvers.treewidth_dp, "solve_treewidth_dp", noting_dp)
    result = solve_auto(inst, td=td)
    assert result.backend == "treewidth-dp"
    assert at_dp == [2] and sorted(sweeps) == [(0, False), (g.n - 1, True)]


class _CountingEdges(tuple):
    """A time-edge tuple that counts the iterations over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("backend", ["static-cut", "search-tree", "interval-dp", "treewidth-dp"])
def test_every_backend_path_iterates_the_edges_once(backend):
    # The Instance builds `edge_labels`; after that every per-label reader
    # takes `g.layer_pairs`, the one grouping of the time-edges by label.
    labels = (1, 1, 1, 1) if backend == "static-cut" else (1, 2, 1, 2)
    base = build(5, 2, [(u, u + 1, t) for u, t in enumerate(labels)])
    edges = _CountingEdges(base.edges)
    inst = Instance(g=TemporalGraph(base.n, base.tau, edges), s=0, z=4, k=1)
    hints = {
        "interval-dp": {"ordering": tuple(range(5))},
        "treewidth-dp": {"td": build_tree_decomposition(inst.g.underlying(), 0, 4)},
    }.get(backend, {})
    edges.iterations = 0
    assert solve_auto(inst, **hints).backend == backend
    assert edges.iterations == 1


def test_generic_instance_without_hints_uses_search_tree(g1):
    assert solve_auto(Instance(g=g1, s=0, z=3, k=1)).backend == "search-tree"


@pytest.mark.parametrize("inst", random_instances(30, n_max=6, tau_max=3, seed0=4000))
def test_backend_agreement_with_oracle(inst):
    """Whatever backend auto picks must reproduce the oracle verdict."""
    best = min_separator_bruteforce(inst)
    yes = solve_auto(Instance(inst.g, inst.s, inst.z, best.size))
    assert yes.separator is not None and yes.separator.size <= best.size
    assert is_separator(inst, yes.separator.vertices)
    if best.size > 0:
        no = solve_auto(Instance(inst.g, inst.s, inst.z, best.size - 1))
        assert no.separator is None


@pytest.mark.parametrize("seed", range(10))
def test_monotone_corpus_agreement(seed):
    inst = generate(
        GenSpec(n=5, tau=4, edge_prob=0.4, constraint=MonotoneConstraint(1), seed=seed)
    )
    best = min_separator_bruteforce(inst)
    result = solve_auto(Instance(inst.g, inst.s, inst.z, best.size))
    assert result.backend == "static-cut"  # single-peaked
    assert result.separator.size == best.size


@pytest.mark.parametrize("seed", range(25))
def test_all_applicable_backends_agree(seed):
    """On identity-compatible instances, every backend finds the same size."""
    from temposep import check_order_compatible, solve_interval_dp, solve_search_tree, solve_treewidth_dp
    from temposep.generators import UnitIntervalConstraint

    inst = generate(
        GenSpec(n=5 + seed % 3, tau=1 + seed % 4, edge_prob=0.45,
                constraint=UnitIntervalConstraint(), seed=9000 + seed)
    )
    assert check_order_compatible(inst.g, tuple(range(inst.g.n))) is None
    oracle_size = min_separator_bruteforce(inst).size
    # At exactly the oracle budget, a bounded backend's witness is minimum.
    inst = Instance(inst.g, inst.s, inst.z, oracle_size)
    td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
    found = {
        "interval": solve_interval_dp(inst, tuple(range(inst.g.n))),
        "treewidth": solve_treewidth_dp(inst, td),
        "search-tree": solve_search_tree(inst),
        "auto": solve_auto(inst).separator,
    }
    assert {sep.size for sep in found.values()} == {oracle_size}, found
    for sep in found.values():
        assert is_separator(inst, sep.vertices)


def _backend_witnesses(inst):
    identity = tuple(range(inst.g.n))
    try:
        interval = solve_interval_dp(inst, identity)
    except IncompatibleOrdering:
        interval = "incompatible"
    td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
    return {
        "search-tree": solve_search_tree(inst),
        "search-tree strict": solve_search_tree(inst, strict=True),
        "static-cut": static_min_vertex_cut(inst.g.underlying(), inst.s, inst.z),
        "interval": interval,
        "treewidth": solve_treewidth_dp(inst, td),
    }


@given(instance_graphs(max_n=6, max_tau=3), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_labels_apart_changes_no_witness(g, data):
    """Backends read only the order of the labels: a strictly increasing
    relabelling with gaps, plus trailing empty labels, changes no witness."""
    relabel = list(accumulate(data.draw(st.lists(st.integers(1, 4), min_size=g.tau, max_size=g.tau))))
    tau = relabel[-1] + data.draw(st.integers(0, 5))
    spread = build(g.n, tau, [(u, v, relabel[t - 1]) for t, u, v in g.edges])
    k = data.draw(st.integers(0, g.n - 2))
    before = _backend_witnesses(Instance(g=g, s=0, z=g.n - 1, k=k))
    assert _backend_witnesses(Instance(g=spread, s=0, z=g.n - 1, k=k)) == before


def _collapses(g):
    """Rules 1-2, read off the full `classify` profile."""
    profile = classify(g)
    return (
        (profile.monotone is not None and len(profile.monotone.peaks) == 1)
        or profile.periodic_p in (0, 1)
        or profile.periodic_r >= g.n
    )


def _reference_auto(inst, ordering=None, td=None):
    """The dispatcher's rules, in order, read off the full `classify` profile."""

    def within_budget(sep):
        return sep if sep.size <= inst.k else None

    if _collapses(inst.g):
        cut = Separator(static_min_vertex_cut(inst.g.underlying(), inst.s, inst.z))
        return AutoResult(within_budget(cut), "static-cut")
    if ordering is not None:
        try:
            return AutoResult(within_budget(solve_interval_dp(inst, ordering)), "interval-dp")
        except IncompatibleOrdering:
            pass
    if td is not None and treewidth_work_estimate(inst, td) <= temposep.solvers.auto.DEFAULT_WORK_CAP:
        return AutoResult(within_budget(solve_treewidth_dp(inst, td)), "treewidth-dp")
    return AutoResult(solve_search_tree(inst), "search-tree")


@st.composite
def _ordered_queries(draw):
    """A graph, an ordering (compatible with every layer, or the identity,
    which may not be) and two terminals with no time-edge between them."""
    identity_ordered = instance_graphs().map(lambda g: (g, tuple(range(g.n))))
    g, ordering = draw(st.one_of(indifference_graphs(max_n=6), identity_ordered))
    pairs = [(s, z) for s in range(g.n) for z in range(s + 1, g.n) if (s, z) not in g.edge_labels]
    assume(pairs)
    s, z = draw(st.sampled_from(pairs))
    return g, ordering, s, z


@given(_ordered_queries())
@settings(max_examples=80, deadline=None)
def test_exact_backends_return_their_minimum_at_every_budget(query):
    """At every k, the two DPs return the oracle minimum and the static cut is
    the minimum where rules 1-2 fire; `run_solve` answers yes for an exact
    backend exactly when its minimum fits k, with that minimum as witness."""
    from temposep.cli import run_solve

    g, ordering, s, z = query
    minimum = min_separator_bruteforce(Instance(g, s, z, 0)).size
    cut = len(static_min_vertex_cut(g.underlying(), s, z))
    if _collapses(g):
        assert cut == minimum
    td = build_tree_decomposition(g.underlying(), s, z)
    minima = {"brute": minimum, "treewidth": minimum, "static-cut": cut}
    if check_order_compatible(g, ordering) is None:
        minima["interval"] = minimum
    for k in range(g.n + 1):
        inst = Instance(g, s, z, k)
        assert solve_treewidth_dp(inst, td).size == minimum
        if "interval" in minima:
            assert solve_interval_dp(inst, ordering).size == minimum
        for algo, best in minima.items():
            result = run_solve(inst, algo, ordering=ordering)
            assert result.verdict == (best <= k), (algo, k)
            assert result.separator is None or result.separator.size == best, (algo, k)


_FAMILIES = [
    lambda n, tau: None,
    lambda n, tau: UnitIntervalConstraint(),
    lambda n, tau: PeriodicConstraint(2, tau // 2),
    lambda n, tau: PeriodicConstraint(1, tau),
    lambda n, tau: SteadyConstraint(2),
    lambda n, tau: MonotoneConstraint(1),
    lambda n, tau: MonotoneConstraint(2),
]
_MONOTONE_N, _MONOTONE_TAU = 5, 4  # few vertices cannot realize long monotone runs


def _differential_instances(seed):
    """Seeded generator graphs of every family, n 3..12, with tau = 0 cases."""
    n = 3 + seed % 10
    if seed % 17 == 0:
        return [Instance(g=build(n, 0, []), s=0, z=n - 1, k=0)]
    family = _FAMILIES[seed % len(_FAMILIES)]
    tau = 2 * (1 + seed % 5) if seed % 3 else 2 * n
    if isinstance(family(n, tau), MonotoneConstraint):
        n, tau = max(n, _MONOTONE_N), _MONOTONE_TAU
    spec = GenSpec(n=n, tau=tau, edge_prob=0.2 + 0.1 * (seed % 4), constraint=family(n, tau), seed=700 + seed)
    inst = generate(spec)
    return [Instance(inst.g, inst.s, inst.z, k) for k in range(3)]


@pytest.mark.parametrize("seed", range(70))
def test_dispatch_matches_reference_over_classify(seed, monkeypatch):
    """Same witness and backend as the dispatcher written over `classify`,
    and no dispatch rule enumerates temporal paths."""

    def refuse(*args, **kwargs):
        raise AssertionError("dispatch enumerated temporal paths")

    monkeypatch.setattr(temposep.solvers.auto, "DEFAULT_WORK_CAP", 10**6)
    monkeypatch.setattr(temposep.oracle, "enumerate_temporal_paths", refuse)
    for inst in _differential_instances(seed):
        identity = tuple(range(inst.g.n))
        hints = [{}, {"ordering": identity}, {"ordering": identity[::-1]}]
        if inst.g.n <= 6:
            hints.append({"td": build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)})
        for hint in hints:
            assert solve_auto(inst, **hint) == _reference_auto(inst, **hint), (seed, inst.k, sorted(hint))


def test_dispatch_never_runs_the_detectors_it_does_not_read(monkeypatch):
    def refuse(g):
        raise AssertionError("solve_auto ran a detector none of its rules reads")

    monkeypatch.setattr(temposep.classes, "_detect_steady", refuse)
    monkeypatch.setattr(temposep.classes, "_detect_interval_connected", refuse)
    backends = set()
    for seed in range(70):
        for inst in _differential_instances(seed):
            backends.add(solve_auto(inst, ordering=tuple(range(inst.g.n))).backend)
    assert backends == {"static-cut", "interval-dp", "search-tree"}

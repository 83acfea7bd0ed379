import random

import pytest
from conftest import random_instances
from strategies import concat, power, static_graph

from temposep import Instance, build, classify, from_layers, min_separator_bruteforce, oracle, reductions
from temposep.errors import DegreeTooSmall, LayersNotEqual
from temposep.reductions import (
    ReductionReport,
    add_universal_vertex,
    complete_but_one,
    is_claw_free,
    line_graph_gadget,
    one_edge_per_layer,
    pad_monotone,
    steadyify,
)

CORPUS = random_instances(20, n_max=6, tau_max=3, seed0=7000)


class TestOneEdgePerLayer:
    def test_two_edge_layer_becomes_four_sublayers(self):
        g = from_layers(4, [[(0, 1), (1, 2)]])
        out, report = one_edge_per_layer(Instance(g=g, s=0, z=3, k=0))
        assert out.g.tau == 4  # |E|^2 sub-layers for one layer with two edges
        assert report.all_passed

    def test_edgeless_layers_contribute_nothing(self):
        g = from_layers(3, [[(0, 1)], [], [(0, 1)]])
        out, _ = one_edge_per_layer(Instance(g=g, s=0, z=2, k=0))
        assert out.g.tau == 2

    @pytest.mark.parametrize("inst", CORPUS)
    def test_structure_and_equivalence(self, inst):
        out, report = one_edge_per_layer(inst)
        assert report.all_passed
        assert out.g.tau <= inst.g.tau * inst.g.n**4
        assert all(len(es) <= 1 for es in out.g.layer_edge_sets)
        assert min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size


class TestCompleteButOne:
    @pytest.mark.parametrize("inst", CORPUS)
    def test_structure_and_equivalence(self, inst):
        out, report = complete_but_one(inst)
        assert report.all_passed
        n = inst.g.n
        assert len(out.g.underlying().edges) == n * (n - 1) // 2 - 1
        assert out.g.tau == inst.g.tau + 2
        assert min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size

    def test_already_dense_input(self):
        g = build(4, 1, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
        inst = Instance(g=g, s=0, z=3, k=2)
        out, report = complete_but_one(inst)
        assert report.all_passed
        assert min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size


class TestPadMonotone:
    def test_tau_two_gets_empty_middle(self):
        g = from_layers(3, [[(0, 1)], [(1, 2)]])
        out, report = pad_monotone(Instance(g=g, s=0, z=2, k=0))
        assert out.g.tau == 3
        assert out.g.layer_edge_sets[1] == frozenset()
        assert report.all_passed

    def test_tau_one_unchanged(self):
        g = from_layers(3, [[(0, 1)]])
        inst = Instance(g=g, s=0, z=2, k=0)
        out, report = pad_monotone(inst)
        assert out.g == g and report.all_passed

    @pytest.mark.parametrize("inst", CORPUS)
    def test_structure_and_equivalence(self, inst):
        out, report = pad_monotone(inst)
        assert report.all_passed
        assert min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size


class TestAddUniversalVertex:
    @pytest.mark.parametrize("inst", CORPUS)
    def test_structure_and_equivalence(self, inst):
        out, report = add_universal_vertex(inst)
        assert report.all_passed
        assert classify(out.g).interval_connected_max_t == out.g.tau
        assert (
            min_separator_bruteforce(out).size
            == min_separator_bruteforce(inst).size + 1
        )

    def test_edgeless_input_yields_star_with_hub_cut(self):
        g = build(3, 2, [])
        out, report = add_universal_vertex(Instance(g=g, s=0, z=2, k=0))
        assert report.all_passed
        best = min_separator_bruteforce(out)
        assert best.sorted() == [3]  # the hub


class TestSteadyify:
    @pytest.mark.parametrize("inst", CORPUS)
    def test_structure_and_equivalence(self, inst):
        out, report = steadyify(inst)
        assert report.all_passed
        assert classify(out.g).steady_lambda <= 1
        total = sum(len(es) for es in inst.g.layer_edge_sets)
        assert out.g.tau == 2 * total + 1
        assert min_separator_bruteforce(out).size == min_separator_bruteforce(inst).size

    def test_edgeless_input_gives_single_empty_layer(self):
        g = build(3, 2, [])
        out, report = steadyify(Instance(g=g, s=0, z=2, k=0))
        assert out.g.tau == 1 and not out.g.edges
        assert classify(out.g).steady_lambda == 0
        assert report.all_passed


def line_graph_corpus():
    """Small strict instances with equal layers and min degree 2."""
    shapes = [
        static_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # 4-cycle
        static_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),  # 5-cycle
        static_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),  # cycle + chord
        static_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]),
    ]
    out = []
    for shape in shapes:
        for tau in (1, 2):
            layers = [sorted(shape.edges)] * tau
            g = from_layers(shape.n, layers)
            out.append(Instance(g=g, s=0, z=2, k=shape.n))
    return out


class TestLineGraphGadget:
    def test_equal_layers_required(self):
        g = from_layers(4, [[(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1)]])
        with pytest.raises(LayersNotEqual):
            line_graph_gadget(Instance(g=g, s=0, z=2, k=1))

    def test_min_degree_two_required(self):
        g = from_layers(3, [[(0, 1), (1, 2)]])
        with pytest.raises(DegreeTooSmall, match="vertex 0"):
            line_graph_gadget(Instance(g=g, s=0, z=2, k=1))

    def test_is_claw_free_detects_claws(self):
        star = static_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_claw_free(star)
        triangle = static_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_claw_free(triangle)

    @pytest.mark.parametrize("inst", line_graph_corpus())
    def test_structure_and_strict_to_nonstrict_equivalence(self, inst, monkeypatch):
        out, report = line_graph_gadget(inst)
        assert report.all_passed
        assert is_claw_free(out.g.underlying())
        strict_min = min_separator_bruteforce(inst, strict=True)
        monkeypatch.setattr(oracle, "BRUTE_FORCE_MAX_N", 64)  # the gadget outgrows the default guard
        nonstrict_min = min_separator_bruteforce(out, strict=False)
        assert nonstrict_min.size == strict_min.size

    @pytest.mark.parametrize("inst", line_graph_corpus()[:4], ids=["4-cycle-1", "4-cycle-2", "5-cycle-1", "5-cycle-2"])
    def test_clique_check_reads_the_output(self, inst, monkeypatch):
        """A built output missing one carrier-carrier stilt fails the clique check.

        Hub v is vertex v and sees only its carriers, so the first label-1
        edge whose ends are both hub neighbours joins two carriers of one
        clique.  On a cycle every clique is a triangle, so the output stays
        claw-free and only the clique check can notice.
        """

        def build_without_one_stilt(n, tau, triples):
            g = build(n, tau, triples)
            carriers = {v for t, u, v in g.edges if u < inst.g.n}
            drop = next((u, v, 1) for t, u, v in g.edges if t == 1 and {u, v} <= carriers)
            return build(n, tau, [(u, v, t) for t, u, v in g.edges if (u, v, t) != drop])

        monkeypatch.setattr(reductions, "build", build_without_one_stilt)
        _, report = line_graph_gadget(inst)
        assert report.checks == {
            "underlying_is_claw_free": True,
            "clique_sizes_are_degree_plus_one": False,
            "tau_is_2tau_plus_2": True,
        }

    def test_carrier_cliques_have_degree_plus_one_vertices(self):
        inst = line_graph_corpus()[0]
        out, report = line_graph_gadget(inst)
        under = inst.g.underlying()
        # per original vertex: one hub + one carrier per incident edge
        expected = sum(under.degree(v) + 1 for v in range(inst.g.n))
        hubs_and_carriers = out.g.n - 4 * len(under.edges)
        assert hubs_and_carriers == expected


def recipe_instances(count: int, seed: int = 17000) -> list[Instance]:
    """Random instances with n 2..7 and tau 0..5; about a third of the layers are empty."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, tau = rng.randint(2, 7), rng.randint(0, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, n - 1)]
        triples = []
        for t in range(1, tau + 1):
            if rng.random() < 0.3:
                continue
            triples.extend((u, v, t) for u, v in pairs if rng.random() < 0.4)
        out.append(Instance(build(n, tau, triples), 0, n - 1, rng.randint(0, n)))
    return out


def one_edge_recipe(g):
    """Each non-empty layer with m edges as the m-th power of its m single-edge layers, concatenated."""
    out = build(g.n, 0, [])
    for es in g.layer_edge_sets:
        if es:
            out = concat(out, power(from_layers(g.n, [[e] for e in sorted(es)]), len(es)))
    return out


def pad_recipe(g):
    """Each input layer followed by an empty one, except the last."""
    layers = []
    for es in g.layer_edge_sets:
        layers += [es, ()]
    return from_layers(g.n, layers[:-1])


def steady_recipe(g):
    """An empty layer, then per input layer its build-up and tear-down runs."""
    layers = [()]
    for es in g.layer_edge_sets:
        ordered = sorted(es)
        layers += [ordered[: i + 1] for i in range(len(ordered))]
        layers += [ordered[i + 1 :] for i in range(len(ordered))]
    return from_layers(g.n, layers)


@pytest.mark.parametrize("inst", recipe_instances(320))
def test_relabelled_outputs_match_the_layer_recipes(inst):
    g = inst.g
    one = one_edge_recipe(g)
    pad = pad_recipe(g)
    steady = steady_recipe(g)
    expected = {
        one_edge_per_layer: (
            one,
            ["at_most_one_edge_per_layer", "tau_within_n4_bound", "underlying_preserved"],
            {"tau_out": one.tau, "tau_bound": g.tau * g.n**4},
        ),
        pad_monotone: (
            pad,
            ["tau_is_2tau_minus_1", "odd_layers_copy_input", "even_layers_empty"],
            {"tau_out": pad.tau},
        ),
        steadyify: (
            steady,
            ["output_is_at_most_1_steady", "tau_is_2m_plus_1", "underlying_preserved"],
            {"steady_lambda": classify(steady).steady_lambda, "tau_out": steady.tau},
        ),
    }
    for reduce, (out_g, checks, details) in expected.items():
        out, report = reduce(inst)
        assert out == Instance(out_g, inst.s, inst.z, inst.k)
        assert report == ReductionReport(0, dict.fromkeys(checks, True), details)
    for x in range(1, 6):
        folded = g
        for _ in range(x - 1):
            folded = concat(folded, g)
        assert power(g, x) == folded

import pytest
from conftest import random_instances
from strategies import static_graph

from temposep import Instance, build, classify, from_layers, min_separator_bruteforce, oracle
from temposep.errors import DegreeTooSmall, LayersNotEqual
from temposep.reductions import (
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

    def test_carrier_cliques_have_degree_plus_one_vertices(self):
        inst = line_graph_corpus()[0]
        out, report = line_graph_gadget(inst)
        under = inst.g.underlying()
        # per original vertex: one hub + one carrier per incident edge
        expected = sum(under.degree(v) + 1 for v in range(inst.g.n))
        hubs_and_carriers = out.g.n - 4 * len(under.edges)
        assert hubs_and_carriers == expected

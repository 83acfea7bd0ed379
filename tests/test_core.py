import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import concat, power, small_graphs

from temposep import TimeEdge, build, from_layers
from temposep.core import adjacency_lists, is_connected, reachable
from temposep.errors import LabelOutOfRange, SelfLoop, VertexOutOfRange


class TestBuild:
    def test_canonicalizes_given_list(self, g1):
        assert g1.raw_triples() == [(0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2)]
        assert g1.n == 4 and g1.tau == 2

    def test_input_order_irrelevant_and_duplicates_collapse(self, g1):
        shuffled = build(4, 2, [(3, 1, 2), (2, 0, 2), (0, 1, 1), (1, 0, 1), (2, 3, 1)])
        assert shuffled == g1

    def test_empty(self):
        g = build(2, 1, [])
        assert g.edges == ()

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop, match=r"\(0,0,1\)"):
            build(3, 1, [(0, 0, 1)])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange, match=r"\(0,1,3\)"):
            build(3, 2, [(0, 1, 3)])
        with pytest.raises(LabelOutOfRange):
            build(3, 2, [(0, 1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange, match=r"\(0,3,1\)"):
            build(3, 1, [(0, 3, 1)])

    def test_negative_header_fields(self):
        with pytest.raises(VertexOutOfRange, match="vertex count -1 is negative"):
            build(-1, 1, [])
        with pytest.raises(LabelOutOfRange, match="max label -1 is negative"):
            build(3, -1, [])

    @given(small_graphs())
    def test_idempotent(self, g):
        assert build(g.n, g.tau, g.raw_triples()) == g


class TestViews:
    def test_layers(self, g1):
        assert g1.layer_edge_sets == (frozenset({(0, 1), (2, 3)}), frozenset({(1, 3), (0, 2)}))

    def test_layer_of_edgeless(self):
        g = build(2, 1, [])
        assert g.layer_edge_sets == (frozenset(),)

    def test_underlying_is_union(self, g1):
        assert g1.underlying().edges == frozenset({(0, 1), (1, 3), (2, 3), (0, 2)})

    def test_underlying_collapses_duplicates_across_time(self):
        g = build(2, 2, [(0, 1, 1), (0, 1, 2)])
        assert g.underlying().edges == frozenset({(0, 1)})

    def test_views_build_only_labels_with_edges(self, sparse_labels):
        assert [t for t, _ in sparse_labels.layer_pairs] == [1, 2, 3, 4]
        assert [t for t, _ in sparse_labels.layer_adjacency] == [1, 2, 3, 4]
        sets = sparse_labels.layer_edge_sets
        assert len(sets) == 250000
        assert len({id(es) for es in sets}) == 5
        assert all(es is sets[-1] for es in sets[4:]) and sets[-1] == frozenset()

    @given(small_graphs())
    def test_layers_union_to_underlying(self, g):
        union = frozenset().union(*g.layer_edge_sets)
        assert union == g.underlying().edges
        for es in g.layer_edge_sets:
            assert es <= g.underlying().edges
        grouped = {}
        for t, u, v in g.edges:
            grouped.setdefault(t, []).append((u, v))
        assert g.layer_pairs == tuple((t, tuple(pairs)) for t, pairs in grouped.items())
        by_label = dict(g.layer_pairs)
        assert g.layer_edge_sets == tuple(frozenset(by_label.get(t, ())) for t in range(1, g.tau + 1))
        assert g.layer_adjacency == tuple((t, adjacency_lists(pairs)) for t, pairs in g.layer_pairs)


def test_is_connected_on_edge_lists():
    assert is_connected(0, []) and is_connected(1, [])
    assert is_connected(3, [(2, 1), (0, 1)])
    assert not is_connected(3, [(0, 1)])


def test_reachable_is_the_sources_component():
    assert reachable([(0, 1), (2, 1), (3, 4)], 0) == {0, 1, 2}
    assert reachable(iter([(3, 4)]), 4) == {3, 4}
    assert reachable([], 5) == {5}
    assert not is_connected(4, [(0, 1), (2, 3), (0, 1)])


class TestDeleteVertices:
    def test_incidence_filter_with_remap(self, g1):
        reduced, remap = g1.delete_vertices({1})
        assert reduced.n == 3 and reduced.tau == 2
        assert remap == {0: 0, 2: 1, 3: 2}
        assert reduced.raw_triples() == [(1, 2, 1), (0, 1, 2)]

    def test_empty_deletion_is_identity(self, g1):
        reduced, remap = g1.delete_vertices(set())
        assert reduced == g1
        assert remap == {v: v for v in range(4)}

    def test_total_deletion(self, g1):
        reduced, remap = g1.delete_vertices({0, 1, 2, 3})
        assert reduced.n == 0 and reduced.edges == () and remap == {}

    def test_out_of_range(self, g1):
        with pytest.raises(VertexOutOfRange):
            g1.delete_vertices({7})

    @given(small_graphs(), st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_composition(self, g, a, b):
        a = {v for v in a if v < g.n}
        b = {v for v in b if v < g.n} - a
        joint, _ = g.delete_vertices(a | b)
        first, remap = g.delete_vertices(a)
        second, _ = first.delete_vertices({remap[v] for v in b})
        assert second == joint


class TestConcatPower:
    def test_power_shifts_labels(self):
        g = build(2, 1, [(0, 1, 1)])
        assert power(g, 3).raw_triples() == [(0, 1, 1), (0, 1, 2), (0, 1, 3)]
        assert power(g, 3).tau == 3

    def test_concat_with_edgeless_pads_tau(self, g1):
        pad = build(4, 2, [])
        out = concat(g1, pad)
        assert out.tau == 4
        assert out.edges == g1.edges

    def test_power_one_is_identity(self, g1):
        assert power(g1, 1) == g1

    @given(small_graphs(max_n=4), small_graphs(max_n=4))
    def test_concat_tau_and_layer_isomorphism(self, a, b):
        if a.n != b.n:
            a = build(4, a.tau, [t for t in a.raw_triples() if t[0] < 4 and t[1] < 4])
            b = build(4, b.tau, [t for t in b.raw_triples() if t[0] < 4 and t[1] < 4])
        joined = concat(a, b)
        assert joined.tau == a.tau + b.tau
        assert joined.layer_edge_sets == a.layer_edge_sets + b.layer_edge_sets


def test_from_layers_round_trip(g1):
    rebuilt = from_layers(4, [g1.layer_edge_sets[0], g1.layer_edge_sets[1]])
    assert rebuilt == g1


def test_time_edge_ordering():
    assert TimeEdge(1, 0, 2) < TimeEdge(1, 1, 2) < TimeEdge(2, 0, 1)


def test_time_edge_is_a_t_u_v_tuple():
    e = TimeEdge(2, 0, 1)
    t, u, v = e
    assert (t, u, v) == (2, 0, 1) and e == (2, 0, 1)
    assert (e.t, e.u, e.v) == (2, 0, 1)
    assert repr(e) == "TimeEdge(t=2, u=0, v=1)"
    edges = [TimeEdge(2, 0, 1), TimeEdge(1, 1, 2), TimeEdge(1, 0, 2)]
    assert sorted(edges) == sorted(tuple(x) for x in edges) == [(1, 0, 2), (1, 1, 2), (2, 0, 1)]


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4)), max_size=30).map(
        lambda raw: [e for e in raw if e[0] != e[1]]
    ),
    st.randoms(use_true_random=False),
)
def test_build_sorts_canonical_triples(raw, rng):
    noisy = [(v, u, t) if rng.random() < 0.5 else (u, v, t) for u, v, t in raw + raw]
    rng.shuffle(noisy)
    g = build(6, 4, noisy)
    assert all(type(e) is TimeEdge for e in g.edges)
    assert list(g.edges) == sorted({(t, min(u, v), max(u, v)) for u, v, t in raw})

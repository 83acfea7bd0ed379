"""Contracts of the named-tuple value types: validation, immutability, repr, hashing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from strategies import small_graphs

import temposep.reductions as reductions
from temposep import Instance, Separator, StaticGraph, build
from temposep.errors import SelfLoop, TerminalEdgePresent, VertexOutOfRange
from temposep.reachability import UNREACHED


def test_instance_validates_on_construction(g1):
    with pytest.raises(TerminalEdgePresent):
        Instance(build(3, 1, [(0, 2, 1)]), 0, 2, 1)
    with pytest.raises(VertexOutOfRange):
        Instance(g1, 0, 4, 1)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        Instance(g=g1, s=0, z=3, k=-1)


def test_static_graph_validates_on_construction():
    with pytest.raises(SelfLoop):
        StaticGraph(3, frozenset({(1, 1)}))
    with pytest.raises(VertexOutOfRange):
        StaticGraph(3, frozenset({(1, 3)}))
    with pytest.raises(VertexOutOfRange, match="not canonical"):
        StaticGraph(3, frozenset({(2, 1)}))
    with pytest.raises(VertexOutOfRange):
        StaticGraph(3, frozenset({(-1, 2)}))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_underlying_equals_the_validated_construction(g):
    # underlying() skips the per-pair check; a built graph's pairs pass it.
    under = g.underlying()
    checked = StaticGraph(g.n, frozenset(g.edge_labels))
    assert type(under) is StaticGraph and under == checked and hash(under) == hash(checked)
    assert under.adjacency == checked.adjacency


def test_reduction_output_is_validated_again(monkeypatch):
    inst = Instance(build(4, 1, [(0, 1, 1), (1, 3, 1)]), 0, 3, 1)
    # A construction that wrongly joined the terminals must not pass unchecked.
    monkeypatch.setattr(reductions, "build", lambda n, tau, triples: build(4, 1, [(0, 3, 1)]))
    with pytest.raises(TerminalEdgePresent):
        reductions.one_edge_per_layer(inst)


def test_fields_cannot_be_reassigned(g1):
    inst = Instance(g1, 0, 3, 1)
    for obj, field in ((g1, "n"), (g1.underlying(), "edges"), (inst, "k"), (Separator(frozenset({1})), "vertices")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_repr_is_unchanged_by_cached_views():
    g = build(3, 2, [(0, 1, 1), (1, 2, 2)])
    expected = "TemporalGraph(n=3, tau=2, edges=(TimeEdge(t=1, u=0, v=1), TimeEdge(t=2, u=1, v=2)))"
    assert repr(g) == expected
    g.edge_labels, g.layer_adjacency  # fill the cached views
    assert repr(g) == expected
    assert repr(Separator(frozenset({2}))) == "Separator(vertices=frozenset({2}))"


def test_instance_arrival_is_a_cached_view():
    # 0-1 at label 2, 1-2 at label 1 (too early to relay), 1-3 at label 2.
    inst = Instance(build(4, 2, [(0, 1, 2), (1, 2, 1), (1, 3, 2)]), 0, 3, 1)
    before = repr(inst)
    assert inst.arrival == (0, 2, UNREACHED, 2) and inst.arrival is inst.arrival
    assert repr(inst) == before and inst == Instance(inst.g, 0, 3, 1)
    assert hash(inst) == hash(Instance(inst.g, 0, 3, 1))


def test_equal_graphs_hash_equal():
    a = build(4, 2, [(0, 1, 1), (2, 3, 2)])
    b = build(4, 2, [(3, 2, 2), (1, 0, 1), (0, 1, 1)])
    a.layer_edge_sets  # a cached view does not take part in equality or hashing
    assert a == b and hash(a) == hash(b)
    assert a.underlying() == b.underlying() and hash(a.underlying()) == hash(b.underlying())
    assert hash(Instance(a, 0, 3, 1)) == hash(Instance(b, 0, 3, 1))
    assert Separator(frozenset({1, 2})).size == 2

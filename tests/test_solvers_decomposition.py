import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings

from temposep.errors import DecompositionMismatch, InvalidDecomposition, VertexOutOfRange
from temposep.solvers import (
    build_tree_decomposition,
    minfill_tree_decomposition,
    validate_tree_decomposition,
)

from strategies import static_graph
from test_solvers_static_cut import small_static


def nice_form_violations(td, graph, s, z):
    """All nice-tree-decomposition properties, checked from scratch."""
    problems = []
    for i, node in enumerate(td.nodes):
        if s not in node.bag or z not in node.bag:
            problems.append(f"node {i} misses a terminal")
        if node.kind == "leaf":
            if node.children or node.bag != frozenset({s, z}):
                problems.append(f"bad leaf {i}")
        elif node.kind == "introduce":
            (c,) = node.children
            if td.nodes[c].bag | {node.vertex} != node.bag or node.vertex in td.nodes[c].bag:
                problems.append(f"bad introduce {i}")
        elif node.kind == "forget":
            (c,) = node.children
            if node.bag | {node.vertex} != td.nodes[c].bag or node.vertex in node.bag:
                problems.append(f"bad forget {i}")
        elif node.kind == "join":
            a, b = node.children
            if td.nodes[a].bag != node.bag or td.nodes[b].bag != node.bag:
                problems.append(f"bad join {i}")
        else:
            problems.append(f"unknown kind {node.kind}")
    # rooted order: children before parents, one parent each, so the root is last
    listed = sorted(c for i, node in enumerate(td.nodes) for c in node.children if c < i)
    if listed != list(range(len(td.nodes) - 1)):
        problems.append("some non-root node is not exactly one earlier node's child")
    # occurrence connectivity + edge coverage on the nice tree
    parent = {}
    for i, node in enumerate(td.nodes):
        for c in node.children:
            parent[c] = i
    for v in range(graph.n):
        occ = [i for i, node in enumerate(td.nodes) if v in node.bag]
        if v in (s, z):
            continue
        if not occ:
            problems.append(f"vertex {v} nowhere")
            continue
        occ_set = set(occ)
        roots = [i for i in occ if parent.get(i) not in occ_set]
        if len(roots) != 1:
            problems.append(f"vertex {v} occurrences disconnected")
    for u, v in graph.edges:
        if not any(u in node.bag and v in node.bag for node in td.nodes):
            problems.append(f"edge ({u},{v}) uncovered")
    return problems


def test_four_cycle_width():
    g = static_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    bags, edges = minfill_tree_decomposition(g)
    validate_tree_decomposition(bags, edges, g)
    assert max(len(b) for b in bags) - 1 <= 2
    td = build_tree_decomposition(g, 0, 2)
    assert all(len(node.bag) <= 4 for node in td.nodes)
    assert not nice_form_violations(td, g, 0, 2)


def test_tree_input_has_width_one():
    g = static_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    bags, edges = minfill_tree_decomposition(g)
    validate_tree_decomposition(bags, edges, g)
    assert max(len(b) for b in bags) - 1 == 1


def test_external_validation_names_disconnected_vertex():
    g = static_graph(3, [(0, 1), (1, 2)])
    bags = [{0, 1}, {1, 2}, {0}]  # vertex 0 occurs in bags 0 and 2, not adjacent
    edges = [(0, 1), (1, 2)]
    with pytest.raises(InvalidDecomposition, match="vertex 0"):
        validate_tree_decomposition(bags, edges, g)


def test_external_validation_names_uncovered_edge():
    g = static_graph(3, [(0, 1), (1, 2), (0, 2)])
    bags = [{0, 1}, {1, 2}]
    edges = [(0, 1)]
    with pytest.raises(DecompositionMismatch, match=r"\(0,2\)"):
        validate_tree_decomposition(bags, edges, g)


@pytest.mark.parametrize("edge", [(0, 5), (-1, 1)])
def test_external_validation_names_unknown_bag(edge):
    g = static_graph(3, [(0, 1), (1, 2)])
    message = rf"tree edge \({edge[0]},{edge[1]}\) references unknown bag"
    with pytest.raises(InvalidDecomposition, match=message):
        build_tree_decomposition(g, 0, 2, external=([{0, 1}, {1, 2}], [edge]))


@pytest.mark.parametrize(
    "edges, message",
    [([(0, 1)], "4 bags need 3 tree edges, got 1"), ([(0, 1), (1, 2), (2, 0)], "bag tree is not connected")],
)
def test_external_validation_rejects_a_bag_graph_that_is_no_tree(edges, message):
    g = static_graph(4, [(0, 1), (1, 2), (2, 3)])
    bags = [{0, 1}, {1, 2}, {1, 2}, {2, 3}]
    with pytest.raises(InvalidDecomposition, match=message):
        validate_tree_decomposition(bags, edges, g)


def test_external_validation_rejects_no_bags():
    g = static_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidDecomposition, match="decomposition has no bags"):
        build_tree_decomposition(g, 0, 2, external=([], []))


@pytest.mark.parametrize("bag", [{0, 3}, {-1, 0}])
def test_external_validation_names_an_out_of_range_bag_vertex(bag):
    # A vertex past g's count fits a larger graph, a misfit; a negative one
    # fits none.
    g = static_graph(3, [(0, 1), (1, 2)])
    outside = min(v for v in bag if not 0 <= v < 3)
    error = InvalidDecomposition if outside < 0 else DecompositionMismatch
    with pytest.raises(error, match=f"bag 1 contains out-of-range vertex {outside}"):
        validate_tree_decomposition([{0, 1, 2}, bag], [(0, 1)], g)


def test_a_decomposition_for_more_vertices_is_a_misfit():
    g = static_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DecompositionMismatch, match="bag 0 contains out-of-range vertex 3"):
        build_tree_decomposition(g, 0, 2, external=([{0, 1, 2, 3}], []))


@pytest.mark.parametrize(
    "bags, error, missing",
    [([{0, 1}, {1, 2}], DecompositionMismatch, 3), ([{0, 1}, {1, 3}], InvalidDecomposition, 2)],
    ids=["above-every-bag-vertex", "interior-hole"],
)
def test_a_vertex_in_no_bag_is_a_misfit_only_above_every_bag_vertex(bags, error, missing):
    with pytest.raises(error, match=f"^vertex {missing} appears in no bag$"):
        validate_tree_decomposition(bags, [(0, 1)], static_graph(4, []))


def test_the_vertex_lists_stop_one_past_the_largest_bag_vertex():
    # Lists for 10**6 vertices would take about 200 MB; the scan ends at vertex 3.
    g = static_graph(10**6, [])
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionMismatch, match="^vertex 3 appears in no bag$"):
            validate_tree_decomposition([{0, 1}, {1, 2}], [(0, 1)], g)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s, z", [(0, 3), (-1, 2), (1, 1)])
@pytest.mark.parametrize("external", [None, ([{0, 1}, {1, 2}], [(0, 1)])])
def test_terminals_are_checked_before_building(s, z, external):
    g = static_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(VertexOutOfRange, match="terminal"):
        build_tree_decomposition(g, s, z, external)


def test_external_decomposition_accepted_and_nicified():
    g = static_graph(4, [(0, 1), (1, 2), (2, 3)])
    bags = [{0, 1}, {1, 2}, {2, 3}]
    edges = [(0, 1), (1, 2)]
    td = build_tree_decomposition(g, 0, 3, external=(bags, edges))
    assert not nice_form_violations(td, g, 0, 3)


def test_isolated_vertices_are_covered():
    g = static_graph(5, [(1, 2)])
    bags, edges = minfill_tree_decomposition(g)
    validate_tree_decomposition(bags, edges, g)


@given(small_static())
@settings(max_examples=60, deadline=None)
def test_heuristic_output_is_always_valid_and_nice(g):
    bags, edges = minfill_tree_decomposition(g)
    validate_tree_decomposition(bags, edges, g)
    td = build_tree_decomposition(g, 0, g.n - 1)
    assert not nice_form_violations(td, g, 0, g.n - 1)
    assert td.width == max(len(node.bag) for node in td.nodes) - 1
    assert (td.graph, td.s, td.z) == (g, 0, g.n - 1)


def test_copies_and_pickles_keep_the_decomposition():
    g = static_graph(4, [(0, 1), (1, 2), (2, 3)])
    td = build_tree_decomposition(g, 0, 3, external=([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)]))
    for copied in (copy.copy(td), copy.deepcopy(td), pickle.loads(pickle.dumps(td))):
        assert type(copied) is type(td) and copied == td

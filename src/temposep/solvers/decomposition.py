"""Nice tree decompositions with both terminals injected into every bag.

A NiceTreeDecomposition is made only by its constructor, so each one is a
valid nice decomposition of the graph it records.  The heuristic route
eliminates vertices by minimum fill-in, collecting one bag per eliminated
vertex and hanging it under the bag of its first-eliminated neighbor.
External decompositions are validated instead: occurrence sets must be
non-empty and connected in the tree, and every edge must fit in some bag.
Either way, s and z are then added to every bag and the tree is rewritten into
nice form whose node kinds are leaf ({s,z} exactly), introduce, forget, and
join.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ..core import StaticGraph, adjacency_lists, check_terminals, is_connected
from ..errors import DecompositionMismatch, InvalidDecomposition

RawDecomposition = tuple[list[set[int]], list[tuple[int, int]]]  # (bags, tree edges between bag indices)


class NiceNode(NamedTuple):
    """One node of a nice tree decomposition.

    kind is 'leaf', 'introduce', 'forget', or 'join'; vertex is the
    introduced/forgotten vertex and None otherwise.
    """

    kind: str
    bag: frozenset[int]
    children: tuple[int, ...]
    vertex: Optional[int] = None


class _NiceTreeDecompositionFields(NamedTuple):
    nodes: tuple[NiceNode, ...]
    graph: StaticGraph
    s: int
    z: int


class NiceTreeDecomposition(_NiceTreeDecompositionFields):
    """A nice tree decomposition of `graph` with s and z in every bag.

    Every child comes before its parent in nodes, node 0 is a leaf and the
    root is the last node.  Width is max bag size minus one.  As for
    Instance, `_replace` skips the constructor: never use it.
    """

    __slots__ = ()

    def __new__(
        cls, g: StaticGraph, s: int, z: int, external: Optional[RawDecomposition] = None
    ) -> NiceTreeDecomposition:
        check_terminals(g.n, s, z)
        if external is not None:
            bags, tree_edges = external
            validate_tree_decomposition(bags, tree_edges, g)
        else:
            bags, tree_edges = minfill_tree_decomposition(g)
        nodes = _nicify([set(bag) | {s, z} for bag in bags], tree_edges, s, z)
        return super().__new__(cls, nodes, g, s, z)

    def __reduce__(self):
        # Copies keep the checked fields; the raw input the constructor takes is gone.
        return tuple.__new__, (type(self), tuple(self))

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max(len(node.bag) for node in self.nodes) - 1


def minfill_tree_decomposition(g: StaticGraph) -> RawDecomposition:
    """Heuristic bags and tree edges from minimum fill-in elimination."""
    adj: dict[int, set[int]] = {v: set(g.adjacency[v]) for v in range(g.n)}
    elim_pos: dict[int, int] = {}
    bags: list[set[int]] = []
    bag_neighbors: list[set[int]] = []
    while adj:
        best_v, best_cost = -1, None
        for v in sorted(adj):
            nbrs = adj[v]
            cost = sum(
                1
                for a in nbrs
                for b in nbrs
                if a < b and b not in adj[a]
            )
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
                if cost == 0:
                    break
        nbrs = set(adj[best_v])
        elim_pos[best_v] = len(bags)
        bags.append({best_v} | nbrs)
        bag_neighbors.append(nbrs)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
            adj[a].discard(best_v)
        del adj[best_v]
    tree_edges: list[tuple[int, int]] = []
    for i, nbrs in enumerate(bag_neighbors):
        if nbrs:
            parent = min(elim_pos[w] for w in nbrs)
            tree_edges.append((i, parent))
        elif i + 1 < len(bags):
            tree_edges.append((i, i + 1))
    return bags, tree_edges


def validate_tree_decomposition(bags: list[set[int]], tree_edges: list[tuple[int, int]], g: StaticGraph) -> None:
    """Raise InvalidDecomposition naming the first violated property, or
    DecompositionMismatch where the bags fit another graph: a bag vertex at or
    above g.n, a vertex of g above every bag vertex, or an edge in no bag."""
    count = len(bags)
    if count == 0:
        raise InvalidDecomposition("decomposition has no bags")
    for i, bag in enumerate(bags):
        for v in bag:
            if not (0 <= v < g.n):
                error = InvalidDecomposition if v < 0 else DecompositionMismatch
                raise error(f"bag {i} contains out-of-range vertex {v}")
    for a, b in tree_edges:
        if a not in range(count) or b not in range(count):
            raise InvalidDecomposition(f"tree edge ({a},{b}) references unknown bag")
    if len(tree_edges) != count - 1:
        raise InvalidDecomposition(f"{count} bags need {count - 1} tree edges, got {len(tree_edges)}")
    if not is_connected(count, tree_edges):
        raise InvalidDecomposition("bag tree is not connected")
    # No bag holds top + 1, so the scan below ends there however large g.n is.
    top = max(map(max, filter(None, bags)), default=-1)
    occurrences: list[set[int]] = [set() for _ in range(min(g.n, top + 2))]
    for i, bag in enumerate(bags):
        for v in bag:
            occurrences[v].add(i)
    # In a tree, the bags holding v are connected iff exactly
    # len(occurrence) - 1 tree edges join two of them.
    joined = [0] * len(occurrences)
    for a, b in tree_edges:
        for v in set(bags[a]).intersection(bags[b]):
            joined[v] += 1
    for v, occurrence in enumerate(occurrences):
        if not occurrence:
            error = InvalidDecomposition if v < top else DecompositionMismatch
            raise error(f"vertex {v} appears in no bag")
        if joined[v] != len(occurrence) - 1:
            raise InvalidDecomposition(f"bags containing vertex {v} are not connected in the tree")
    for u, v in sorted(g.edges):
        if not occurrences[u] & occurrences[v]:
            raise DecompositionMismatch(f"edge ({u},{v}) is contained in no bag")


def build_tree_decomposition(
    g: StaticGraph, s: int, z: int, external: Optional[RawDecomposition] = None
) -> NiceTreeDecomposition:
    """The NiceTreeDecomposition of g for s and z: external, when given, is
    validated; otherwise the min-fill heuristic supplies a bag per vertex."""
    return NiceTreeDecomposition(g, s, z, external)


def _nicify(bags: list[set[int]], tree_edges: list[tuple[int, int]], s: int, z: int) -> tuple[NiceNode, ...]:
    tree_adj = adjacency_lists(tree_edges)
    nodes: list[NiceNode] = []

    def emit(kind: str, bag: Iterable[int], children: tuple[int, ...], vertex: Optional[int] = None) -> int:
        nodes.append(NiceNode(kind, frozenset(bag), children, vertex))
        return len(nodes) - 1

    base = frozenset((s, z))

    def morph(top: int, have: frozenset[int], want: frozenset[int]) -> int:
        cur, bag = top, have
        for v in sorted(have - want):
            bag = bag - {v}
            cur = emit("forget", bag, (cur,), v)
        for v in sorted(want - have):
            bag = bag | {v}
            cur = emit("introduce", bag, (cur,), v)
        return cur

    # Depth-first over the raw tree with an explicit stack, so deep trees do
    # not hit the recursion limit.  A frame is (raw bag, its children, the
    # tops of the children finished so far, each morphed into this bag).
    # Each child's subtree is emitted, then morphed, before the next child
    # starts; joins follow the last child.  So every child is emitted before
    # its parent, and the root last.
    stack: list[tuple[int, list[int], list[int]]] = [(0, tree_adj.get(0, []), [])]
    while stack:
        raw, child_raws, tops = stack[-1]
        if len(tops) < len(child_raws):
            c = child_raws[len(tops)]
            stack.append((c, [d for d in tree_adj[c] if d != raw], []))
            continue
        stack.pop()
        bag = frozenset(bags[raw])
        if not child_raws:
            cur = morph(emit("leaf", base, ()), base, bag)
        else:
            cur = tops[0]
            for other in tops[1:]:
                cur = emit("join", bag, (cur, other))
        if stack:
            stack[-1][2].append(morph(cur, bag, frozenset(bags[stack[-1][0]])))
    return tuple(nodes)

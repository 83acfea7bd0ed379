"""Separator DP over a nice tree decomposition of the underlying graph.

Every vertex is assigned one of tau+2 colors: S (in the separator), Z (never
reachable from s after deleting S), or A_i for i in 1..tau (not reachable
before label i).  s is pinned to A_1 and z to Z.  A coloring of the whole
vertex set is consistent exactly when no time-edge lets an A_i vertex reach a
Z vertex at label >= i or reach an A_j vertex strictly before label j; the
minimum |S| over consistent colorings is the minimum separator size.

The tables hold only canonical colorings: a vertex other than s and z is
A_i only when i is in labels(v), the labels of v's own time-edges.  This
keeps the minimum.  Given any separator S, color each other vertex by its
earliest arrival from s once S is deleted: A_i if it is first reached at
label i, Z if it is never reached.  That coloring passes every introduce
check below, and it is canonical, because a vertex is first reached over one
of its own time-edges.  So every separator has a canonical coloring.

Per tree node x the table D_x maps each coloring of the bag to the smallest
number of S-vertices over consistent canonical colorings of everything
introduced in x's subtree.  Because s and z sit in every bag with forced
colors, only colorings extending the single finite leaf entry are ever
materialized.

Node rules:
- leaf (bag {s,z}): the single coloring s=A_1, z=Z costs 0.
- introduce v: extend each child entry with S, Z and A_i for each i in
  labels(v), charging 1 for S and checking v's time-edges into the bag: v=Z
  needs every A_i neighbor with edge label t to satisfy t < i; v=A_i needs
  neighbors at labels t >= i to be in A_1..A_t or S, and neighbors at labels
  t < i to be in A_{t+1}..A_tau, S, or Z.  (All neighbors of v inside the
  processed subtree lie in the bag, so the bag coloring decides validity.)
- forget v: minimum over the recolorings of v.
- join: children share the bag coloring; costs add and the separator
  vertices counted twice (those colored S in the bag) are subtracted once.

Colorings are encoded as radix-(tau+2) integers over the bag in sorted
vertex order; digit value i-1 means A_i, tau means S, tau+1 means Z.  The
radix counts at least one A color, so at tau = 0 the S digit is 1 and stays
apart from s's digit 0.
"""

from __future__ import annotations

from math import prod
from typing import Optional

from ..errors import DecompositionMismatch, InvalidDecomposition
from ..oracle import Instance, Separator
from .decomposition import NiceTreeDecomposition, validate_tree_decomposition


def _check_fit(inst: Instance, td: NiceTreeDecomposition) -> None:
    bags = [node.bag for node in td.nodes]
    for i, bag in enumerate(bags):
        if inst.s not in bag or inst.z not in bag:
            raise DecompositionMismatch(f"node {i} bag misses a terminal")
    tree_edges = [(i, child) for i, node in enumerate(td.nodes) for child in node.children]
    try:
        validate_tree_decomposition(bags, tree_edges, inst.g.underlying())
    except InvalidDecomposition as exc:
        raise DecompositionMismatch(str(exc)) from exc
    # The tables are filled in index order, so that order must be bottom-up.
    # With n - 1 tree edges and no node listed twice, every node but the
    # last, the root, is then exactly one node's child.
    parent: dict[int, int] = {}
    for i, child in tree_edges:
        if child >= i:
            raise DecompositionMismatch(f"node {i} lists child {child}, which does not come before it")
        if child in parent:
            raise DecompositionMismatch(f"node {child} is a child of both node {parent[child]} and node {i}")
        parent[child] = i
    # Each node must have the children and the bag its kind says.
    for i, (kind, bag, children, v) in enumerate(td.nodes):
        if kind == "leaf" and bag != {inst.s, inst.z}:
            raise DecompositionMismatch(f"leaf bag {set(bag)} is not exactly the terminal pair")
        nice = {"leaf": [], "introduce": [bag - {v}], "forget": [bag | {v}], "join": [bag, bag]}.get(kind)
        if [bags[c] for c in children] != nice or (v in bag) != (kind == "introduce"):
            raise DecompositionMismatch(f"node {i} is not a nice {kind} node")


def _fill_tables(
    inst: Instance, td: NiceTreeDecomposition
) -> tuple[dict[int, int], list[tuple[int, ...]], dict[int, dict[int, int]], int]:
    """Fill the tables bottom-up, in node-index order.

    Returns the root table, every bag in sorted vertex order, for each forget
    node the color its forgotten vertex takes under each of its keys, and the
    radix of the keys.
    """
    _check_fit(inst, td)
    g, z, tau = inst.g, inst.z, max(inst.g.tau, 1)
    base, s_color, z_color = tau + 2, tau, tau + 1
    own = g.vertex_labels
    bags = [tuple(sorted(node.bag)) for node in td.nodes]
    pows = [base**i for i in range(max(len(bag) for bag in bags) + 1)]
    tables: dict[int, dict[int, int]] = {}
    forget_choice: dict[int, dict[int, int]] = {}

    for x, node in enumerate(td.nodes):
        bag = bags[x]
        if node.kind == "leaf":
            tables[x] = {z_color * pows[bag.index(z)]: 0}  # s=A_1 (digit 0), z=Z
        elif node.kind == "introduce":
            v = node.vertex
            child = node.children[0]
            p = bag.index(v)
            unit, high_unit = pows[p], pows[p + 1]
            nbr_units: list[int] = []  # pows[q] for each child position q of a neighbor of v
            nbr_labels: list[tuple[int, ...]] = []
            for q, w in enumerate(bags[child]):
                labels = g.edge_labels.get((min(v, w), max(v, w)))
                if labels:
                    nbr_units.append(pows[q])
                    nbr_labels.append(labels)
            memo: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            table: dict[int, int] = {}
            # (child key, color of v) -> key is injective, so no new key repeats.
            for child_key, cost in tables.pop(child).items():
                w_colors = tuple([child_key // u % base for u in nbr_units])
                allowed = memo.get(w_colors)
                if allowed is None:
                    allowed = memo[w_colors] = _allowed(w_colors, nbr_labels, own[v], unit, tau)
                high, low = divmod(child_key, unit)
                shifted = high * high_unit + low
                for offset, extra in allowed:
                    table[shifted + offset] = cost + extra
            tables[x] = table
        elif node.kind == "forget":
            v = node.vertex
            child = node.children[0]
            unit = pows[bags[child].index(v)]
            table = {}
            choice: dict[int, int] = {}
            # Any order: a tie on cost goes to the smallest color of v.
            for child_key, cost in tables.pop(child).items():
                high, low = divmod(child_key, unit)
                high, color = divmod(high, base)
                new_key = high * unit + low
                old = table.get(new_key)
                if old is None or cost < old or (cost == old and color < choice[new_key]):
                    table[new_key] = cost
                    choice[new_key] = color
            tables[x] = table
            forget_choice[x] = choice
        else:  # join
            lt = tables.pop(node.children[0])
            rt = tables.pop(node.children[1])
            if len(lt) > len(rt):
                lt, rt = rt, lt
            table = {}
            for key, lcost in lt.items():
                rcost = rt.get(key)
                if rcost is not None:
                    in_sep, rest = 0, key
                    for _ in bag:
                        rest, color = divmod(rest, base)
                        if color == s_color:
                            in_sep += 1
                    table[key] = lcost + rcost - in_sep
            tables[x] = table
    return tables[td.root], bags, forget_choice, base


def _allowed(
    w_colors: tuple[int, ...], nbr_labels: list[tuple[int, ...]], own: tuple[int, ...], unit: int, tau: int
) -> list[tuple[int, int]]:
    """(color * unit, cost) for each canonical color of an introduced vertex
    with labels `own` that the introduce rule allows next to neighbors
    colored `w_colors`."""
    s_color = tau
    pairs = [(wc, t) for wc, labels in zip(w_colors, nbr_labels) for t in labels]
    allowed = []
    for i in own:
        if all((wc < t or wc == s_color) if t >= i else wc >= t for wc, t in pairs):
            allowed.append(((i - 1) * unit, 0))
    allowed.append((s_color * unit, 1))
    if all(wc >= tau or t <= wc for wc, t in pairs):
        allowed.append(((tau + 1) * unit, 0))
    return allowed


def treewidth_work_estimate(inst: Instance, td: NiceTreeDecomposition) -> int:
    """An upper bound on the table cells, summed over all bags.

    A bag's table holds at most the product of its vertices' color counts
    under `_allowed`: 1 for s and z, |labels(v)| + 2 for any other vertex v.
    """
    colors = [len(labels) + 2 for labels in inst.g.vertex_labels]
    colors[inst.s] = colors[inst.z] = 1
    return sum(prod(colors[v] for v in node.bag) for node in td.nodes)


def solve_treewidth_dp(inst: Instance, td: NiceTreeDecomposition) -> Optional[Separator]:
    """A minimum separator via the coloring tables, or None above budget."""
    root_table, bags, forget_choice, base = _fill_tables(inst, td)
    # The cheapest root entry, the smallest key on ties.
    best = min(root_table.items(), key=lambda entry: (entry[1], entry[0]), default=None)
    if best is None or best[1] > inst.k:
        return None
    # Top-down in reverse index order: each node's key is known before its children's.
    s_color = base - 2
    keys = {td.root: best[0]}
    separator: set[int] = set()
    for x in range(td.root, -1, -1):
        node, bag, key = td.nodes[x], bags[x], keys.pop(x)
        separator.update(v for p, v in enumerate(bag) if key // base**p % base == s_color)
        if node.kind == "introduce":
            unit = base ** bag.index(node.vertex)
            high, low = divmod(key, unit)
            keys[node.children[0]] = high // base * unit + low
        elif node.kind == "forget":
            child = node.children[0]
            unit = base ** bags[child].index(node.vertex)
            high, low = divmod(key, unit)
            keys[child] = (high * base + forget_choice[x][key]) * unit + low
        else:  # join (a leaf has no children)
            for child in node.children:
                keys[child] = key
    return Separator(frozenset(separator))

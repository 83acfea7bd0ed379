"""Separator DP over a nice tree decomposition of the underlying graph.

Every vertex is assigned one of tau+2 colors: S (in the separator), Z (never
reachable from s after deleting S), or A_i for i in 1..tau (not reachable
before label i).  s is pinned to A_1 and z to Z.  A coloring of the whole
vertex set is consistent exactly when no time-edge lets an A_i vertex reach a
Z vertex at label >= i or reach an A_j vertex strictly before label j; the
minimum |S| over consistent colorings is the minimum separator size.

Per tree node x the table D_x maps each coloring of the bag to the smallest
number of S-vertices over consistent colorings of everything introduced in
x's subtree.  Because s and z sit in every bag with forced colors, only
colorings extending the single finite leaf entry are ever materialized.

Node rules:
- leaf (bag {s,z}): the single coloring s=A_1, z=Z costs 0.
- introduce v: extend each child entry with every color of v, charging 1 for
  S and checking v's time-edges into the bag: v=Z needs every A_i neighbor
  with edge label t to satisfy t < i; v=A_i needs neighbors at labels t >= i
  to be in A_1..A_t or S, and neighbors at labels t < i to be in
  A_{t+1}..A_tau, S, or Z.  (All neighbors of v inside the processed subtree
  lie in the bag, so the bag coloring decides validity.)
- forget v: minimum over the tau+2 recolorings of v.
- join: children share the bag coloring; costs add and the separator
  vertices counted twice (those colored S in the bag) are subtracted once.

Colorings are encoded as radix-(tau+2) integers over the bag in sorted
vertex order; digit value i-1 means A_i, tau means S, tau+1 means Z.
"""

from __future__ import annotations

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


class _DPRun:
    """One bottom-up execution; keeps only what reconstruction needs."""

    def __init__(self, inst: Instance, td: NiceTreeDecomposition):
        _check_fit(inst, td)
        self.inst = inst
        self.td = td
        self.tau = inst.g.tau
        self.base = self.tau + 2
        self.s_color = self.tau
        self.z_color = self.tau + 1
        self.sorted_bags = {x: tuple(sorted(td.nodes[x].bag)) for x in range(len(td.nodes))}
        max_bag = max(len(b) for b in self.sorted_bags.values())
        self.pows = [self.base**i for i in range(max_bag + 1)]
        self.forget_choice: dict[int, dict[int, int]] = {}
        self.root_table = self._run()

    def digit(self, key: int, p: int) -> int:
        return (key // self.pows[p]) % self.base

    def insert_digit(self, key: int, p: int, color: int) -> int:
        low = key % self.pows[p]
        return (key // self.pows[p]) * self.pows[p + 1] + color * self.pows[p] + low

    def remove_digit(self, key: int, p: int) -> int:
        low = key % self.pows[p]
        return (key // self.pows[p + 1]) * self.pows[p] + low

    def _run(self) -> dict[int, int]:
        inst, td = self.inst, self.td
        g, s, z = inst.g, inst.s, inst.z
        base, s_color, z_color, pows = self.base, self.s_color, self.z_color, self.pows
        tables: dict[int, dict[int, int]] = {}

        for x in td.postorder():
            node = td.nodes[x]
            bag = self.sorted_bags[x]
            if node.kind == "leaf":
                if set(bag) != {s, z}:
                    raise DecompositionMismatch(f"leaf bag {set(bag)} is not exactly the terminal pair")
                key = 0 * pows[bag.index(s)] + z_color * pows[bag.index(z)]  # s=A_1, z=Z
                tables[x] = {key: 0}
            elif node.kind == "introduce":
                v = node.vertex
                child = node.children[0]
                p = bag.index(v)
                unit, high_unit = pows[p], pows[p + 1]
                nbr_units: list[int] = []  # pows[q] for each child position q of a neighbor of v
                nbr_labels: list[tuple[int, ...]] = []
                for q, w in enumerate(self.sorted_bags[child]):
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
                        allowed = memo[w_colors] = self._allowed(w_colors, nbr_labels, unit)
                    high, low = divmod(child_key, unit)
                    shifted = high * high_unit + low
                    for offset, extra in allowed:
                        table[shifted + offset] = cost + extra
                tables[x] = table
            elif node.kind == "forget":
                v = node.vertex
                child = node.children[0]
                unit = pows[self.sorted_bags[child].index(v)]
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
                self.forget_choice[x] = choice
            else:  # join
                lt = tables.pop(node.children[0])
                rt = tables.pop(node.children[1])
                if len(lt) > len(rt):
                    lt, rt = rt, lt
                table = {}
                bag_size = len(bag)
                for key, lcost in lt.items():
                    rcost = rt.get(key)
                    if rcost is not None:
                        in_sep, rest = 0, key
                        for _ in range(bag_size):
                            rest, color = divmod(rest, base)
                            if color == s_color:
                                in_sep += 1
                        table[key] = lcost + rcost - in_sep
                tables[x] = table
        return tables[self.td.root]

    def _allowed(self, w_colors: tuple[int, ...], nbr_labels: list[tuple[int, ...]], unit: int) -> list[tuple[int, int]]:
        """(color * unit, cost) for each color of an introduced vertex that the
        introduce rule allows next to neighbors colored `w_colors`."""
        tau, s_color = self.tau, self.s_color
        pairs = [(wc, t) for wc, labels in zip(w_colors, nbr_labels) for t in labels]
        allowed = []
        for i in range(1, tau + 1):
            if all((wc < t or wc == s_color) if t >= i else wc >= t for wc, t in pairs):
                allowed.append(((i - 1) * unit, 0))
        allowed.append((s_color * unit, 1))
        if all(wc >= tau or t <= wc for wc, t in pairs):
            allowed.append((self.z_color * unit, 0))
        return allowed

    def best_root_entry(self) -> Optional[tuple[int, int]]:
        """(key, cost) of the cheapest root entry, the smallest key on ties."""
        return min(self.root_table.items(), key=lambda entry: (entry[1], entry[0]), default=None)

    def reconstruct(self, root_key: int) -> frozenset[int]:
        separator: set[int] = set()
        stack: list[tuple[int, int]] = [(self.td.root, root_key)]
        while stack:
            x, key = stack.pop()
            node = self.td.nodes[x]
            bag = self.sorted_bags[x]
            for p, v in enumerate(bag):
                if self.digit(key, p) == self.s_color:
                    separator.add(v)
            if node.kind == "introduce":
                stack.append((node.children[0], self.remove_digit(key, bag.index(node.vertex))))
            elif node.kind == "forget":
                p = self.sorted_bags[node.children[0]].index(node.vertex)
                stack.append((node.children[0], self.insert_digit(key, p, self.forget_choice[x][key])))
            elif node.kind == "join":
                stack.append((node.children[0], key))
                stack.append((node.children[1], key))
        return frozenset(separator)


def solve_treewidth_dp(inst: Instance, td: NiceTreeDecomposition) -> Optional[Separator]:
    """A minimum separator via the coloring tables, or None above budget."""
    run = _DPRun(inst, td)
    best = run.best_root_entry()
    if best is None:
        return None
    key, cost = best
    if cost > inst.k:
        return None
    return Separator(run.reconstruct(key))

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
        base, s_color, z_color = self.base, self.s_color, self.z_color
        tau, pows = self.tau, self.pows
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
                child_bag = self.sorted_bags[child]
                p = bag.index(v)
                incident: list[tuple[int, int]] = []  # (child position of w, label)
                for q, w in enumerate(child_bag):
                    labels = g.edge_labels.get((min(v, w), max(v, w)), ())
                    incident.extend((q, t) for t in labels)
                memo: dict[tuple[tuple[int, ...], int], bool] = {}

                def valid(w_colors: tuple[int, ...], v_color: int) -> bool:
                    cached = memo.get((w_colors, v_color))
                    if cached is not None:
                        return cached
                    ok = True
                    if v_color == z_color:
                        for (_, t), wc in zip(incident, w_colors):
                            if wc < tau and t > wc:  # an A_{wc+1} neighbor reaches v at t >= wc+1
                                ok = False
                                break
                    elif v_color < tau:
                        i = v_color + 1
                        for (_, t), wc in zip(incident, w_colors):
                            if t >= i:
                                if not (wc < t or wc == s_color):
                                    ok = False
                                    break
                            elif wc < t:
                                ok = False
                                break
                    memo[(w_colors, v_color)] = ok
                    return ok

                table: dict[int, int] = {}
                for child_key, cost in tables.pop(child).items():
                    w_colors = tuple(self.digit(child_key, q) for q, _ in incident)
                    shifted = self.insert_digit(child_key, p, 0)
                    for v_color in range(base):
                        if not valid(w_colors, v_color):
                            continue
                        new_key = shifted + v_color * pows[p]
                        new_cost = cost + (1 if v_color == s_color else 0)
                        old = table.get(new_key)
                        if old is None or new_cost < old:
                            table[new_key] = new_cost
                tables[x] = table
            elif node.kind == "forget":
                v = node.vertex
                child = node.children[0]
                p = self.sorted_bags[child].index(v)
                table = {}
                choice: dict[int, int] = {}
                for child_key, cost in sorted(tables.pop(child).items()):
                    color = self.digit(child_key, p)
                    new_key = self.remove_digit(child_key, p)
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
                        in_sep = sum(1 for p in range(bag_size) if self.digit(key, p) == s_color)
                        table[key] = lcost + rcost - in_sep
                tables[x] = table
        return tables[self.td.root]

    def best_root_entry(self) -> Optional[tuple[int, int]]:
        best_key, best_cost = None, None
        for key, cost in sorted(self.root_table.items()):
            if best_cost is None or cost < best_cost:
                best_key, best_cost = key, cost
        if best_key is None:
            return None
        return best_key, best_cost

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


def treewidth_root_table(inst: Instance, td: NiceTreeDecomposition) -> dict[tuple[tuple[int, int], ...], int]:
    """Finite root entries, decoded as ((vertex, color), ...) -> cost.

    Color indices: i-1 for A_i, tau for S, tau+1 for Z.  Intended for
    cross-checking the table semantics against exhaustive search.
    """
    run = _DPRun(inst, td)
    bag = run.sorted_bags[td.root]
    decoded = {}
    for key, cost in run.root_table.items():
        decoded[tuple((v, run.digit(key, p)) for p, v in enumerate(bag))] = cost
    return decoded

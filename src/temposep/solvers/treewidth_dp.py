"""Separator DP over a nice tree decomposition of the underlying graph.

Every vertex is assigned one of tau+2 colors: S (in the separator), Z (never
reachable from s after deleting S), or A_i for i in 1..tau (not reachable
before label i).  s is pinned to A_1 and z to Z.  A coloring of the whole
vertex set is consistent exactly when no time-edge lets an A_i vertex reach a
Z vertex at label >= i or reach an A_j vertex strictly before label j; the
minimum |S| over consistent colorings is the minimum separator size.

The DP colors G', the time-edges of the input G on some temporal s->z walk
(`Instance.walk_labels`).  Each time-edge of a temporal (s,z)-path in G-S
lies on an s->z walk of G, so G-S and G'-S have the same temporal
(s,z)-paths: G and G' have the same separators and the same minimum.

The tables hold only canonical colorings: a vertex other than s and z is
A_i only when i is in labels(v), the labels of v's own time-edges in G', and
i >= arr(v), its earliest arrival from s in the whole input G.  This keeps
the minimum.  Given any separator S, color each other vertex by its
earliest arrival from s in G'-S: A_i if it is first reached at label i, Z
if it is never reached.  That coloring passes every introduce check below,
and it is canonical: a vertex is first reached over one of its own
time-edges of G', and G'-S is a subgraph of G, so no arrival in it is
earlier than arr, and i >= arr(v).  So every separator has a canonical
coloring, and a vertex on no s->z walk is only ever S or Z.  arr comes from
one full sweep per instance (`Instance.arrival`), and G' from one reversed
sweep more; the work estimate and the tables share both.

Per tree node x the table D_x maps each coloring of the bag to a smallest set
of S-vertices over consistent canonical colorings of everything introduced in
x's subtree, kept as a vertex bitmask (bit v set iff v is colored S); its size
is the popcount.  Because s and z sit in every bag with forced colors, only
colorings extending the single finite leaf entry are ever materialized.

Node rules:
- leaf (bag {s,z}): the single coloring s=A_1, z=Z has no S-vertex.
- introduce v: extend each child entry with S, which adds v to the mask and
  is always allowed, and with Z and A_i for each canonical i, checking v's
  time-edges into the bag: v=Z needs every A_i neighbor with edge label t to
  satisfy t < i; v=A_i needs neighbors at labels t >= i to be in A_1..A_t or
  S, and neighbors at labels t < i to be in A_{t+1}..A_tau, S, or Z.  (All
  neighbors of v inside the processed subtree lie in the bag, so the bag
  coloring decides validity.)
- forget v: over the recolorings of v, keep the mask with the fewest
  S-vertices, and on a tie the one where v has the smallest color.
- join: children share the bag coloring, and the masks are united.  The only
  vertices introduced in both subtrees are those of the bag, whose S-vertices
  are in both masks, so the union counts each once.  Both children hold the
  same keys, the canonical bag colorings consistent on the bag's own edges:
  S is always allowed, so no forgotten vertex rules a key out.  For the same
  reason no table is empty.
The witness is the root mask with the fewest S-vertices, the smallest key on
ties.

Colorings are encoded as radix-(tau+2) integers over the bag in sorted
vertex order; digit value i-1 means A_i, tau means S, tau+1 means Z.  The
mask, not the key, says which vertices are in S, so at tau = 0 the S digit may
equal s's A_1 digit: only a neighbor's digit is compared with S, and tau = 0
has no edges.

A NiceTreeDecomposition is valid for the graph it records by construction, so
its bags cover the instance's edges, and those of G', when each is an edge
of that graph.  The DP and the work estimate check only that, the terminals
and the vertex count, before reading a bag.  After that check, an instance whose z the arrival sweep
never reaches is answered with the empty separator, without filling any table.
"""

from __future__ import annotations

from math import prod

from ..errors import DecompositionMismatch
from ..reachability import UNREACHED, Instance, Separator
from .decomposition import NiceTreeDecomposition


def _check_fit(inst: Instance, td: NiceTreeDecomposition) -> None:
    """Raise DecompositionMismatch unless td fits inst; no bag is read."""
    if {inst.s, inst.z} != {td.s, td.z}:
        raise DecompositionMismatch("node 0 bag misses a terminal")
    n = td.graph.n
    if inst.g.n > n:
        raise DecompositionMismatch(f"vertex {n} appears in no bag")
    if inst.g.n < n:
        raise DecompositionMismatch(f"a bag contains vertex {n - 1}, outside 0..{inst.g.n - 1}")
    foreign = inst.g.edge_labels.keys() - td.graph.edges
    if foreign:
        raise DecompositionMismatch("edge ({},{}) is not an edge of the decomposition's graph".format(*min(foreign)))


def _fill_tables(inst: Instance, td: NiceTreeDecomposition) -> dict[int, int]:
    """Fill the tables bottom-up, in node-index order; returns the root table."""
    walk, z, tau = inst.walk_labels, inst.z, inst.g.tau
    base = tau + 2
    own = _canonical_labels(inst)
    bags = [tuple(sorted(node.bag)) for node in td.nodes]
    pows = [base**i for i in range(max(len(bag) for bag in bags) + 1)]
    tables: dict[int, dict[int, int]] = {}

    for x, node in enumerate(td.nodes):
        bag = bags[x]
        if node.kind == "leaf":
            tables[x] = {(tau + 1) * pows[bag.index(z)]: 0}  # s=A_1 (digit 0), z=Z, S empty
        elif node.kind == "introduce":
            v = node.vertex
            child = node.children[0]
            p = bag.index(v)
            unit, high_unit = pows[p], pows[p + 1]
            s_offset, v_bit = tau * unit, 1 << v
            nbr_units: list[int] = []  # pows[q] for each child position q of a neighbor of v
            nbr_labels: list[tuple[int, ...]] = []
            for q, w in enumerate(bags[child]):
                labels = walk.get((min(v, w), max(v, w)))
                if labels:
                    nbr_units.append(pows[q])
                    nbr_labels.append(labels)
            memo: dict[tuple[int, ...], list[int]] = {}
            table: dict[int, int] = {}
            # (child key, color of v) -> key is injective, so no new key repeats.
            for child_key, sep in tables.pop(child).items():
                w_colors = tuple([child_key // u % base for u in nbr_units])
                allowed = memo.get(w_colors)
                if allowed is None:
                    allowed = memo[w_colors] = _allowed(w_colors, nbr_labels, own[v], unit, tau)
                high, low = divmod(child_key, unit)
                shifted = high * high_unit + low
                table[shifted + s_offset] = sep | v_bit
                for offset in allowed:
                    table[shifted + offset] = sep
            tables[x] = table
        elif node.kind == "forget":
            v = node.vertex
            child = node.children[0]
            unit = pows[bags[child].index(v)]
            table = {}
            rank: dict[int, int] = {}
            # Any order: the fewest S-vertices win, and a tie goes to the
            # smallest color of v.
            for child_key, sep in tables.pop(child).items():
                high, low = divmod(child_key, unit)
                high, color = divmod(high, base)
                new_key = high * unit + low
                r = sep.bit_count() * base + color
                if r < rank.get(new_key, r + 1):
                    table[new_key] = sep
                    rank[new_key] = r
            tables[x] = table
        else:  # join
            lt = tables.pop(node.children[0])
            rt = tables.pop(node.children[1])
            tables[x] = {key: lsep | rt[key] for key, lsep in lt.items()}
    return tables[td.root]


def _canonical_labels(inst: Instance) -> list[list[int]]:
    """Per vertex, the ascending labels i of its own walk time-edges with i >=
    arr(v); empty for a vertex on no s->z walk."""
    arrival = inst.arrival
    own: list[set[int]] = [set() for _ in range(inst.g.n)]
    for (u, v), labels in inst.walk_labels.items():
        for w in (u, v):
            own[w].update(t for t in labels if arrival[w] <= t)
    return [sorted(labels) for labels in own]


def _allowed(
    w_colors: tuple[int, ...], nbr_labels: list[tuple[int, ...]], own: list[int], unit: int, tau: int
) -> list[int]:
    """color * unit for each free color (A_i for i in `own`, and Z) of an
    introduced vertex that the introduce rule allows next to neighbors
    colored `w_colors`."""
    s_color = tau
    pairs = [(wc, t) for wc, labels in zip(w_colors, nbr_labels) for t in labels]
    allowed = [
        (i - 1) * unit for i in own if all((wc < t or wc == s_color) if t >= i else wc >= t for wc, t in pairs)
    ]
    if all(wc >= tau or t <= wc for wc, t in pairs):
        allowed.append((tau + 1) * unit)
    return allowed


def treewidth_work_estimate(inst: Instance, td: NiceTreeDecomposition) -> int:
    """An upper bound on the table cells, summed over all bags.

    A bag's table holds at most the product of its vertices' color counts:
    1 for s and z, and for any other vertex v, S, Z and A_i for each label i
    of v's own walk time-edges with i >= arr(v), so 2 for a vertex on no
    s->z walk.  It reads the same labels as the tables, computed once per
    instance, after the fit check.
    """
    _check_fit(inst, td)
    colors = [len(labels) + 2 for labels in _canonical_labels(inst)]
    colors[inst.s] = colors[inst.z] = 1
    return sum(prod(colors[v] for v in node.bag) for node in td.nodes)


def solve_treewidth_dp(inst: Instance, td: NiceTreeDecomposition) -> Separator:
    """A minimum separator via the coloring tables, whatever the budget."""
    _check_fit(inst, td)
    if inst.arrival[inst.z] == UNREACHED:
        return Separator(frozenset())
    # The fewest S-vertices, the smallest key on ties.
    _, sep = min(_fill_tables(inst, td).items(), key=lambda entry: (entry[1].bit_count(), entry[0]))
    return Separator(frozenset(v for v in range(sep.bit_length()) if sep >> v & 1))

"""Constructive instance transformations with machine-checked guarantees.

Each transformation returns the new instance together with a report whose
checklist is re-verified on the produced output by independent checkers
(layer edge counts, steadiness, window connectivity, claw-freeness) rather
than assumed from the construction.  The budget delta states how the minimum
separator size moves: 0 everywhere except the universal-vertex insertion,
which charges +1 for the unavoidable hub.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Callable

from .classes import classify
from .core import StaticGraph, build
from .errors import DegreeTooSmall, LayersNotEqual
from .reachability import Instance


@dataclass(frozen=True)
class ReductionReport:
    """What a transformation did and which guarantees the output satisfies."""

    budget_delta: int
    checks: dict[str, bool]
    details: dict[str, int | str]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def one_edge_per_layer(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Spread every layer into sub-layers holding one edge each.

    In round r < m, the i-th of a layer's m edges in lexicographic order sits
    on label base + r*m + i + 1; base then grows by m*m.  m rounds of one
    fixed order realise every path through the layer, so reachability between
    original layers is kept.  Empty layers contribute nothing.
    """
    g = inst.g
    triples, base = [], 0
    for _, pairs in g.layer_pairs:
        m = len(pairs)
        for i, (u, v) in enumerate(pairs):
            triples.extend((u, v, base + r * m + i + 1) for r in range(m))
        base += m * m
    out_g = build(g.n, base, triples)
    out = Instance(out_g, inst.s, inst.z, inst.k)
    checks = {
        "at_most_one_edge_per_layer": all(len(es) <= 1 for es in out_g.layer_edge_sets),
        "tau_within_n4_bound": out_g.tau <= g.tau * g.n**4,
        "underlying_preserved": out_g.underlying() == g.underlying(),
    }
    details = {"tau_out": out_g.tau, "tau_bound": g.tau * g.n**4}
    return out, ReductionReport(0, checks, details)


def complete_but_one(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Densify the underlying graph to all pairs except the terminal pair.

    Original labels shift up by one; missing pairs avoiding s appear at label
    1, missing s-pairs at label tau+2.  The early edges are unusable before
    any path leaves s and the late ones dead-end, so separators transfer
    one-to-one.
    """
    g = inst.g
    triples = [(u, v, t + 1) for t, u, v in g.edges]
    present = g.underlying().edges
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) in present or {u, v} == {inst.s, inst.z}:
                continue
            if inst.s in (u, v):
                triples.append((u, v, g.tau + 2))
            else:
                triples.append((u, v, 1))
    out_g = build(g.n, g.tau + 2, triples)
    out = Instance(out_g, inst.s, inst.z, inst.k)
    under = out_g.underlying()
    expected = g.n * (g.n - 1) // 2 - 1
    checks = {
        "underlying_is_complete_but_one": len(under.edges) == expected
        and (min(inst.s, inst.z), max(inst.s, inst.z)) not in under.edges,
        "tau_is_input_plus_two": out_g.tau == g.tau + 2,
    }
    details = {"underlying_edges": len(under.edges), "expected_edges": expected}
    return out, ReductionReport(0, checks, details)


def pad_monotone(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Interleave empty layers: (u, v, t) moves to label 2t - 1, and tau to max(2 tau - 1, 0)."""
    g = inst.g
    out_g = build(g.n, max(2 * g.tau - 1, 0), [(u, v, 2 * t - 1) for t, u, v in g.edges])
    out = Instance(out_g, inst.s, inst.z, inst.k)
    odd_match = all(
        out_g.layer_edge_sets[2 * i] == g.layer_edge_sets[i] for i in range(g.tau)
    )
    even_empty = all(not out_g.layer_edge_sets[2 * i + 1] for i in range(g.tau - 1))
    expected_tau = 2 * g.tau - 1 if g.tau >= 1 else 0
    checks = {
        "tau_is_2tau_minus_1": out_g.tau == expected_tau,
        "odd_layers_copy_input": odd_match,
        "even_layers_empty": even_empty,
    }
    details = {"tau_out": out_g.tau}
    return out, ReductionReport(0, checks, details)


def add_universal_vertex(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Insert a hub adjacent to everything in every layer; budget grows by one.

    The hub bridges the terminals inside any single layer, so every separator
    must contain it, and removing it restores the input exactly.
    """
    g = inst.g
    hub = g.n
    triples = g.raw_triples()
    for t in range(1, g.tau + 1):
        triples.extend((w, hub, t) for w in range(g.n))
    out_g = build(g.n + 1, g.tau, triples)
    out = Instance(g=out_g, s=inst.s, z=inst.z, k=inst.k + 1)
    profile = classify(out_g)
    checks = {
        "interval_connected_for_every_window": profile.interval_connected_max_t == out_g.tau,
        "hub_in_every_layer": all(
            all((min(w, hub), max(w, hub)) in es for w in range(g.n))
            for es in out_g.layer_edge_sets
        ),
    }
    details = {"hub": hub, "max_window": profile.interval_connected_max_t}
    return out, ReductionReport(+1, checks, details)


def steadyify(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Rebuild each layer one edge at a time so consecutive layers differ by one.

    Label 1 is empty and base starts at 1.  The j-th of a layer's m edges in
    lexicographic order sits on labels base + 1 + j .. base + m + j, then base
    grows by 2m: a build-up run, then a tear-down run ending on an empty label.
    So the output has 2 * (total edges) + 1 layers and is 1-steady; the
    full-layer snapshots are exactly the peaks, so the answer carries over.
    """
    g = inst.g
    triples, base = [], 1
    for _, pairs in g.layer_pairs:
        m = len(pairs)
        for j, (u, v) in enumerate(pairs):
            triples.extend((u, v, t) for t in range(base + 1 + j, base + m + j + 1))
        base += 2 * m
    out_g = build(g.n, base, triples)
    out = Instance(out_g, inst.s, inst.z, inst.k)
    lam = classify(out_g).steady_lambda
    total_edges = len(g.edges)
    checks = {
        "output_is_at_most_1_steady": lam <= 1,
        "tau_is_2m_plus_1": out_g.tau == 2 * total_edges + 1,
        "underlying_preserved": out_g.underlying() == g.underlying(),
    }
    details = {"steady_lambda": lam, "tau_out": out_g.tau}
    return out, ReductionReport(0, checks, details)


def is_claw_free(g: StaticGraph) -> bool:
    """No induced star with three leaves anywhere."""
    for v in range(g.n):
        for a, b, c in combinations(g.adjacency[v], 3):
            if not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c):
                return False
    return True


def line_graph_gadget(inst: Instance) -> tuple[Instance, ReductionReport]:
    """Rebuild a strict instance with identical layers as a non-strict one
    whose underlying graph is a line graph.

    Every original vertex v becomes a clique on deg(v)+1 vertices: one spare
    hub v* plus one carrier per incident edge.  Every original edge becomes
    two parallel length-3 paths between its carriers, with 'stilt' edges
    (between the twin path inners and between non-hub clique members) that
    exist only at label 1, where no path from a hub can use them: they are
    present purely so the underlying graph is a line graph.  Hubs see their
    clique at every label 2..2tau+2, and in period t each path runs across
    the labels 2t, 2t+1, 2t+2.  Any hub-to-hub traversal therefore starts
    and ends on even labels and costs two labels, in either direction, so a
    chain of L hops fits iff L <= tau: exactly the strict-path capacity of
    the input.  (Letting a hop complete within one even/odd pair would allow
    chains of 2*tau-1 hops, which breaks the correspondence already on a
    5-cycle with tau=2.)  Minimum strict separators map to minimum
    non-strict hub separators and back, so the budget is kept.
    """
    g = inst.g
    sets = g.layer_edge_sets
    if g.tau < 1 or any(es != sets[0] for es in sets):
        raise LayersNotEqual("gadget needs every layer equal")
    under = g.underlying()
    for v in range(g.n):
        if under.degree(v) < 2:
            raise DegreeTooSmall(f"vertex {v} has degree {under.degree(v)} in the underlying graph")

    # Vertex ids in creation order: hub v is v, then the carriers of each v
    # in sorted edge order, which is the order of the other ends w (carrier[v][w]),
    # then the four path inners (xa, ya, xb, yb) of each edge in sorted order.
    ids = count(g.n)
    carrier = [{w: next(ids) for w in sorted(under.adjacency[v])} for v in range(g.n)]
    inner = {e: (next(ids), next(ids), next(ids), next(ids)) for e in sorted(under.edges)}
    tau_out = 2 * g.tau + 2

    # Stilts, label 1 only: twin-path rungs and clique edges avoiding the hub.
    triples = [(a, b, 1) for xa, ya, xb, yb in inner.values() for a, b in ((xa, xb), (ya, yb))]
    for v in range(g.n):
        triples.extend((a, b, 1) for a, b in combinations(carrier[v].values(), 2))
        # Hub stars, labels 2..2tau+2.
        triples.extend((v, c, t) for c in carrier[v].values() for t in range(2, tau_out + 1))

    # The two carrier-to-carrier paths; in period t each one spreads over
    # labels 2t, 2t+1, 2t+2 (path a leads with the x end, path b with y).
    for (u, w), (xa, ya, xb, yb) in inner.items():
        x, y = carrier[u][w], carrier[w][u]
        for t in range(1, g.tau + 1):
            lead, mid, trail = 2 * t, 2 * t + 1, 2 * t + 2
            triples.extend([(x, xa, lead), (xa, ya, mid), (ya, y, trail)])
            triples.extend([(y, yb, lead), (yb, xb, mid), (xb, x, trail)])

    out_g = build(next(ids), tau_out, triples)
    out = Instance(g=out_g, s=inst.s, z=inst.z, k=inst.k)
    out_under = out_g.underlying()
    checks = {
        "underlying_is_claw_free": is_claw_free(out_under),
        "clique_sizes_are_degree_plus_one": all(
            out_under.degree(v) == under.degree(v)
            and all(out_under.has_edge(a, b) for a, b in combinations(out_under.adjacency[v], 2))
            for v in range(g.n)
        ),
        "tau_is_2tau_plus_2": out_g.tau == 2 * g.tau + 2,
    }
    details = {"n_out": out_g.n, "tau_out": out_g.tau}
    return out, ReductionReport(0, checks, details)


REDUCTIONS: dict[str, Callable[[Instance], tuple[Instance, ReductionReport]]] = {
    "one-edge": one_edge_per_layer,
    "complete-but-one": complete_but_one,
    "pad-monotone": pad_monotone,
    "universal": add_universal_vertex,
    "steady": steadyify,
    "line-graph": line_graph_gadget,
}

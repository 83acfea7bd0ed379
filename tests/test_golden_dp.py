"""Golden witnesses of the two polynomial DP backends over seeded corpora.

Unit-interval graphs go through `solve_interval_dp` under three orderings of
the terminals (identity; the reversed ordering with interior terminals, so s
comes after z and the window is padded; identity with s after z).  Small-width
graphs and ladders go through `solve_treewidth_dp` on their min-fill
decompositions, and their finite root entries through `treewidth_root_table`.
Each DP is solved once, and every budget from 0 to the minimum + 1 records
the sorted minimum witness where it fits, or `none`.  The transcript must match the committed
`tests/golden/dp_witnesses.txt` byte for byte, so a change to a table's
tie-breaks shows even where the witness size stays minimum.

A hypothesis test also holds every cell of `interval_dp_table` to the
frozenset reference in `interval_dp_reference.py`, and another checks the
row facts that the interval DP's early exits and its last-cell answer rest
on.  At the benchmark's interval sizes, and on 1000 seeded small queries,
where those exits fire, seeded tests hold every mask to the full-scan
kernel `full_scan_mask_table`.

To re-record after an intended output change:
    PYTHONPATH=src:tests python -c "import test_golden_dp as t; t.record()"
"""

from __future__ import annotations

from pathlib import Path

from decoders import interval_dp_table, treewidth_root_table
from hypothesis import given, settings
from hypothesis import strategies as st
from interval_dp_reference import full_scan_mask_table, reference_interval_dp_table

from temposep import Instance, build, build_tree_decomposition, solve_interval_dp, solve_treewidth_dp
from temposep.generators import GenSpec, UnitIntervalConstraint, XorShift64Star, generate
from temposep.solvers.interval_dp import _mask_table

GOLDEN = Path(__file__).parent / "golden" / "dp_witnesses.txt"

INTERVAL_CORPUS = [
    GenSpec(
        n=8 + seed % 9,
        tau=2 + seed % 5,
        edge_prob=0.45 + (seed % 6) * 0.1,
        constraint=UnitIntervalConstraint(),
        seed=seed,
    )
    for seed in range(900, 924)
]

GENERAL_CORPUS = [
    GenSpec(n=6 + seed % 5, tau=2 + seed % 3, edge_prob=0.22 + (seed % 3) * 0.08, seed=seed)
    for seed in range(700, 716)
]

LADDERS = [(2, 4, 3, 1), (2, 5, 4, 2), (3, 3, 4, 3), (3, 4, 3, 4)]  # (rails, length, tau, seed)


def _ladder(rails: int, length: int, tau: int, seed: int):
    """A rails x length grid between s = 0 and z = n-1, with seeded labels."""
    rng = XorShift64Star(seed)
    n = rails * length + 2

    def ladder_vertex(r: int, i: int) -> int:
        return 1 + i * rails + r

    triples = []
    for r in range(rails):
        triples.append((0, ladder_vertex(r, 0), 1 + rng.randrange(tau)))
        triples.append((ladder_vertex(r, length - 1), n - 1, 1 + rng.randrange(tau)))
        for i in range(length - 1):
            triples.append((ladder_vertex(r, i), ladder_vertex(r, i + 1), 1 + rng.randrange(tau)))
    for i in range(length):
        for r in range(rails - 1):
            triples.append((ladder_vertex(r, i), ladder_vertex(r + 1, i), 1 + rng.randrange(tau)))
    return build(n, tau, triples)


def _fmt(sep) -> str:
    return "none" if sep is None else ",".join(str(v) for v in sep.sorted()) or "-"


def _budget_sweep(label: str, inst: Instance, solve) -> list[str]:
    """One line per budget 0..minimum+1: the sorted minimum witness, or `none`
    above the budget."""
    best = solve(inst)
    return [f"{label} k={k} {_fmt(best if best.size <= k else None)}" for k in range(best.size + 2)]


def _interval_lines() -> list[str]:
    lines = []
    for j, spec in enumerate(INTERVAL_CORPUS):
        g = generate(spec).g
        n = g.n
        identity = tuple(range(n))
        cases = (("identity", identity, 0, n - 1), ("reversed", identity[::-1], 1, n - 2), ("identity", identity, n - 2, 1))
        for name, order, s, z in cases:
            if (min(s, z), max(s, z)) in g.edge_labels:
                lines.append(f"interval ui-{j:02d} n={n} tau={g.tau} s={s} z={z} order={name} terminals-adjacent")
                continue
            label = f"interval ui-{j:02d} n={n} tau={g.tau} s={s} z={z} order={name}"
            lines += _budget_sweep(label, Instance(g=g, s=s, z=z, k=0), lambda i, o=order: solve_interval_dp(i, o))
    return lines


def _treewidth_graphs():
    for j, spec in enumerate(GENERAL_CORPUS):
        yield f"tw-{j:02d}", generate(spec).g
    for rails, length, tau, seed in LADDERS:
        yield f"ladder-{rails}x{length}-{seed}", _ladder(rails, length, tau, seed)


def _treewidth_lines() -> list[str]:
    lines = []
    for name, g in _treewidth_graphs():
        s, z = 0, g.n - 1
        inst = Instance(g=g, s=s, z=z, k=0)
        td = build_tree_decomposition(g.underlying(), s, z)
        label = f"treewidth {name} n={g.n} tau={g.tau} width={td.width}"
        lines += _budget_sweep(label, inst, lambda i, d=td: solve_treewidth_dp(i, d))
        root = treewidth_root_table(inst, td)
        lines.append(f"root {name} entries={len(root)}")
        lines += [
            f"root {name} " + " ".join(f"{v}:{c}" for v, c in coloring) + f" = {cost}"
            for coloring, cost in sorted(root.items())
        ]
    return lines


def transcript() -> str:
    return "\n".join(_interval_lines() + _treewidth_lines()) + "\n"


def record() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="ascii")


def test_dp_witnesses_match_golden():
    assert transcript() == GOLDEN.read_text(encoding="ascii")


@st.composite
def _unit_interval_queries(draw):
    """A generated unit-interval graph, two non-adjacent terminals in either
    direction, and the identity ordering.  `_mask_table` walks the same s..z
    window under the reversed ordering, so the terminal direction is what
    varies the table."""
    spec = GenSpec(
        n=draw(st.integers(3, 10)),
        tau=draw(st.integers(1, 5)),
        edge_prob=draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])),
        constraint=UnitIntervalConstraint(),
        seed=draw(st.integers(0, 10**6)),
    )
    g = generate(spec).g
    # Never empty: generators keep (0, n-1) out of every layer.
    pairs = [(s, z) for s in range(g.n) for z in range(g.n) if s != z and (min(s, z), max(s, z)) not in g.edge_labels]
    s, z = draw(st.sampled_from(pairs))
    return Instance(g=g, s=s, z=z, k=0), tuple(range(g.n))


@given(_unit_interval_queries())
@settings(max_examples=150, deadline=None)
def test_interval_table_matches_frozenset_reference(query):
    inst, order = query
    assert interval_dp_table(inst, order) == reference_interval_dp_table(inst, order)


def _assert_row_facts(masks, counts, window):
    """Every stored count is its mask's popcount; counts along a row never
    grow with i; every non-empty T[.][i'] holds a position <= i' + 1 (bit
    n - q is position q, so its highest bit is at least n - i' - 1); and the
    last cell is the minimum of the last row under (popcount, -mask)."""
    n = len(window)
    for row, row_counts in zip(masks, counts):
        assert row_counts == [m.bit_count() for m in row]
        assert all(a >= b for a, b in zip(row_counts[1:], row_counts[2:]))
        assert all(m.bit_length() >= n - i for i, m in enumerate(row) if m)
    assert masks[-1][-1] == min(masks[-1][1:], key=lambda m: (m.bit_count(), -m))


@given(_unit_interval_queries())
@settings(max_examples=150, deadline=None)
def test_interval_table_sizes_never_grow_along_a_row(query):
    """The facts the early exits and the last-cell answer rest on, on drawn
    queries; the seeded full-scan tests check them too."""
    masks, counts, _, window = _mask_table(*query)
    _assert_row_facts(masks, counts, window)


def _pool_scale_queries():
    """Twelve dense unit-interval graphs at the benchmark's interval sizes,
    each under the identity and the reversed ordering.  Every query draws
    its own non-adjacent terminals, one from each end quarter of the
    vertices, in a random direction, so windows span half the graph or more."""
    rng = XorShift64Star(2828)
    for j in range(12):
        spec = GenSpec(
            n=40 + rng.randrange(25),
            tau=12,
            edge_prob=0.90 + rng.randrange(5) / 100,
            constraint=UnitIntervalConstraint(),
            seed=3000 + j,
        )
        g = generate(spec).g
        quarter = g.n // 4
        pairs = [
            (s, z)
            for s in range(quarter)
            for z in range(g.n - quarter, g.n)
            if (s, z) not in g.edge_labels
        ]
        for order in (tuple(range(g.n)), tuple(range(g.n))[::-1]):
            s, z = pairs[rng.randrange(len(pairs))]
            if rng.randrange(2):
                s, z = z, s
            yield Instance(g=g, s=s, z=z, k=0), order


def test_interval_table_matches_the_full_scan_at_pool_scale():
    for inst, order in _pool_scale_queries():
        masks, counts, labels, window = _mask_table(inst, order)
        assert (masks, labels, window) == full_scan_mask_table(inst, order)
        _assert_row_facts(masks, counts, window)


def _seeded_small_queries(count: int):
    """`count` seeded unit-interval queries, n 3-30, tau 1-12, edge
    probability 0.1-1.0, each with non-adjacent terminals drawn in either
    direction, under the identity ordering.  Over the first 1000, the a-loop
    leaves on an equal-size tail more often than on a larger one."""
    rng = XorShift64Star(3030)
    for j in range(count):
        spec = GenSpec(
            n=3 + rng.randrange(28),
            tau=1 + rng.randrange(12),
            edge_prob=(1 + rng.randrange(10)) / 10,
            constraint=UnitIntervalConstraint(),
            seed=5000 + j,
        )
        g = generate(spec).g
        pairs = [(s, z) for s in range(g.n) for z in range(s + 1, g.n) if (s, z) not in g.edge_labels]
        s, z = pairs[rng.randrange(len(pairs))]
        if rng.randrange(2):
            s, z = z, s
        yield Instance(g=g, s=s, z=z, k=0), tuple(range(g.n))


def test_interval_table_matches_the_full_scan_on_1000_small_queries():
    for inst, order in _seeded_small_queries(1000):
        masks, counts, labels, window = _mask_table(inst, order)
        assert (masks, labels, window) == full_scan_mask_table(inst, order)
        _assert_row_facts(masks, counts, window)

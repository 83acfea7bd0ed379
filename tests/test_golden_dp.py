"""Golden witnesses of the two polynomial DP backends over seeded corpora.

Unit-interval graphs go through `solve_interval_dp` under three orderings of
the terminals (identity; the reversed ordering with interior terminals, so s
comes after z and the window is padded; identity with s after z).  Small-width
graphs and ladders go through `solve_treewidth_dp` on their min-fill
decompositions, and their finite root entries through `treewidth_root_table`.
Every budget from 0 to the minimum + 1 is asked, and the sorted witness or
`none` is recorded.  The transcript must match the committed
`tests/golden/dp_witnesses.txt` byte for byte, so a change to a table's
tie-breaks shows even where the witness size stays minimum.

A hypothesis test also holds every cell of `interval_dp_table` to the
frozenset reference in `interval_dp_reference.py`.

To re-record after an intended output change:
    PYTHONPATH=src:tests python -c "import test_golden_dp as t; t.record()"
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from interval_dp_reference import reference_interval_dp_table

from temposep import Instance, build, build_tree_decomposition, solve_interval_dp, solve_treewidth_dp
from temposep.generators import GenSpec, UnitIntervalConstraint, XorShift64Star, generate
from temposep.solvers.interval_dp import interval_dp_table
from temposep.solvers.treewidth_dp import treewidth_root_table

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

    def vid(r: int, i: int) -> int:
        return 1 + i * rails + r

    triples = []
    for r in range(rails):
        triples.append((0, vid(r, 0), 1 + rng.randrange(tau)))
        triples.append((vid(r, length - 1), n - 1, 1 + rng.randrange(tau)))
        for i in range(length - 1):
            triples.append((vid(r, i), vid(r, i + 1), 1 + rng.randrange(tau)))
    for i in range(length):
        for r in range(rails - 1):
            triples.append((vid(r, i), vid(r + 1, i), 1 + rng.randrange(tau)))
    return build(n, tau, triples)


def _fmt(sep) -> str:
    return "none" if sep is None else ",".join(str(v) for v in sep.sorted()) or "-"


def _budget_sweep(label: str, inst: Instance, solve) -> list[str]:
    """One line per budget 0..minimum+1: the sorted witness or `none`."""
    minimum = solve(inst.with_budget(inst.g.n)).size
    return [f"{label} k={k} {_fmt(solve(inst.with_budget(k)))}" for k in range(minimum + 2)]


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
    """A generated unit-interval graph, two non-adjacent terminals, and the
    identity or the reversed ordering."""
    spec = GenSpec(
        n=draw(st.integers(3, 10)),
        tau=draw(st.integers(1, 5)),
        edge_prob=draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])),
        constraint=UnitIntervalConstraint(),
        seed=draw(st.integers(0, 10**6)),
    )
    g = generate(spec).g
    s = draw(st.integers(0, g.n - 1))
    z = draw(st.integers(0, g.n - 1))
    assume(s != z and (min(s, z), max(s, z)) not in g.edge_labels)
    order = tuple(range(g.n))
    if draw(st.booleans()):
        order = order[::-1]
    return Instance(g=g, s=s, z=z, k=0), order


@given(_unit_interval_queries())
@settings(max_examples=150, deadline=None)
def test_interval_table_matches_frozenset_reference(query):
    inst, order = query
    assert interval_dp_table(inst, order) == reference_interval_dp_table(inst, order)

"""Tests of the benchmark's own answer check, tracer and configuration.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from check import AnswerChecker, temporal_path_exists, witness_problem  # noqa: E402
from temposep import Instance, build, min_separator_bruteforce  # noqa: E402
from temposep.cli import run_solve  # noqa: E402
from temposep.generators import GenSpec, generate  # noqa: E402
from temposep.oracle import temporal_path_exists_exhaustive  # noqa: E402


def tiny_instances(count, seed0=7):
    rng = random.Random(seed0)
    for i in range(count):
        n = rng.randint(3, 8)
        g = generate(GenSpec(n, rng.randint(1, 4), rng.choice((0.2, 0.35, 0.5)), None, seed0 + i)).g
        removed = frozenset(v for v in range(1, n - 1) if rng.random() < 0.25)
        yield g, removed


@pytest.mark.parametrize("strict", [False, True])
def test_reachability_matches_exhaustive_oracle(strict):
    for g, removed in tiny_instances(400):
        kept = [(u, v, t) for u, v, t in g.raw_triples() if u not in removed and v not in removed]
        reduced = build(g.n, g.tau, kept)
        for s, z in ((0, g.n - 1), (1, 0), (g.n - 1, 1)):
            expected = temporal_path_exists_exhaustive(reduced, s, z, strict)
            assert temporal_path_exists(g.n, g.raw_triples(), s, z, strict, removed) == expected


def test_witness_problem_accepts_minimum_and_rejects_corruptions():
    checked = 0
    for g, _ in tiny_instances(200, seed0=99):
        inst = Instance(g=g, s=0, z=g.n - 1, k=g.n)
        best = min_separator_bruteforce(inst)
        triples = g.raw_triples()
        assert witness_problem(g.n, triples, 0, g.n - 1, best.size, False, best.sorted()) is None
        if best.size == 0:
            continue
        checked += 1
        # Dropping a vertex of a minimum separator leaves a path.
        assert witness_problem(g.n, triples, 0, g.n - 1, best.size, False, best.sorted()[1:]) is not None
        # Over budget, with a terminal, or repeated.
        assert witness_problem(g.n, triples, 0, g.n - 1, best.size - 1, False, best.sorted()) is not None
        assert witness_problem(g.n, triples, 0, g.n - 1, g.n, False, best.sorted() + [0]) is not None
        assert witness_problem(g.n, triples, 0, g.n - 1, g.n, False, best.sorted() * 2) is not None
    assert checked > 20


def _graph_of(g):
    return lambda: (g.n, g.raw_triples())


def test_checker_counts_injected_failures():
    g = generate(GenSpec(12, 4, 0.35, None, 5)).g
    inst = Instance(g=g, s=0, z=11, k=g.n)
    best = min_separator_bruteforce(inst)
    assert best.size > 0
    k = best.size
    checker = AnswerChecker()
    common = ("g", _graph_of(g), 0, 11, k, False)
    assert checker.check(*common, True, True, best.sorted())
    assert not checker.check(*common, True, False, None)  # flipped verdict
    assert not checker.check(*common, False, True, best.sorted())  # flipped verdict
    assert not checker.check(*common, True, True, best.sorted()[1:])  # corrupted witness
    assert not checker.check(*common, True, True, None)  # missing witness
    assert not checker.check(*common, True, None, None, "RuntimeError: boom")  # raised
    assert len(checker.failures) == 5


def test_cli_check_counts_flipped_verdict_and_corrupted_witness(tmp_path):
    g = generate(GenSpec(12, 4, 0.35, None, 5)).g
    best = min_separator_bruteforce(Instance(g=g, s=0, z=11, k=g.n))
    path = tmp_path / "a.tg"
    workloads.write_tg(g, path)
    item = {"key": "batch-000", "k": best.size, "n": 12, "files": [{"key": "batch-000/0", "path": str(path)}]}
    corpus = {"items": [item]}
    expected = {"cli-batch": {"batch-000": {"files": [{"verdict": True}]}}}
    sep = ",".join(map(str, best.sorted()))
    good = f"file={path} verdict=yes separator={sep} backend=search-tree\n"
    wrong_witness = f"file={path} verdict=yes separator={sep.split(',', 1)[-1] if ',' in sep else ''} backend=x\n"
    calls = [
        {"i": 0, "code": 0, "error": None, "stdout": good},
        {"i": 0, "code": 1, "error": None, "stdout": f"file={path} verdict=no\n"},
        {"i": 0, "code": 0, "error": None, "stdout": wrong_witness},
        {"i": 0, "code": 1, "error": None, "stdout": good},  # exit code contradicts the line
        {"i": 0, "code": 2, "error": "exit code 2: error", "stdout": ""},
    ]
    checker = AnswerChecker()
    assert run.check_cli(corpus, expected, calls, checker) == 4


def test_tracer_self_times_counts_and_absent_targets():
    g = generate(GenSpec(40, 8, 0.05, None, 3)).g
    inst = Instance(g=g, s=0, z=39, k=2)
    tr = tracer_mod.Tracer()
    targets = tracer_mod.TARGETS + (tracer_mod.Target("gone.layer", "temposep.core", "no_such_function"),)
    tr.install(targets)
    try:
        import temposep.cli as cli

        tr.begin_call()
        result = cli.run_solve(inst)
        tr.end_call(1.0)
    finally:
        tr.uninstall()
    s = tr.summary()
    assert s["absent"] == ["gone.layer"]
    assert s["calls"]["cli.run_solve"] == 1
    assert s["calls"]["reachability.find_temporal_path"] >= 1
    nodes = s["counters"].get("solvers.search_tree.nodes", 0)
    under_search = s["calls"]["reachability.find_temporal_path"] - s["calls"].get("oracle.is_separator", 0)
    assert nodes == under_search
    assert s["counters"][f"solvers.auto.backend.{result.backend}"] == 1
    # Self times of all layers add up to the root span's duration.
    assert sum(s["self_s"].values()) == pytest.approx(s["total_s"]["cli.run_solve"], rel=1e-6)
    # Uninstall restored every original.
    import temposep.solvers.search_tree as st
    from temposep import reachability

    assert st.find_temporal_path is reachability.find_temporal_path
    assert not hasattr(st.find_temporal_path, "__wrapped__")


def test_speed_scales_follow_the_local_probe_median():
    assert speed.probe_ms(reps=1) > 0
    ref = speed.REFERENCE_PROBE_MS
    scales = speed.scales([ref] * 10 + [2 * ref] * 10)
    assert scales[0] == pytest.approx(1.0)
    assert scales[-1] == pytest.approx(0.5)
    # One outlier probe does not move the scale of the call it precedes.
    assert speed.scales([ref] * 9 + [10 * ref] + [ref] * 9)[9] == pytest.approx(1.0)


def test_interval_candidates_match_the_recurrence():
    for window in range(2, 12):
        for tau in range(1, 6):
            count = sum(2 for i in range(2, window))
            for t in range(2, tau + 1):
                for i in range(2, window):
                    count += 2 + (t - 1) * (i - 1)
            assert tracer_mod.interval_candidates(window, tau) == count


def test_selection_is_seeded_and_stratified():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        a = workloads.select(workload, 1, expected)
        assert [workloads.member_key(m) for m in a] == [
            workloads.member_key(m) for m in workloads.select(workload, 1, expected)
        ]
        b = workloads.select(workload, 2, expected)
        assert {workloads.member_key(m) for m in a} != {workloads.member_key(m) for m in b}
        shares = {g: sum(1 for m in a if workloads.member_group(m) == g) for g in workloads.GROUPS[workload]}
        assert shares == {g: take for g, (_, take) in workloads.GROUPS[workload].items()}


def test_expected_covers_every_pool_member_with_the_recorded_budget():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        keys = {workloads.member_key(m) for m in workloads.pool(workload)}
        assert keys == set(expected[workload])
    # Spot-check recorded verdicts against the program on cheap members.
    for spec in workloads.pool(workloads.STRUCTURED)[-4:]:
        entry = expected[workloads.STRUCTURED][spec.key]
        g = workloads.make_graph(spec)
        bags, edges = workloads.minfill_tree_decomposition(g.underlying())
        inst = Instance(g=g, s=0, z=g.n - 1, k=entry["k"])
        assert run_solve(inst, td_raw=(bags, edges, g.n)).verdict == entry["verdict"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}

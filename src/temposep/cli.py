"""Batch command-line front end.

Line-oriented key=value output so golden files diff cleanly; identical
invocations produce byte-identical stdout.  Exit codes: 0 = yes, 1 = no,
2 = usage or input error, 3 = contract violation (a ContractError, for
instance a time-edge between the terminals).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import fileio
from .classes import classify
from .core import TemporalGraph
from .errors import ContractError, DecompositionMismatch, FormatError, TempoSepError
from .generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    SteadyConstraint,
    UnitIntervalConstraint,
    generate,
)
from .oracle import Instance, Separator, is_separator, min_separator_bruteforce
from .reductions import REDUCTIONS
from .solvers import (
    DEFAULT_WORK_CAP,
    build_tree_decomposition,
    solve_auto,
    solve_interval_dp,
    solve_search_tree,
    solve_treewidth_dp,
    static_min_vertex_cut,
)

USAGE_ERROR = 2
CONTRACT_ERROR = 3


@dataclass
class RunResult:
    verdict: bool
    separator: Optional[Separator]
    backend: str
    n: int
    m: int
    tau: int
    millis: float


def _work_cap() -> int:
    raw = os.environ.get("TEMPO_SEP_WORK_CAP")
    return int(raw) if raw else DEFAULT_WORK_CAP


def run_solve(
    inst: Instance,
    algo: str = "auto",
    ordering: Optional[Sequence[int]] = None,
    td_raw: Optional[tuple] = None,
    strict: bool = False,
) -> RunResult:
    """Dispatch one solve and re-verify any witness before reporting it."""
    start = time.perf_counter()
    if strict and algo in ("treewidth", "interval", "static-cut"):
        raise FormatError(f"--strict is not supported by the {algo} backend")
    td = None
    # Only the treewidth backend reads a decomposition, so it is checked and
    # built only where that backend can run.
    if td_raw is not None and (algo == "treewidth" or (algo == "auto" and not strict)):
        bags, tree_edges, td_n = td_raw
        if td_n != inst.g.n:
            raise DecompositionMismatch(f"decomposition header declares {td_n} vertices, the graph has {inst.g.n}")
        td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z, external=(bags, tree_edges))
    if algo == "auto":
        if strict:
            sep, backend = solve_search_tree(inst, strict=True), "search-tree"
        else:
            sep, backend = solve_auto(inst, ordering=ordering, td=td, work_cap=_work_cap())
    elif algo == "brute":
        best = min_separator_bruteforce(inst, strict)
        sep, backend = (best if best.size <= inst.k else None), "brute"
    elif algo == "search-tree":
        sep, backend = solve_search_tree(inst, strict), "search-tree"
    elif algo == "treewidth":
        if td is None:
            td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z)
        sep, backend = solve_treewidth_dp(inst, td), "treewidth-dp"
    elif algo == "interval":
        order = tuple(ordering) if ordering is not None else tuple(range(inst.g.n))
        sep, backend = solve_interval_dp(inst, order), "interval-dp"
    elif algo == "static-cut":
        cut = static_min_vertex_cut(inst.g.underlying(), inst.s, inst.z)
        sep, backend = (Separator(cut) if len(cut) <= inst.k else None), "static-cut"
    else:
        raise FormatError(f"unknown algorithm {algo!r}")
    if sep is not None and not is_separator(inst, sep.vertices, strict):
        raise AssertionError(f"backend {backend} produced a non-separating witness {sep.sorted()}")
    millis = (time.perf_counter() - start) * 1000.0
    return RunResult(
        verdict=sep is not None,
        separator=sep,
        backend=backend,
        n=inst.g.n,
        m=len(inst.g.edges),
        tau=inst.g.tau,
        millis=millis,
    )


def _fmt_vertices(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices))


def _parse_class(text: str):
    name, _, params = text.partition(":")
    if name == "none":
        return None
    if name == "unit-interval":
        return UnitIntervalConstraint()
    if name == "periodic":
        p, _, r = params.partition(",")
        return PeriodicConstraint(int(p), int(r))
    if name == "steady":
        return SteadyConstraint(int(params))
    if name == "monotone":
        return MonotoneConstraint(int(params))
    raise FormatError(f"unknown class {text!r}; expected none, unit-interval, periodic:P,R, steady:L, monotone:P")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempo-sep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_path = sub.add_parser("path", help="find one temporal (s,z)-path")
    p_path.add_argument("input")
    p_path.add_argument("--s", type=int, required=True)
    p_path.add_argument("--z", type=int, required=True)
    p_path.add_argument("--strict", action="store_true")
    p_path.add_argument("--quiet", action="store_true")

    p_solve = sub.add_parser("solve", help="decide separation within a budget")
    p_solve.add_argument("inputs", nargs="+")
    p_solve.add_argument("--s", type=int, required=True)
    p_solve.add_argument("--z", type=int, required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "brute", "search-tree", "treewidth", "interval", "static-cut"],
    )
    p_solve.add_argument("--ordering", help="vertex ordering file for the interval backend")
    p_solve.add_argument("--td", help="tree decomposition file for the treewidth backend")
    p_solve.add_argument("--strict", action="store_true")
    p_solve.add_argument("--quiet", action="store_true")
    p_solve.add_argument("--stats", action="store_true", help="print n/m/tau/time to stderr")

    p_classify = sub.add_parser("classify", help="run the class detectors")
    p_classify.add_argument("input")

    p_reduce = sub.add_parser("reduce", help="apply an instance transformation")
    p_reduce.add_argument("input")
    p_reduce.add_argument("--kind", required=True, choices=sorted(REDUCTIONS))
    p_reduce.add_argument("-o", "--output", required=True)
    p_reduce.add_argument("--s", type=int, default=None)
    p_reduce.add_argument("--z", type=int, default=None)
    p_reduce.add_argument("--k", type=int, default=0)
    p_reduce.add_argument("--report", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--tau", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True, help="per-layer edge probability")
    p_gen.add_argument("--class", dest="klass", default="none")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)

    p_verify = sub.add_parser("verify", help="check a separator candidate")
    p_verify.add_argument("input")
    p_verify.add_argument("--s", type=int, required=True)
    p_verify.add_argument("--z", type=int, required=True)
    p_verify.add_argument("--separator", required=True, help="comma-separated vertex ids, empty for the empty set")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--quiet", action="store_true")
    return parser


def _cmd_path(args) -> int:
    g = fileio.load_tg(args.input)
    from .reachability import find_temporal_path

    path = find_temporal_path(g, args.s, args.z, args.strict)
    if path is None:
        print("no" if args.quiet else "verdict=no")
        return 1
    if args.quiet:
        print("yes")
    else:
        rendered = ",".join(f"{st.frm}-{st.to}@{st.t}" for st in path.steps)
        print(f"verdict=yes path={rendered}")
    return 0


def _cmd_solve(args) -> int:
    ordering = None
    td_raw = None
    first_graph: Optional[TemporalGraph] = None
    exit_code = 0
    for input_path in args.inputs:
        g = fileio.load_tg(input_path)
        if first_graph is None:
            first_graph = g
            if args.ordering:
                ordering = fileio.load_ordering(args.ordering, g.n)
            if args.td:
                td_raw = fileio.load_td(args.td)
        inst = Instance(g=g, s=args.s, z=args.z, k=args.k)
        result = run_solve(inst, args.algo, ordering, td_raw, args.strict)
        prefix = f"file={input_path} " if len(args.inputs) > 1 else ""
        if result.verdict:
            if args.quiet:
                print("yes")
            else:
                print(
                    f"{prefix}verdict=yes separator={_fmt_vertices(result.separator.vertices)} "
                    f"backend={result.backend}"
                )
        else:
            print("no" if args.quiet else f"{prefix}verdict=no")
            exit_code = 1
        if args.stats:
            print(
                f"n={result.n} m={result.m} tau={result.tau} backend={result.backend} "
                f"millis={result.millis:.1f}",
                file=sys.stderr,
            )
    return exit_code


def _cmd_classify(args) -> int:
    g = fileio.load_tg(args.input)
    profile = classify(g)
    if profile.monotone is None:
        print("monotone none")
    else:
        peaks = ",".join(str(t) for t in profile.monotone.peaks)
        print(f"monotone p={profile.monotone.p} peaks={peaks}")
    print(f"periodic p={profile.periodic_p} r={profile.periodic_r}")
    print(f"steady lambda={profile.steady_lambda}")
    print(f"interval-connected maxT={profile.interval_connected_max_t}")
    return 0


def _cmd_reduce(args) -> int:
    g = fileio.load_tg(args.input)
    s = args.s if args.s is not None else 0
    z = args.z if args.z is not None else g.n - 1
    inst = Instance(g=g, s=s, z=z, k=args.k)
    out, report = REDUCTIONS[args.kind](inst)
    fileio.dump_tg(out.g, args.output)
    print(f"out={args.output} s={out.s} z={out.z} k={out.k}")
    if args.report:
        print(f"kind={report.kind}")
        print(f"budget_delta={report.budget_delta}")
        for key in ("n", "m", "tau", "k"):
            print(f"input.{key}={report.input_summary[key]}")
        for name in sorted(report.checks):
            print(f"check.{name}={'pass' if report.checks[name] else 'fail'}")
        for name in sorted(report.details):
            print(f"detail.{name}={report.details[name]}")
    if not report.all_passed:
        print("error: structural checklist failed", file=sys.stderr)
        return CONTRACT_ERROR
    return 0


def _cmd_gen(args) -> int:
    constraint = _parse_class(args.klass)
    spec = GenSpec(n=args.n, tau=args.tau, edge_prob=args.p, constraint=constraint, seed=args.seed)
    inst = generate(spec)
    fileio.dump_tg(inst.g, args.output)
    print(f"out={args.output} n={inst.g.n} m={len(inst.g.edges)} tau={inst.g.tau}")
    return 0


def _cmd_verify(args) -> int:
    g = fileio.load_tg(args.input)
    inst = Instance(g=g, s=args.s, z=args.z, k=0)
    text = args.separator.strip()
    try:
        vertices = frozenset(int(p) for p in text.split(",")) if text else frozenset()
    except ValueError:
        raise FormatError(f"bad separator list {args.separator!r}") from None
    ok = is_separator(inst, vertices, args.strict)
    print(("yes" if ok else "no") if args.quiet else f"verdict={'yes' if ok else 'no'}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "path": _cmd_path,
        "solve": _cmd_solve,
        "classify": _cmd_classify,
        "reduce": _cmd_reduce,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONTRACT_ERROR
    except (TempoSepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

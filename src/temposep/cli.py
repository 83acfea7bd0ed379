"""Batch command-line front end.

Line-oriented key=value output so golden files diff cleanly; identical
invocations produce byte-identical stdout.  Exit codes: 0 = yes, 1 = no,
2 = usage or input error, 3 = contract violation (a ContractError, for
instance a time-edge between the terminals).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple, Optional, Sequence

# Whatever only one command or backend uses is imported where it is used,
# so a solve loads no generator, reduction or backend that it does not run.
from . import fileio
from .errors import ContractError, DecompositionMismatch, FormatError, NotAPermutation, TempoSepError
from .reachability import Instance, Separator, is_separator
from .solvers.auto import solve_auto
from .solvers.search_tree import solve_search_tree
from .solvers.static_cut import static_min_vertex_cut

USAGE_ERROR = 2
CONTRACT_ERROR = 3
_SIZE_ERRORS = (OverflowError, MemoryError)  # a header value too large to size a view
_INPUT_ERRORS = (TempoSepError, OSError, ValueError, *_SIZE_ERRORS)
# The keys of reductions.REDUCTIONS, sorted; spelled out so that parsing
# arguments does not import the reductions.
REDUCTION_KINDS = ("complete-but-one", "line-graph", "one-edge", "pad-monotone", "steady", "universal")


class RunResult(NamedTuple):
    verdict: bool
    separator: Optional[Separator]
    backend: str
    millis: float


def _reads(hint_algo: str, algo: str, strict: bool) -> bool:
    """Only the `hint_algo` backend reads its hint file; non-strict auto may pick it."""
    return algo == hint_algo or (algo == "auto" and not strict)


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
    if ordering is not None and _reads("interval", algo, strict):
        if len(ordering) != inst.g.n or sorted(ordering) != list(range(inst.g.n)):
            raise NotAPermutation(f"--ordering is not a permutation of 0..{inst.g.n - 1}")
    td = None
    if _reads("treewidth", algo, strict) and (td_raw is not None or algo == "treewidth"):
        external = None
        if td_raw is not None:
            bags, tree_edges, td_n = td_raw
            if td_n != inst.g.n:
                raise DecompositionMismatch(f"decomposition header declares {td_n} vertices, the graph has {inst.g.n}")
            external = (bags, tree_edges)
        from .solvers.decomposition import build_tree_decomposition

        td = build_tree_decomposition(inst.g.underlying(), inst.s, inst.z, external)
    if algo == "auto" and not strict:
        sep, backend = solve_auto(inst, ordering=ordering, td=td)
    elif algo in ("auto", "search-tree"):
        sep, backend = solve_search_tree(inst, strict), "search-tree"
    elif algo == "brute":
        from .oracle import min_separator_bruteforce

        sep, backend = min_separator_bruteforce(inst, strict), "brute"
    elif algo == "treewidth":
        from .solvers.treewidth_dp import solve_treewidth_dp

        sep, backend = solve_treewidth_dp(inst, td), "treewidth-dp"
    elif algo == "interval":
        from .solvers.interval_dp import solve_interval_dp

        order = tuple(ordering) if ordering is not None else tuple(range(inst.g.n))
        sep, backend = solve_interval_dp(inst, order), "interval-dp"
    elif algo == "static-cut":
        sep, backend = Separator(static_min_vertex_cut(inst.g.underlying(), inst.s, inst.z)), "static-cut"
    else:
        raise FormatError(f"unknown algorithm {algo!r}")
    sep = sep if sep is not None and sep.size <= inst.k else None  # an exact minimum above k answers no
    if sep is not None and not is_separator(inst, sep.vertices, strict):
        raise AssertionError(f"backend {backend} produced a non-separating witness {sep.sorted()}")
    millis = (time.perf_counter() - start) * 1000.0
    return RunResult(sep is not None, sep, backend, millis)


def _answer(args, yes: bool, detail: str = "", file: Optional[str] = None) -> int:
    """Print one answer line, a bare yes|no under --quiet; return 0 for yes, 1 for no."""
    word = "yes" if yes else "no"
    print(word if args.quiet else f"{'' if file is None else f'file={file} '}verdict={word}{detail}")
    return 0 if yes else 1


def _fail(exc: Exception, where: str = "") -> int:
    """Print an input error to stderr, a size error under its type's name; its
    exit code is 3 for a ContractError and 2 otherwise."""
    text = ": ".join(filter(None, (type(exc).__name__, str(exc)))) if isinstance(exc, _SIZE_ERRORS) else exc
    print(f"error: {where}{text}", file=sys.stderr)
    return CONTRACT_ERROR if isinstance(exc, ContractError) else USAGE_ERROR


def _parse_class(text: str):
    from .generators import MonotoneConstraint, PeriodicConstraint, SteadyConstraint, UnitIntervalConstraint

    forms = "expected none, unit-interval, periodic:P,R, steady:L, monotone:P"
    name, colon, params = text.partition(":")
    if colon and name in ("none", "unit-interval"):
        raise FormatError(f"bad parameters in class {text!r}; {forms}")
    try:
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
    except ValueError:
        raise FormatError(f"bad parameters in class {text!r}; {forms}") from None
    raise FormatError(f"unknown class {text!r}; {forms}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempo-sep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags of the commands that read one (s,z) query.
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--s", type=int, required=True)
    query.add_argument("--z", type=int, required=True)
    query.add_argument("--strict", action="store_true")
    query.add_argument("--quiet", action="store_true")

    p_path = sub.add_parser("path", parents=[query], help="find one temporal (s,z)-path")
    p_path.add_argument("input")
    p_path.set_defaults(handler=_cmd_path)

    p_solve = sub.add_parser("solve", parents=[query], help="decide separation within a budget")
    p_solve.add_argument("inputs", nargs="+")
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "brute", "search-tree", "treewidth", "interval", "static-cut"],
    )
    p_solve.add_argument("--ordering", help="vertex ordering file for the interval backend")
    p_solve.add_argument("--td", help="tree decomposition file for the treewidth backend")
    p_solve.add_argument("--stats", action="store_true", help="print n/m/tau/time to stderr")
    p_solve.set_defaults(handler=_cmd_solve)

    p_classify = sub.add_parser("classify", help="run the class detectors")
    p_classify.add_argument("input")
    p_classify.set_defaults(handler=_cmd_classify)

    p_reduce = sub.add_parser("reduce", help="apply an instance transformation")
    p_reduce.add_argument("input")
    p_reduce.add_argument("--kind", required=True, choices=REDUCTION_KINDS)
    p_reduce.add_argument("-o", "--output", required=True)
    p_reduce.add_argument("--s", type=int, default=None)
    p_reduce.add_argument("--z", type=int, default=None)
    p_reduce.add_argument("--k", type=int, default=0)
    p_reduce.add_argument("--report", action="store_true")
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--tau", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True, help="per-layer edge probability")
    p_gen.add_argument("--class", dest="klass", default="none")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser("verify", parents=[query], help="check a separator candidate")
    p_verify.add_argument("input")
    p_verify.add_argument("--separator", required=True, help="comma-separated vertex ids, empty for the empty set")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _cmd_path(args) -> int:
    g = fileio.load_tg(args.input)
    from .reachability import find_temporal_path, is_valid_path

    path = find_temporal_path(g, args.s, args.z, args.strict)
    if path is None:
        return _answer(args, False)
    if not is_valid_path(g, path, args.s, args.z, args.strict):
        raise AssertionError(f"reachability produced an invalid path {path.steps}")
    return _answer(args, True, " path=" + ",".join(f"{st.frm}-{st.to}@{st.t}" for st in path.steps))


def _cmd_solve(args) -> int:
    """Solve each input; a batch skips a failed input, but not a failed --ordering or --td file."""
    ordering = None
    td_raw = None
    if args.ordering and _reads("interval", args.algo, args.strict):
        ordering = fileio.load_ordering(args.ordering)
    if args.td and _reads("treewidth", args.algo, args.strict):
        td_raw = fileio.load_td(args.td)
    exit_code = 0
    for input_path in args.inputs:
        try:
            g = fileio.load_tg(input_path)
            inst = Instance(g=g, s=args.s, z=args.z, k=args.k)
            result = run_solve(inst, args.algo, ordering, td_raw, args.strict)
        except _INPUT_ERRORS as exc:
            named = (
                len(args.inputs) == 1
                or (isinstance(exc, FormatError) and exc.path == input_path)
                or (isinstance(exc, OSError) and exc.filename == input_path)
            )
            exit_code = max(exit_code, _fail(exc, "" if named else f"{input_path}: "))
            continue
        sep = result.separator
        detail = "" if sep is None else f" separator={','.join(map(str, sep.sorted()))} backend={result.backend}"
        exit_code = max(exit_code, _answer(args, result.verdict, detail, input_path if len(args.inputs) > 1 else None))
        if args.stats:
            print(
                f"n={g.n} m={len(g.edges)} tau={g.tau} backend={result.backend} "
                f"millis={result.millis:.1f}",
                file=sys.stderr,
            )
    return exit_code


def _cmd_classify(args) -> int:
    from .classes import classify

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
    from .reductions import REDUCTIONS

    g = fileio.load_tg(args.input)
    s = args.s if args.s is not None else 0
    z = args.z if args.z is not None else g.n - 1
    inst = Instance(g=g, s=s, z=z, k=args.k)
    out, report = REDUCTIONS[args.kind](inst)
    fileio.dump_tg(out.g, args.output)
    print(f"out={args.output} s={out.s} z={out.z} k={out.k}")
    if args.report:
        print(f"kind={args.kind}")
        print(f"budget_delta={report.budget_delta}")
        for key, value in (("n", g.n), ("m", len(g.edges)), ("tau", g.tau), ("k", inst.k)):
            print(f"input.{key}={value}")
        for name in sorted(report.checks):
            print(f"check.{name}={'pass' if report.checks[name] else 'fail'}")
        for name in sorted(report.details):
            print(f"detail.{name}={report.details[name]}")
    if not report.all_passed:
        print("error: structural checklist failed", file=sys.stderr)
        return CONTRACT_ERROR
    return 0


def _cmd_gen(args) -> int:
    from .generators import GenSpec, generate

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
    return _answer(args, is_separator(inst, vertices, args.strict))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces each target function with a timing wrapper in every
loaded `temposep` module that holds it (so `oracle.find_temporal_path` and
`solvers.search_tree.find_temporal_path` are both caught), and methods on
their class.  A target that no longer exists is reported as absent.

Spans of one top-level call are kept in memory with their parent ids; when
the call ends its spans are folded into per-layer calls, self time (duration
minus the time covered by child spans) and inclusive time.  Probes read work
counts off a layer's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Target(NamedTuple):
    layer: str  # metric prefix, e.g. "reachability.find_temporal_path"
    module: str
    attr: str  # "func" or "Class.method"
    probe: Optional[Callable] = None  # probe(tracer, args, kwargs, result)


def _probe_run(tr, args, kwargs, result):
    tr.count(f"solvers.auto.backend.{result.backend}", 1)


def _probe_path(tr, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    tr.count("reachability.edges_scanned", len(g.edges))
    tr.count("reachability.paths_found", result is not None)
    if tr.is_open("solvers.search_tree"):
        tr.count("solvers.search_tree.nodes", 1)


def _probe_delete(tr, args, kwargs, result):
    tr.count("core.delete_vertices.edges_copied", len(result[0].edges))


def _probe_cut(tr, args, kwargs, result):
    # Unit vertex capacities: each augmenting path carries one unit, so the
    # number of augmentations equals the cut size.
    tr.count("solvers.static_cut.augmentations", len(result))


def _probe_interval(tr, args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    ordering = list(args[1] if len(args) > 1 else kwargs["ordering"])
    window = abs(ordering.index(inst.z) - ordering.index(inst.s)) + 1
    tr.count("solvers.interval_dp.candidates", interval_candidates(window, inst.g.tau))


def _probe_decomposition(tr, args, kwargs, result):
    tr.maximum("solvers.decomposition.build_tree_decomposition.width", result.width)


def _probe_treewidth(tr, args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    td = args[1] if len(args) > 1 else kwargs["td"]
    tr.count("solvers.treewidth_dp.estimate_cells", (inst.g.tau + 2) ** (td.width + 2) * len(td.nodes))


def _probe_load(tr, args, kwargs, result):
    tr.count("fileio.edges_parsed", len(result.edges))


def interval_candidates(window: int, tau: int) -> int:
    """Candidate sets the interval DP compares, from its recurrence.

    Row t = 1 compares 2 per position i in 2..window-1; each later row t
    compares 2 + (t-1)(i-1) per position.
    """
    positions = max(window - 2, 0)
    return 2 * positions * tau + (tau - 1) * tau // 2 * positions * (positions + 1) // 2


TARGETS = (
    Target("cli.run_solve", "temposep.cli", "run_solve", _probe_run),
    Target("solvers.auto.solve_auto", "temposep.solvers.auto", "solve_auto"),
    Target("reachability.find_temporal_path", "temposep.reachability", "find_temporal_path", _probe_path),
    Target("core.delete_vertices", "temposep.core", "TemporalGraph.delete_vertices", _probe_delete),
    Target("core.underlying", "temposep.core", "TemporalGraph.underlying"),
    Target("core.build", "temposep.core", "build"),
    Target("solvers.search_tree", "temposep.solvers.search_tree", "solve_search_tree"),
    Target("classes.classify", "temposep.classes", "classify"),
    Target("classes.check_order_compatible", "temposep.classes", "check_order_compatible"),
    Target("solvers.static_cut", "temposep.solvers.static_cut", "static_min_vertex_cut", _probe_cut),
    Target("oracle.is_separator", "temposep.oracle", "is_separator"),
    Target("oracle.distance_to_temporality", "temposep.oracle", "distance_to_temporality"),
    Target("solvers.interval_dp", "temposep.solvers.interval_dp", "solve_interval_dp", _probe_interval),
    Target(
        "solvers.decomposition.build_tree_decomposition",
        "temposep.solvers.decomposition",
        "build_tree_decomposition",
        _probe_decomposition,
    ),
    Target("solvers.treewidth_dp", "temposep.solvers.treewidth_dp", "solve_treewidth_dp", _probe_treewidth),
    Target("fileio.load_tg", "temposep.fileio", "load_tg", _probe_load),
    Target("cli.main", "temposep.cli", "main"),
)


class Tracer:
    """Per-layer spans and counters for the calls made between begin and end."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [id, parent id, layer, start, end]
        self._stack: list[int] = []
        self._open_layers: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_calls = 0
        self.top_wall_s = 0.0
        self.absent: list[str] = []
        self.probe_errors: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            owner, original = self._resolve(target)
            if original is None:
                self.absent.append(target.layer)
                continue
            wrapper = self._wrap(target, original)
            if owner is not None:  # a method: patch the class only
                self._patch(owner, target.attr.split(".")[1], wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "temposep" or name.startswith("temposep.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    @staticmethod
    def _resolve(target: Target):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return None, None
        parts = target.attr.split(".")
        owner = module if len(parts) == 1 else getattr(module, parts[0], None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if not callable(original):
            return None, None
        return (None if len(parts) == 1 else owner), original

    def _patch(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, target: Target, fn):
        tracer, layer, probe = self, target.layer, target.probe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, layer)
            if probe is not None:
                try:
                    probe(tracer, args, kwargs, result)
                except Exception as exc:  # a changed signature must not abort the run
                    tracer.probe_errors.setdefault(layer, f"{type(exc).__name__}: {exc}")
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, layer: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, layer, time.perf_counter(), None])
        self._stack.append(span_id)
        self._open_layers[layer] += 1
        return span_id

    def _close(self, span_id: int, layer: str) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()
        self._open_layers[layer] -= 1

    def is_open(self, layer: str) -> bool:
        return self._open_layers[layer] > 0

    def count(self, name: str, amount) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters[name], value)

    def begin_call(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.active = True

    def end_call(self, wall_s: float) -> None:
        """Fold the spans of the finished top-level call into the totals."""
        self.active = False
        child_s = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None and end is not None:
                child_s[parent] += end - start
        for span_id, _, layer, start, end in self.spans:
            if end is None:  # interrupted by the call ceiling
                continue
            self.calls[layer] += 1
            self.self_s[layer] += (end - start) - child_s[span_id]
            self.total_s[layer] += end - start
        self.spans.clear()
        self._stack.clear()
        self._open_layers.clear()
        self.top_calls += 1
        self.top_wall_s += wall_s

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
            "top_calls": self.top_calls,
            "top_wall_s": self.top_wall_s,
            "absent": list(self.absent),
            "probe_errors": dict(self.probe_errors),
        }


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per traced CLI process); widths take the max."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counters": {}, "top_calls": 0, "top_wall_s": 0.0}
    out["absent"], out["probe_errors"] = [], {}
    for s in summaries:
        for part in ("calls", "self_s", "total_s"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k, v in s["counters"].items():
            if k.endswith(".width"):
                out["counters"][k] = max(out["counters"].get(k, 0), v)
            else:
                out["counters"][k] = out["counters"].get(k, 0) + v
        out["top_calls"] += s["top_calls"]
        out["top_wall_s"] += s["top_wall_s"]
        out["absent"] = sorted(set(out["absent"]) | set(s["absent"]))
        out["probe_errors"].update(s["probe_errors"])
    return out

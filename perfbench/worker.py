"""In-process timed loop: one closed-loop client calling `cli.run_solve`.

Run as `python3 perfbench/worker.py <job.json>` with the program's `src` on
PYTHONPATH.  The job names the corpus directory written during set-up, the
run length, the per-call ceiling and whether to trace; the worker writes its
raw per-call results to the job's `out` file.  It is a process of its own so
that its peak RSS covers solving, not corpus generation.

Each timed call gets a graph rebuilt, untimed, from its raw triples, so no
cached view of an earlier call or of generation carries over.  (Building the
`Instance` computes the graph's `edge_labels` view, as validating any
instance does.)  Before the call, untimed, the collector runs, so no call
pays for an earlier call's garbage, and the speed probe runs (see speed.py).
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
from pathlib import Path

import temposep.cli as cli
from temposep import Instance, build

import speed
from tracer import Tracer
from workloads import read_triples


class CallCeiling(BaseException):
    """Raised by SIGALRM in a call that ran past the per-call ceiling."""


def _on_alarm(signum, frame):
    raise CallCeiling()


class Corpus:
    def __init__(self, corpus_dir: Path):
        with open(corpus_dir / "corpus.json", encoding="utf-8") as fh:
            self.items = json.load(fh)["items"]
        self.flat = [read_triples(corpus_dir, item) for item in self.items]

    def cold_call(self, idx: int):
        """A fresh Instance plus the keyword arguments run_solve receives."""
        item, flat = self.items[idx], self.flat[idx]
        triples = zip(flat[0::3], flat[1::3], flat[2::3])
        inst = Instance(g=build(item["n"], item["tau"], triples), s=item["s"], z=item["z"], k=item["k"])
        kwargs = {"strict": item["strict"]}
        if item["ordering"] is not None:
            kwargs["ordering"] = tuple(item["ordering"])
        if item["td"] is not None:
            bags, tree_edges = item["td"]
            kwargs["td_raw"] = ([set(b) for b in bags], [tuple(e) for e in tree_edges], item["n"])
        return inst, kwargs


def timed_call(corpus: Corpus, idx: int, ceiling_s: float, tracer=None) -> dict:
    inst, kwargs = corpus.cold_call(idx)
    gc.collect()
    record = {"i": idx, "verdict": None, "witness": None, "backend": None, "error": None}
    record["probe_ms"] = speed.probe_ms()
    if tracer is not None:
        tracer.begin_call()
    signal.setitimer(signal.ITIMER_REAL, ceiling_s)
    start = time.perf_counter()
    try:
        result = cli.run_solve(inst, **kwargs)
    except CallCeiling:
        record["error"] = f"exceeded the {ceiling_s:g}s call ceiling"
    except Exception as exc:  # counted as a failed call; the run goes on
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        record["verdict"] = bool(result.verdict)
        record["witness"] = sorted(result.separator.vertices) if result.separator is not None else None
        record["backend"] = result.backend
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.end_call(elapsed)
    record["ms"] = elapsed * 1000.0
    return record


def run(job: dict) -> dict:
    corpus = Corpus(Path(job["corpus_dir"]))
    ceiling = job["ceiling_s"]
    count = len(corpus.items)
    signal.signal(signal.SIGALRM, _on_alarm)

    warm = timed_call(corpus, 0, ceiling)  # untimed warm-up: imports, first-use costs
    out = {"warmup_ms": warm["ms"], "warmup_error": warm["error"]}

    calls = []
    start = time.perf_counter()
    if not job["trace"]:
        # Closed loop for the run length, and long enough for the p90 to
        # have min_samples/10 samples beyond it.
        while True:
            calls.append(timed_call(corpus, len(calls) % count, ceiling))
            elapsed = time.perf_counter() - start
            if elapsed >= job["seconds"] and len(calls) >= job["min_samples"]:
                break
            if elapsed >= job["max_seconds"]:
                break
        out["calls"] = calls
        out["loop_s"] = time.perf_counter() - start
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out

    # Traced run: whole passes untraced for half the run length, then the same
    # passes traced, so the two halves time identical call lists.
    passes = 0
    while passes == 0 or time.perf_counter() - start < job["seconds"] / 2:
        calls.extend(timed_call(corpus, i, ceiling) for i in range(count))
        passes += 1
    tracer = Tracer()
    tracer.install()
    traced = [timed_call(corpus, i % count, ceiling, tracer) for i in range(passes * count)]
    tracer.uninstall()
    out["calls"] = calls
    out["traced_calls"] = traced
    out["passes"] = passes
    out["trace"] = tracer.summary()
    out["loop_s"] = time.perf_counter() - start
    return out


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    out = run(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

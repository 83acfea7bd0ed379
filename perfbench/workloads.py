"""Instance pools, seeded corpus selection and set-up for the four workloads.

Every workload draws from a fixed pool of instance specs.  A spec's graph is a
pure function of its parameters, so the verdicts recorded in `expected.json`
hold for every corpus built from the pool.  The benchmark seed only chooses
which pool members a run uses and in which order they are called.

Selection is matched on difficulty: each group of the pool is sorted by the
cost recorded with its verdict, the run takes members at evenly spaced
quantiles of that order, and the seed picks each of them among the
CANDIDATES pool members nearest its quantile.  Different seeds therefore run
different graphs with the same difficulty profile, which keeps the medians
and tails of one seed comparable with those of another.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from temposep import build
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    UnitIntervalConstraint,
    generate,
)
from temposep.solvers import minfill_tree_decomposition

SEARCH = "search-sparse"
COLLAPSE = "collapse-static"
STRUCTURED = "structured-dp"
CLI = "cli-batch"
WORKLOADS = (SEARCH, COLLAPSE, STRUCTURED, CLI)

# group -> (pool size, members per run).  The per-run counts fix each group's
# share of the calls: a quarter of search-sparse calls are strict, one
# structured-dp call in six is an interval DP, which makes the two DPs take
# about half the time each, and one cli-batch call in six solves graphs of at
# most 9 vertices, where the dispatcher probes the distance to temporality.
GROUPS = {
    SEARCH: {"strict": (40, 12), "k2": (80, 20), "k3": (90, 16)},
    COLLAPSE: {"collapse": (72, 9)},
    STRUCTURED: {"interval": (30, 5), "ladder": (100, 25)},
    CLI: {"batch": (60, 10), "tiny": (12, 2)},
}
# Runs sample the cheapest 90% of each group's pool.  The costliest tenth is
# sparse, so a slot there would swing a run's p90 with the seed.
TOP_QUANTILE = 0.9
CLI_FILES_PER_BATCH = 3
CANDIDATES = 3

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Spec:
    """One pool member: how to generate its graph and how to pose the query.

    `k` is a fixed budget; when it is None the budget is the recorded minimum
    separator size plus `offset` (never below 0), so both verdicts occur.
    """

    key: str
    group: str
    family: str  # general | periodic | monotone | unit-interval | ladder
    n: int
    tau: int
    p: float
    seed: int
    k: Optional[int] = None
    offset: int = 0
    strict: bool = False
    rails: int = 0
    length: int = 0


def _search_pool() -> list[Spec]:
    out = []
    for group, (size, _) in GROUPS[SEARCH].items():
        for j in range(size):
            rng = random.Random(f"{SEARCH}/{group}/{j}")
            n = rng.randint(60, 100 if group == "k3" else 150)
            c = rng.uniform(1.2, 2.0)  # mean degree per layer
            out.append(
                Spec(
                    key=f"{group}-{j:03d}",
                    group=group,
                    family="general",
                    n=n,
                    tau=rng.randint(8, 12),
                    p=round(c / n, 5),
                    seed=rng.randrange(1 << 31),
                    k=2 if group == "k2" else 3,
                    strict=group == "strict",
                )
            )
    return out


def _collapse_pool() -> list[Spec]:
    size, _ = GROUPS[COLLAPSE]["collapse"]
    out = []
    for j in range(size):
        rng = random.Random(f"{COLLAPSE}/{j}")
        out.append(
            Spec(
                key=f"collapse-{j:03d}",
                group="collapse",
                family="periodic" if j % 2 == 0 else "monotone",
                n=400,
                tau=4,
                p=round(rng.uniform(0.04, 0.06), 4),
                seed=rng.randrange(1 << 31),
                offset=-((j // 2) % 2),
            )
        )
    return out


def _structured_pool() -> list[Spec]:
    out = []
    size, _ = GROUPS[STRUCTURED]["interval"]
    for j in range(size):
        rng = random.Random(f"{STRUCTURED}/interval/{j}")
        out.append(
            Spec(
                key=f"interval-{j:03d}",
                group="interval",
                family="unit-interval",
                n=rng.randint(60, 64),
                tau=12,
                p=round(rng.uniform(0.90, 0.94), 4),
                seed=rng.randrange(1 << 31),
                offset=-(j % 2),
            )
        )
    size, _ = GROUPS[STRUCTURED]["ladder"]
    for j in range(size):
        rng = random.Random(f"{STRUCTURED}/ladder/{j}")
        length = rng.randint(12, 16)
        out.append(
            Spec(
                key=f"ladder-{j:03d}",
                group="ladder",
                family="ladder",
                n=3 * length + 2,
                tau=5,
                p=0.0,
                seed=rng.randrange(1 << 31),
                offset=-(j % 2),
                rails=3,
                length=length,
            )
        )
    return out


def _cli_pool() -> list[list[Spec]]:
    """Batches of small files sharing n (so s = 0, z = n-1) and the budget.

    Each batch holds general files and one identical-layer or single-peaked
    file.  "tiny" batches have n <= 9 and denser layers.
    """
    out = []
    for group, (size, _) in GROUPS[CLI].items():
        for j in range(size):
            rng = random.Random(f"{CLI}/{group}/{j}")
            tiny = group == "tiny"
            n = rng.randint(7, 9) if tiny else rng.randint(20, 28)
            k = rng.randint(1, 2) if tiny else rng.randint(2, 3)
            files = []
            for f in range(CLI_FILES_PER_BATCH):
                general = f < CLI_FILES_PER_BATCH - 1
                tau = rng.randint(3, 4) if tiny else rng.randint(5, 7)
                if general:
                    p = rng.uniform(0.25, 0.35) if tiny else rng.uniform(1.5, 2.5) / n
                else:
                    p = rng.uniform(0.3, 0.4) if tiny else rng.uniform(0.10, 0.15)
                files.append(
                    Spec(
                        key=f"{group}-{j:03d}/{f}",
                        group=group,
                        family="general" if general else ("periodic" if j % 2 else "monotone"),
                        n=n,
                        tau=tau,
                        p=round(p, 4),
                        seed=rng.randrange(1 << 31),
                        k=k,
                    )
                )
            out.append(files)
    return out


def pool(workload: str) -> list:
    """Pool members of a workload: Specs, or lists of Specs (one CLI batch each)."""
    return {
        SEARCH: _search_pool,
        COLLAPSE: _collapse_pool,
        STRUCTURED: _structured_pool,
        CLI: _cli_pool,
    }[workload]()


def member_key(member) -> str:
    return member[0].key.split("/")[0] if isinstance(member, list) else member.key


def member_group(member) -> str:
    return member[0].group if isinstance(member, list) else member.group


def ladder_triples(spec: Spec) -> list[tuple[int, int, int]]:
    """A rails x length grid between s = 0 and z = n-1 (treewidth = rails).

    Rail labels ramp up with the column, so most rails carry a temporal path;
    an occasional label one step early on a rail edge breaks that rail and
    forces a detour over a rung, which varies the minimum separator.
    """
    rng = random.Random(spec.seed)
    rails, length, tau = spec.rails, spec.length, spec.tau
    z = spec.n - 1

    def vid(r: int, i: int) -> int:
        return 1 + i * rails + r

    def ramp(i: int) -> int:
        return 1 + (i * tau) // length

    def clamp(t: int) -> int:
        return max(1, min(tau, t))

    triples = []
    for r in range(rails):
        triples.append((0, vid(r, 0), 1))
        triples.append((vid(r, length - 1), z, tau))
        for i in range(length - 1):
            early = 1 if rng.randrange(2 * length) == 0 else 0
            triples.append((vid(r, i), vid(r, i + 1), clamp(ramp(i) - early + rng.randrange(2))))
            if rng.randrange(3) == 0:
                triples.append((vid(r, i), vid(r, i + 1), clamp(ramp(i) + rng.randrange(3) - 1)))
    for i in range(length):
        for r in range(rails - 1):
            triples.append((vid(r, i), vid(r + 1, i), clamp(ramp(i) + rng.randrange(3) - 1)))
    return triples


def make_graph(spec: Spec):
    """The TemporalGraph of a spec, generated with the program's own generators."""
    if spec.family == "ladder":
        return build(spec.n, spec.tau, ladder_triples(spec))
    constraint = {
        "general": None,
        "periodic": PeriodicConstraint(1, spec.tau),
        "monotone": MonotoneConstraint(1),
        "unit-interval": UnitIntervalConstraint(),
    }[spec.family]
    return generate(GenSpec(spec.n, spec.tau, spec.p, constraint, spec.seed)).g


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _bit_reversed(count: int) -> list[int]:
    """0..count-1 ordered by their reversed binary digits (a van der Corput order)."""
    width = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda j: int(format(j, f"0{width}b")[::-1], 2))


def select(workload: str, seed: int, expected: dict) -> list:
    """The run's pool members in call order, chosen by `seed`.

    Slot j of a group taking `take` members sits at quantile
    TOP_QUANTILE * (j + 1/2)/take of the group's recorded costs; the seed
    picks one of the CANDIDATES members nearest it.  Slots are called in
    bit-reversed order and the groups are interleaved evenly, so that any
    stretch of a pass, including the last partial pass of a run, samples
    every group across its range.
    """
    rng = random.Random(f"{workload}/{seed}")
    recorded = expected[workload]
    by_group: dict[str, list] = {}
    for member in pool(workload):
        by_group.setdefault(member_group(member), []).append(member)
    slots = []
    for group, (_, take) in GROUPS[workload].items():
        members = sorted(by_group[group], key=lambda m: (recorded[member_key(m)]["cost"], member_key(m)))
        picks = []
        for j in range(take):
            centre = int(TOP_QUANTILE * (j + 0.5) * len(members) / take)
            first = max(0, min(centre - CANDIDATES // 2, len(members) - CANDIDATES))
            picks.append(members[first + rng.randrange(CANDIDATES)])
        picks = [picks[j] for j in _bit_reversed(take)]
        slots.extend(((i + 0.5) / take, group, m) for i, m in enumerate(picks))
    slots.sort(key=lambda slot: (slot[0], slot[1]))
    return [m for _, _, m in slots]


def _instance_record(spec: Spec, g, k: int, path: Path) -> dict:
    """Write the triples of g to `path` and describe the query around them."""
    flat = array("i")
    for u, v, t in g.raw_triples():
        flat.extend((u, v, t))
    with open(path, "wb") as fh:
        flat.tofile(fh)
    record = {"spec": asdict(spec), "n": g.n, "tau": g.tau, "s": 0, "z": g.n - 1, "k": k, "strict": spec.strict}
    record["triples_file"] = path.name
    record["m"] = len(flat) // 3
    record["ordering"] = list(range(g.n)) if spec.family == "unit-interval" else None
    record["td"] = None
    if spec.family == "ladder":
        bags, tree_edges = minfill_tree_decomposition(g.underlying())
        record["td"] = [[sorted(b) for b in bags], [list(e) for e in tree_edges]]
    return record


def set_up(workload: str, members: list, expected: dict, out_dir: Path) -> dict:
    """Generate the selected corpus and write it to `out_dir`.

    In-process workloads get a `corpus.json` plus one binary triple file per
    instance (read back with `read_triples`); cli-batch gets one `.tg` file
    per graph.  Returns the corpus description.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    recorded = expected[workload]
    items = []
    for idx, member in enumerate(members):
        if workload == CLI:
            files = []
            for f, spec in enumerate(member):
                g = make_graph(spec)
                path = out_dir / f"b{idx:02d}_{f}.tg"
                write_tg(g, path)
                files.append({"key": spec.key, "path": str(path)})
            key = member_key(member)
            items.append({"key": key, "k": recorded[key]["k"], "n": member[0].n, "files": files})
        else:
            g = make_graph(member)
            items.append(_instance_record(member, g, recorded[member.key]["k"], out_dir / f"g{idx:03d}.bin"))
    corpus = {"workload": workload, "items": items}
    with open(out_dir / "corpus.json", "w", encoding="utf-8") as fh:
        json.dump(corpus, fh)
    return corpus


def write_tg(g, path: Path) -> None:
    """The .tg text format: a `tg <n> <tau>` header, then one `u v t` line per time-edge."""
    lines = [f"tg {g.n} {g.tau}"]
    lines.extend(f"{u} {v} {t}" for u, v, t in g.raw_triples())
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_triples(corpus_dir: Path, item: dict) -> array:
    flat = array("i")
    with open(corpus_dir / item["triples_file"], "rb") as fh:
        flat.fromfile(fh, 3 * item["m"])
    return flat

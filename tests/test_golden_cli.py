"""Golden transcript of the CLI over a small seeded corpus.

Every invocation runs `main()` in-process; its exit code, stdout and stderr
are appended to one transcript, which must match the committed
`tests/golden/cli_transcript.txt` byte for byte.  The corpus directory is
written as `<dir>` so the transcript does not depend on where it ran.

To re-record after an intended output change:
    PYTHONPATH=src:tests python -c "import test_golden_cli as t; t.record()"
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from temposep.cli import main
from temposep.fileio import dump_tg
from temposep.generators import (
    GenSpec,
    MonotoneConstraint,
    PeriodicConstraint,
    UnitIntervalConstraint,
    generate,
)

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"

CORPUS = [
    ("none-a", GenSpec(n=7, tau=3, edge_prob=0.35, seed=1)),
    ("none-b", GenSpec(n=8, tau=4, edge_prob=0.3, seed=2)),
    ("unit-interval-a", GenSpec(n=8, tau=4, edge_prob=0.5, constraint=UnitIntervalConstraint(), seed=3)),
    ("unit-interval-b", GenSpec(n=6, tau=3, edge_prob=0.6, constraint=UnitIntervalConstraint(), seed=6)),
    ("periodic", GenSpec(n=7, tau=4, edge_prob=0.35, constraint=PeriodicConstraint(2, 2), seed=4)),
    ("monotone", GenSpec(n=8, tau=4, edge_prob=0.4, constraint=MonotoneConstraint(1), seed=5)),
]

ALGOS = ["auto", "brute", "search-tree", "treewidth", "interval", "static-cut"]


def _invocations(directory: Path) -> list[list[str]]:
    runs: list[list[str]] = []
    for name, spec in CORPUS:
        n = spec.n
        tg = directory / f"{name}.tg"
        dump_tg(generate(spec).g, tg)
        order = directory / f"{name}.ord"
        order.write_text(" ".join(str(v) for v in range(n)) + "\n")
        ends = ["--s", "0", "--z", str(n - 1)]
        for algo in ALGOS:
            for k in ("1", "2"):
                for strict in ([], ["--strict"]):
                    runs.append(["solve", str(tg), *ends, "--k", k, "--algo", algo, *strict])
        for k in ("1", "2"):
            runs.append(["solve", str(tg), *ends, "--k", k, "--ordering", str(order)])
        runs.append(["verify", str(tg), *ends, "--separator", "1,2"])
        runs.append(["path", str(tg), *ends])
        runs.append(["classify", str(tg)])
    first = str(directory / f"{CORPUS[0][0]}.tg")
    runs += [
        ["solve", first, "--s", "2", "--z", "2", "--k", "1"],
        ["solve", first, "--s", "0", "--z", "99", "--k", "1"],
        ["path", first, "--s", "3", "--z", "3"],
        ["verify", first, "--s", "0", "--z", "6", "--separator", "0,3"],
        ["solve", first, "--s", "0", "--z", "6", "--k", "1", "--algo", "static-cut", "--strict"],
    ]
    return runs


def transcript(directory: Path) -> str:
    """Run every invocation in the corpus and render the combined transcript."""
    lines: list[str] = []
    for argv in _invocations(directory):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append("$ tempo-sep " + " ".join(argv))
        lines.append(f"exit={code}")
        lines.extend("out: " + line for line in out.getvalue().splitlines())
        lines.extend("err: " + line for line in err.getvalue().splitlines())
    return "\n".join(lines).replace(str(directory), "<dir>") + "\n"


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(tmp)), encoding="ascii")


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="ascii")

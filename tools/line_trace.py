"""List the lines of `src/temposep` that no tier-1 test runs.

    python3 tools/line_trace.py [pytest args...]

Runs pytest in this process (from the repository root, with
`-q --continue-on-collection-errors` and any extra arguments) under a
`sys.settrace`/`threading.settrace` line tracer that is installed before
anything imports `temposep`.  Then, for each source file, it prints the
executable lines, taken from the `co_lines` of the file's compiled code
objects, that no test ran.  Standard library only; it exits with pytest's
exit code.

Code run in a subprocess is not seen: the child interpreters that
`tests/test_package.py` and the perfbench tests start, for example, trace
nothing here, so a line that only they run is listed as not run.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "temposep"


class LineRecorder:
    """A trace function that records, per file under `root`, the lines run."""

    def __init__(self, root: Path):
        self.root = os.path.realpath(root) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._files: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None outside root

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            path = os.path.realpath(name)
            self._files[name] = self.hits.setdefault(path, set()) if path.startswith(self.root) else None
        lines = self._files[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        self._outer = (sys.gettrace(), threading.gettrace())
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        """Put back the tracers that were active at `start`."""
        outer, outer_threads = self._outer
        sys.settrace(outer)
        threading.settrace(outer_threads)


def executable_lines(path: Path) -> set[int]:
    """The source line of every instruction of the file's code objects, nested ones included."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def missed_lines(hits: dict[str, set[int]], paths: list[Path]) -> dict[Path, list[int]]:
    """Per file, the executable lines that are not in `hits`; files with none left out."""
    out = {}
    for path in paths:
        missed = sorted(executable_lines(path) - hits.get(os.path.realpath(path), set()))
        if missed:
            out[path] = missed
    return out


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as `3, 7-9`."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str] | None = None) -> int:
    extra = sys.argv[1:] if argv is None else argv
    recorder = LineRecorder(SRC)
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    import pytest

    recorder.start()
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *extra])
    finally:
        recorder.stop()
    missed = missed_lines(recorder.hits, sorted(SRC.rglob("*.py")))
    print(f"\nlines of {SRC.relative_to(ROOT)} that no test ran in this process:")
    for path, lines in missed.items():
        print(f"{path.relative_to(ROOT)}: {ranges(lines)}")
    print(f"{sum(map(len, missed.values()))} lines in {len(missed)} files.")
    print("Code run in subprocesses (tests/test_package.py, the perfbench CLI runs) is not seen.")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())

"""Readers and writers for the on-disk text formats.

Temporal graph (.tg):
    tg <n> <tau>
    <u> <v> <t>        one time-edge per line, ASCII decimal, single spaces
Lines starting with '#' and blank lines are ignored.  The loader
canonicalizes, and `core.build` checks n, tau and each triple once; its
errors are reported at the line being read (the header's for n and tau).
The writer emits sorted canonical order with LF endings.

Tree decomposition (.td):
    td <num_bags> <max_bag_size> <n>
    b <id> <v...>      one line per bag, ids 1..num_bags
    <id> <id>          one line per tree edge; the edges must form a tree,
                       every vertex 0..n-1 must be in a bag, and the bags
                       holding a vertex must be connected in the tree

Ordering file: a single line of n whitespace-separated distinct vertices.

All three are ASCII; a non-ASCII byte is a FormatError at its line.
"""

from __future__ import annotations

import os

from .core import StaticGraph, TemporalGraph, build
from .errors import DecompositionMismatch, FormatError, InvalidDecomposition
from .errors import LabelOutOfRange, SelfLoop, VertexOutOfRange


def _read(path: str | os.PathLike) -> str:
    """The text of an ASCII file; a non-ASCII byte is a FormatError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # Lines as the parsers count them: the bad byte ends the last one.
        line = len(data[: exc.start + 1].decode("ascii", "replace").splitlines())
        raise FormatError(f"non-ASCII byte 0x{data[exc.start]:02x}", str(path), line) from None


def _header(text: str, form: str, path: str) -> tuple[list[tuple[int, str]], int, list[int]]:
    """The meaningful lines after a header of `form` ('tg <n> <tau>', say),
    the header's line number and its integer fields; blank and '#' lines
    are not meaningful."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    if not lines:
        raise FormatError(f"empty file, expected '{form}' header", path)
    lineno, header = lines[0]
    parts, expected = header.split(), form.split()
    if len(parts) != len(expected) or parts[0] != expected[0]:
        raise FormatError(f"bad header {header!r}, expected '{form}'", path, lineno)
    try:
        return lines[1:], lineno, [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"non-integer header fields in {header!r}", path, lineno) from None


def parse_tg(text: str, path: str = "<string>") -> TemporalGraph:
    lines, lineno, (n, tau) = _header(text, "tg <n> <tau>", path)

    def triples():
        nonlocal lineno
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"bad edge line {line!r}, expected '<u> <v> <t>'", path, lineno)
            try:
                u, v, t = (int(p) for p in parts)
            except ValueError:
                raise FormatError(f"non-integer edge fields in {line!r}", path, lineno) from None
            yield u, v, t

    try:
        return build(n, tau, triples())
    except (SelfLoop, VertexOutOfRange, LabelOutOfRange) as exc:
        raise FormatError(str(exc), path, lineno) from None


def load_tg(path: str | os.PathLike) -> TemporalGraph:
    return parse_tg(_read(path), str(path))


def format_tg(g: TemporalGraph) -> str:
    lines = [f"tg {g.n} {g.tau}"]
    lines.extend(f"{u} {v} {t}" for t, u, v in g.edges)
    return "\n".join(lines) + "\n"


def dump_tg(g: TemporalGraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tg(g))


def parse_td(text: str, path: str = "<string>") -> tuple[list[set[int]], list[tuple[int, int]], int]:
    """Parse a .td file into (bags, tree edges, n); bag ids are rebased to 0.

    Every decomposition rule that needs no graph is checked here, once per
    file; only the fit to a graph can still fail in a solve."""
    lines, lineno, (num_bags, max_bag, n) = _header(text, "td <num_bags> <max_bag_size> <n>", path)
    if num_bags < 1:
        raise FormatError(f"header declares {num_bags} bags, need at least 1", path, lineno)
    for value, name in ((n, "vertex count"), (max_bag, "max bag size")):
        if value < 0:
            raise FormatError(f"{name} {value} is negative", path, lineno)
    # Keyed by id, so a header's bag count allocates nothing before bags are read.
    bags: dict[int, set[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for lineno, line in lines:
        parts = line.split()
        try:
            if parts[0] == "b":
                bag_id = int(parts[1])
                if not (1 <= bag_id <= num_bags):
                    raise FormatError(f"bag id {bag_id} outside 1..{num_bags}", path, lineno)
                if bag_id in bags:
                    raise FormatError(f"duplicate bag id {bag_id}", path, lineno)
                bag = bags[bag_id] = {int(p) for p in parts[2:]}
                outside = [v for v in bag if not 0 <= v < n]
                if outside:
                    raise FormatError(f"bag {bag_id} contains out-of-range vertex {min(outside)}", path, lineno)
                if len(bag) > max_bag:
                    raise FormatError(f"bag {bag_id} has {len(bag)} vertices, header allows {max_bag}", path, lineno)
            elif len(parts) == 2:
                a, b = int(parts[0]), int(parts[1])
                if not (1 <= a <= num_bags and 1 <= b <= num_bags):
                    raise FormatError(f"tree edge ({a},{b}) references unknown bag", path, lineno)
                tree_edges.append((a - 1, b - 1))
            else:
                raise FormatError(f"unrecognized line {line!r}", path, lineno)
        except (ValueError, IndexError):
            raise FormatError(f"unrecognized line {line!r}", path, lineno) from None
    missing = 1  # found within len(bags) + 1 steps, whatever the header declares
    while missing in bags:
        missing += 1
    if missing <= num_bags:
        raise FormatError(f"bag {missing} never declared", path)
    bag_list = [bags[i] for i in range(1, num_bags + 1)]
    # Imported here, so a solve that reads no .td never loads the solvers.
    from .solvers.decomposition import validate_tree_decomposition

    try:
        validate_tree_decomposition(bag_list, tree_edges, StaticGraph(n, frozenset()))
    except (InvalidDecomposition, DecompositionMismatch) as exc:
        raise FormatError(str(exc), path) from None
    return bag_list, tree_edges, n


def load_td(path: str | os.PathLike) -> tuple[list[set[int]], list[tuple[int, int]], int]:
    return parse_td(_read(path), str(path))


def parse_ordering(text: str, path: str = "<string>") -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split())
    except ValueError:
        raise FormatError("ordering file must contain only integers", path) from None


def load_ordering(path: str | os.PathLike) -> tuple[int, ...]:
    return parse_ordering(_read(path), str(path))

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temposep import build
from temposep.errors import FormatError, TempoSepError
from temposep.fileio import (
    dump_tg,
    format_tg,
    load_tg,
    parse_ordering,
    parse_td,
    parse_tg,
)


def test_round_trip(tmp_path, g1):
    path = tmp_path / "g1.tg"
    dump_tg(g1, path)
    assert load_tg(path) == g1


def test_writer_is_canonical_sorted_lf(g1):
    text = format_tg(g1)
    assert text == "tg 4 2\n0 1 1\n2 3 1\n0 2 2\n1 3 2\n"


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\ntg 3 1\n0 1 1\n# mid comment\n1 2 1\n\n"
    assert parse_tg(text) == build(3, 1, [(0, 1, 1), (1, 2, 1)])


def test_loader_canonicalizes():
    text = "tg 3 1\n2 1 1\n1 2 1\n"
    assert parse_tg(text).raw_triples() == [(1, 2, 1)]


def test_malformed_edge_line_reports_line_number():
    with pytest.raises(FormatError, match=r"in\.tg:3"):
        parse_tg("tg 3 1\n0 1 1\n0 1\n", path="in.tg")


def test_bad_header():
    with pytest.raises(FormatError, match="header"):
        parse_tg("graph 3 1\n")
    with pytest.raises(FormatError, match="empty"):
        parse_tg("# nothing\n")


def test_semantic_error_carries_path():
    with pytest.raises(FormatError, match="self-loop"):
        parse_tg("tg 3 1\n1 1 1\n", path="x.tg")


_FILLER = st.sampled_from(["", "   ", "# note", "#"])


@st.composite
def _tg_texts(draw):
    """A .tg text with a header n in -1..8 and tau in -1..5, and the
    triples of its edge lines, each with the line it sits on."""
    lines = draw(st.lists(_FILLER, max_size=2))
    n, tau = draw(st.integers(-1, 8)), draw(st.integers(-1, 5))
    lines.append(f"tg {n} {tau}")
    header_line = len(lines)
    triples, triple_lines = [], []
    value = st.integers(-1, 9)
    for item in draw(st.lists(st.one_of(_FILLER, st.tuples(value, value, value)), max_size=8)):
        if isinstance(item, tuple):
            triples.append(item)
            triple_lines.append(len(lines) + 1)
            item = " ".join(map(str, item))
        lines.append(item)
    return "\n".join(lines) + "\n", n, tau, header_line, triples, triple_lines


def _first_refusal(n, tau, triples):
    """The index of the triple `build` refuses first (-1 for the header), or None."""
    for i in range(-1, len(triples)):
        try:
            build(n, tau, triples[: i + 1])
        except TempoSepError:
            return i
    return None


@settings(max_examples=300)
@given(_tg_texts())
def test_reader_reports_builds_errors_at_their_line(case):
    text, n, tau, header_line, triples, triple_lines = case
    try:
        expected = build(n, tau, triples)
    except TempoSepError as exc:
        refused = _first_refusal(n, tau, triples)
        line = header_line if refused == -1 else triple_lines[refused]
        with pytest.raises(FormatError) as info:
            parse_tg(text)
        assert str(info.value) == f"<string>:{line}: {exc}"
    else:
        assert parse_tg(text) == expected


def test_parse_td():
    text = "td 2 3 4\nb 1 0 1 2\nb 2 1 2 3\n1 2\n"
    bags, edges, n = parse_td(text)
    assert bags == [{0, 1, 2}, {1, 2, 3}] and edges == [(0, 1)] and n == 4


def test_parse_td_errors():
    with pytest.raises(FormatError, match="duplicate bag"):
        parse_td("td 2 2 3\nb 1 0\nb 1 1\n")
    with pytest.raises(FormatError, match="never declared"):
        parse_td("td 2 2 3\nb 1 0\n")
    with pytest.raises(FormatError, match="header allows"):
        parse_td("td 1 1 3\nb 1 0 1\n")


def test_parse_td_allocates_nothing_in_the_header_vertex_count():
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="vertex 4 appears in no bag"):
            parse_td("td 1 4 1000000\nb 1 0 1 2 3\n")
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_parse_ordering():
    assert parse_ordering("2 0 1\n") == (2, 0, 1)
    with pytest.raises(FormatError):
        parse_ordering("a b c")

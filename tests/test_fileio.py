import pytest

from temposep import build
from temposep.errors import FormatError
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


def test_parse_ordering():
    assert parse_ordering("2 0 1\n") == (2, 0, 1)
    with pytest.raises(FormatError):
        parse_ordering("a b c")

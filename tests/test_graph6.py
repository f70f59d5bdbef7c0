import pytest
from hypothesis import given, strategies as st

from domcore import Graph, Graph6Error, build_graph, parse_graph6, write_graph6
from domcore.graph import MAX_VERTICES
from domcore.graph6 import _data_length
from helpers import complete, cycle, graphs, path


def test_known_encodings():
    assert write_graph6(build_graph(1, [])) == "@"
    assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert write_graph6(build_graph(2, [])) == "A?"
    assert write_graph6(complete(3)) == "Bw"
    assert write_graph6(cycle(4)) == "Cl"


def test_parse_known():
    assert parse_graph6("Cl") == cycle(4)
    assert parse_graph6("A_") == path(2)
    assert parse_graph6("?").n == 0


def test_roundtrip_various():
    for g in (path(1), path(5), cycle(7), complete(5), build_graph(10, [])):
        assert parse_graph6(write_graph6(g)) == g


@given(graphs(0, MAX_VERTICES))
def test_roundtrip_random_graphs(g):
    assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_max_size():
    g = build_graph(MAX_VERTICES, [(0, 61), (30, 31)])
    assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_long_header():
    # n = 63 and 64 take "~" and n in three 6-bit bytes, high bits first
    for n, header in ((63, "~??~"), (64, "~?@?")):
        assert write_graph6(build_graph(n, [])) == header + "?" * _data_length(n)
        g = build_graph(n, [(0, n - 1), (1, 62), (30, 31)])
        text = write_graph6(g)
        assert text.startswith(header) and parse_graph6(text) == g


def test_parse_rejects_bad_long_headers():
    body = "?" * _data_length(63)
    for bad, reason in (
        ("~", "truncated"),
        ("~??", "truncated"),
        ("~??}" + "?" * _data_length(62), "one-byte header"),  # n = 62 has the short form
        ("~???", "one-byte header"),  # n = 0
        ("~?@@" + body, "exceeds 64"),  # n = 65
        ("~~??????~" + body, "8-byte"),  # n = 63 in the 8-byte form
        ("~~", "8-byte"),
        ("~??~" + body[1:], "must be 330 bytes"),  # n = 63, body one byte short
    ):
        with pytest.raises(Graph6Error, match=reason):
            parse_graph6(bad)


def test_parse_rejects_malformed():
    for bad in (
        "",  # empty
        "~??",  # truncated long header
        "B",  # truncated body
        "Bww",  # trailing bytes
        "A" + chr(62),  # body byte below range
        "A" + chr(127),  # body byte above range
        chr(62),  # header below range
        "C]\x00",  # embedded control byte
        "A_ ",  # stray whitespace inside the record
    ):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)


def test_range_error_names_the_input_bytes():
    # ASCII by its code; past ASCII by the bytes it was read from: a
    # surrogate escape is the one byte that was not UTF-8, é two of UTF-8
    for text, found in (
        ("A" + chr(62), "byte 62 at position 1"),
        ("\udcff", "byte 0xff at position 0"),
        ("é", "bytes 0xc3 0xa9 at position 0"),
        ("A\ud800", "bytes 0xed 0xa0 0x80 at position 1"),
    ):
        with pytest.raises(Graph6Error, match=f"^{found} outside graph6 range$"):
            parse_graph6(text)


def test_parse_rejects_nonzero_padding():
    # K1 plus padding noise: n = 3 needs 3 bits, rest must be zero
    # 'Bw' is K3; flip a padding bit by using a byte with low bits set
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 0b000001))


def test_strip_is_not_applied():
    with pytest.raises(Graph6Error):
        parse_graph6(" Cl")


def _well_formed(text):
    """Independent reading of the graph6 rules parse_graph6 enforces."""
    if not text or not all(63 <= ord(ch) <= 126 for ch in text):
        return False
    header, n = 1, ord(text[0]) - 63
    if n == 63:
        # long header: n in three 6-bit bytes, only for the orders above 62
        if len(text) < 4:
            return False
        header, n = 4, int("".join(f"{ord(ch) - 63:06b}" for ch in text[1:4]), 2)
        if not 62 < n <= MAX_VERTICES:
            return False
    if len(text) != header + _data_length(n):
        return False
    pad = -(n * (n - 1) // 2) % 6
    return len(text) == header or (ord(text[-1]) - 63) & ((1 << pad) - 1) == 0


# bodies of the right length for their header, which parse unless the
# random last byte sets a padding bit, plus free text over a slightly
# wider alphabet than graph6's for the other errors
_sized_texts = st.integers(0, MAX_VERTICES).flatmap(
    lambda n: st.lists(
        st.integers(63, 126), min_size=_data_length(n), max_size=_data_length(n)
    ).map(
        lambda body: {63: "~??~", 64: "~?@?"}.get(n, chr(n + 63)) + "".join(map(chr, body))
    )
)
_free_texts = st.text(st.characters(min_codepoint=60, max_codepoint=127), max_size=8)


@given(st.one_of(_sized_texts, _free_texts))
def test_parsed_graphs_pass_the_validating_constructor(text):
    # parse_graph6 builds its result without Graph.__post_init__, so every
    # graph it returns must survive that check and compare equal
    if not _well_formed(text):
        with pytest.raises(Graph6Error):
            parse_graph6(text)
        return
    h = parse_graph6(text)
    assert Graph(h.n, h.adj) == h
    assert write_graph6(h) == text


@given(graphs(0, MAX_VERTICES))
def test_written_graphs_parse_to_valid_graphs(g):
    h = parse_graph6(write_graph6(g))
    assert Graph(h.n, h.adj) == h == g

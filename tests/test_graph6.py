import pytest
from hypothesis import given

from domcore import Graph6Error, build_graph, parse_graph6, write_graph6
from domcore.graph6 import MAX_GRAPH6_VERTICES
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


@given(graphs(0, MAX_GRAPH6_VERTICES))
def test_roundtrip_random_graphs(g):
    assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_max_size():
    g = build_graph(MAX_GRAPH6_VERTICES, [(0, 61), (30, 31)])
    assert parse_graph6(write_graph6(g)) == g


def test_write_rejects_oversized():
    with pytest.raises(Graph6Error):
        write_graph6(build_graph(63, []))


def test_parse_rejects_malformed():
    for bad in (
        "",  # empty
        "~??",  # multi-byte vertex count
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


def test_parse_rejects_nonzero_padding():
    # K1 plus padding noise: n = 3 needs 3 bits, rest must be zero
    # 'Bw' is K3; flip a padding bit by using a byte with low bits set
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(63 + 0b000001))


def test_strip_is_not_applied():
    with pytest.raises(Graph6Error):
        parse_graph6(" Cl")

from itertools import combinations

import pytest
from hypothesis import example, given

from domcore import (
    GraphError,
    build_graph,
    count_connected_graphs,
    count_graphs,
    enumerate_connected,
    enumerate_trees,
)
from domcore.canonical import canonical_form, rooted_canonical_bits
from domcore.enumeration import (
    ENUMERATION_MAX,
    TREE_ENUMERATION_MAX,
    _batched,
    _is_canonical_child,
    labeled_connected_bitmap,
    relabeling_closure_bitmap,
)
from domcore.graph import add_vertex, bits, is_connected
from domcore.recognize import is_tree
from helpers import connected_graphs, cut_vertices_bruteforce

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def test_stream_counts_match_known_sequence():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def test_stream_is_isomorph_free_and_connected():
    for n in range(1, 8):
        seen = set()
        for g in enumerate_connected(n):
            assert g.n == n
            assert is_connected(g)
            form = canonical_form(g)
            assert form not in seen
            seen.add(form)


def test_analytic_counts():
    for n, want in ALL_COUNTS.items():
        assert count_graphs(n) == want
    for n, want in CONNECTED_COUNTS.items():
        assert count_connected_graphs(n) == want
    assert count_connected_graphs(9) == 261080
    assert count_graphs(9) == 274668


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        stream = list(enumerate_trees(n))
        assert len(stream) == want
        for t in stream:
            assert is_tree(t)


def test_labeled_bitmap_counts():
    for n, want in LABELED_CONNECTED.items():
        _, count = labeled_connected_bitmap(n)
        assert count == want


def test_relabeling_closure_reaches_every_labeled_graph():
    for n in range(1, 7):
        oracle, oracle_count = labeled_connected_bitmap(n)
        closure, count = relabeling_closure_bitmap(enumerate_connected(n), n)
        assert closure == oracle
        assert count == oracle_count


def test_batched_keeps_order_and_the_short_tail():
    assert list(_batched(range(5), 2)) == [[0, 1], [2, 3], [4]]
    assert list(_batched(range(4), 2)) == [[0, 1], [2, 3]]
    assert list(_batched([], 3)) == []


def test_enumeration_bounds():
    with pytest.raises(GraphError):
        list(enumerate_connected(ENUMERATION_MAX + 1))
    with pytest.raises(GraphError):
        list(enumerate_trees(TREE_ENUMERATION_MAX + 1))
    with pytest.raises(GraphError):
        list(enumerate_connected(0))


def _cheap_invariant(g, v):
    degs = sorted(g.adj[u].bit_count() for u in bits(g.adj[v]))
    return (g.adj[v].bit_count(), tuple(degs))


def _is_canonical_child_reference(g, new):
    """The deletion test written plainly: every deletable vertex, every invariant."""
    deletable = g.full_mask & ~cut_vertices_bruteforce(g)
    new_inv = _cheap_invariant(g, new)
    ties = 0
    for v in bits(deletable):
        if v == new:
            continue
        inv = _cheap_invariant(g, v)
        if inv < new_inv:
            return False
        if inv == new_inv:
            ties |= 1 << v
    new_key = rooted_canonical_bits(g, new)
    return all(rooted_canonical_bits(g, v) >= new_key for v in bits(ties))


def test_deletion_test_matches_reference(corpus6):
    candidates = 0
    for k, parent in corpus6:
        for subset in range(1, 1 << k):
            child = add_vertex(parent, subset)
            assert _is_canonical_child(child, k) == _is_canonical_child_reference(child, k)
            candidates += 1
    assert candidates == 7815


# a cut vertex of degree 2 bridging two K4s: the one rival of every
# degree-3 vertex, which must not count against it
TWO_K4_BRIDGED = build_graph(
    9,
    [*combinations(range(4), 2), *combinations(range(4, 8), 2), (3, 8), (8, 4)],
)
# the cut vertex 4 ties with vertices 8 and 9 on the cheap invariant and
# has a smaller rooted form than either, which must not count against them
CUT_VERTEX_TIE = build_graph(
    10,
    [(0, 1), (0, 2), (0, 5), (0, 7), (1, 2), (1, 3), (1, 5), (1, 7), (3, 4), (4, 6), (6, 8), (6, 9), (8, 9)],
)


@given(connected_graphs(min_n=2, max_n=12))
@example(TWO_K4_BRIDGED)
@example(CUT_VERTEX_TIE)
def test_deletion_test_matches_reference_on_random_graphs(g):
    # any non-cut vertex can play the new vertex
    for new in bits(g.full_mask & ~cut_vertices_bruteforce(g)):
        assert _is_canonical_child(g, new) == _is_canonical_child_reference(g, new)

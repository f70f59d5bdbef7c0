import random

import pytest
from hypothesis import given

from domcore import (
    Graph,
    GraphError,
    MembershipClass,
    RemovalClass,
    build_graph,
    classify_all,
    classify_by_enumeration,
    in_anticore,
    in_core,
    membership_class,
    removal_class,
)
from domcore.classify import report_to_dict
from helpers import complete_bipartite, cycle, graphs, path, star

K1 = build_graph(1, [])


def test_removal_class_examples():
    assert removal_class(path(3), 1) is RemovalClass.PLUS
    assert removal_class(path(2), 0) is RemovalClass.ZERO
    assert removal_class(path(2), 1) is RemovalClass.ZERO
    for v in range(4):
        assert removal_class(cycle(4), v) is RemovalClass.MINUS
    # a single vertex leaves the empty graph with gamma zero
    assert removal_class(K1, 0) is RemovalClass.MINUS
    with pytest.raises(GraphError):
        removal_class(path(3), 3)


def test_in_anticore_examples():
    assert in_anticore(path(3), 0)
    assert in_anticore(path(3), 2)
    assert not in_anticore(path(3), 1)
    for v in range(4):
        assert not in_anticore(cycle(4), v)


def test_in_core_examples():
    assert in_core(K1, 0)  # isolated vertex
    assert in_core(path(3), 1)
    assert not in_core(path(3), 0)
    for v in range(6):
        assert not in_core(cycle(6), v)


def test_membership_examples():
    assert membership_class(path(3), 1) is MembershipClass.CORE
    assert membership_class(path(3), 0) is MembershipClass.ANTICORE
    for v in range(4):
        assert membership_class(cycle(4), v) is MembershipClass.CORONA_ONLY
    for v in range(6):
        assert membership_class(complete_bipartite(3, 3), v) is (
            MembershipClass.CORONA_ONLY
        )


def test_classify_single_vertex():
    rep = classify_all(K1)
    assert rep.gamma == 1
    assert rep.vertices[0].removal is RemovalClass.MINUS
    assert rep.vertices[0].membership is MembershipClass.CORE


def test_classify_star():
    rep = classify_all(star(4))
    assert rep.vertices[0].removal is RemovalClass.PLUS
    assert rep.vertices[0].membership is MembershipClass.CORE
    for v in range(1, 5):
        assert rep.vertices[v].removal is RemovalClass.ZERO
        assert rep.vertices[v].membership is MembershipClass.ANTICORE


def test_classify_c6_all_zero_corona_only():
    rep = classify_all(cycle(6))
    for vc in rep.vertices:
        assert vc.removal is RemovalClass.ZERO
        assert vc.membership is MembershipClass.CORONA_ONLY


def test_report_masks_and_summary():
    rep = classify_all(star(3))
    assert rep.core_mask == 0b0001
    assert rep.anticore_mask == 0b1110
    assert rep.corona_mask == 0b0001
    counts = rep.summary()
    assert counts == {
        "plus": 1,
        "zero": 3,
        "minus": 0,
        "core": 1,
        "corona_only": 0,
        "anticore": 3,
    }
    assert rep.core_mask & ~rep.corona_mask == 0
    assert rep.anticore_mask == 0b1111 & ~rep.corona_mask


def test_report_to_dict_shape():
    d = report_to_dict(classify_all(path(2)))
    assert list(d) == ["gamma", "vertices", "summary"]
    assert d["vertices"][0] == {
        "id": 0,
        "removal": "ZERO",
        "membership": "CORONA_ONLY",
    }


def test_structural_equals_definitional(corpus6):
    for _, g in corpus6:
        assert classify_all(g) == classify_by_enumeration(g)


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(9, 12)
    p = rng.uniform(0.1, 0.8)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_structural_equals_definitional_random():
    rng = random.Random(421)
    for _ in range(150):
        g = _random_graph(rng)
        assert classify_all(g) == classify_by_enumeration(g)


@given(graphs(0, 12))
def test_structural_equals_definitional_property(g):
    # random graphs may be empty, disconnected or have isolated vertices,
    # which the connected corpus never has
    assert classify_all(g) == classify_by_enumeration(g)


@given(graphs(0, 12))
def test_single_vertex_functions_match_classify_all(g):
    rep = classify_all(g)
    for row in rep.vertices:
        v = row.vertex
        assert removal_class(g, v) is row.removal
        assert membership_class(g, v, rep.gamma) is row.membership
        assert in_core(g, v) == (row.membership is MembershipClass.CORE)
        assert in_anticore(g, v, rep.gamma) == (row.membership is MembershipClass.ANTICORE)


def test_definitional_capacity_guard():
    with pytest.raises(GraphError):
        classify_by_enumeration(build_graph(25, [(0, 1)]))

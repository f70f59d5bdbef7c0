import random

import pytest
from hypothesis import given

from domcore import (
    GraphError,
    MembershipClass,
    RemovalClass,
    build_graph,
    classify_all,
    classify_by_enumeration,
    classify_vertex,
    write_graph6,
)
from domcore.classify import CLASSES, _exists_dominating, classification_masks, report_to_dict
from domcore.solve import core_and_corona, gamma_value
from helpers import (
    complete_bipartite,
    cycle,
    graphs,
    path,
    random_graph,
    relabel,
    relabeled_graphs,
    seeded_graphs,
    star,
)

K1 = build_graph(1, [])


def test_removal_class_examples():
    assert classify_vertex(path(3), 1).removal is RemovalClass.PLUS
    assert classify_vertex(path(2), 0).removal is RemovalClass.ZERO
    assert classify_vertex(path(2), 1).removal is RemovalClass.ZERO
    for v in range(4):
        assert classify_vertex(cycle(4), v).removal is RemovalClass.MINUS
    # a single vertex leaves the empty graph with gamma zero
    assert classify_vertex(K1, 0).removal is RemovalClass.MINUS
    with pytest.raises(GraphError):
        classify_vertex(path(3), 3)
    with pytest.raises(GraphError, match="not an int"):
        classify_vertex(path(3), True)


def test_in_anticore_examples():
    assert classify_vertex(path(3), 0).membership is MembershipClass.ANTICORE
    assert classify_vertex(path(3), 2).membership is MembershipClass.ANTICORE
    assert classify_vertex(path(3), 1).membership is not MembershipClass.ANTICORE
    for v in range(4):
        assert classify_vertex(cycle(4), v).membership is not MembershipClass.ANTICORE


def test_in_core_examples():
    assert classify_vertex(K1, 0).membership is MembershipClass.CORE  # isolated vertex
    assert classify_vertex(path(3), 1).membership is MembershipClass.CORE
    assert classify_vertex(path(3), 0).membership is not MembershipClass.CORE
    for v in range(6):
        assert classify_vertex(cycle(6), v).membership is not MembershipClass.CORE


def test_membership_examples():
    assert classify_vertex(path(3), 1).membership is MembershipClass.CORE
    assert classify_vertex(path(3), 0).membership is MembershipClass.ANTICORE
    for v in range(4):
        assert classify_vertex(cycle(4), v).membership is MembershipClass.CORONA_ONLY
    for v in range(6):
        assert classify_vertex(complete_bipartite(3, 3), v).membership is (
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


# one named graph per (removal, membership) pair; PLUS implies CORE, so
# these six are every pair that occurs.  Each pins one return of the
# structural route: the isolated vertex and the anticore vertex answer
# before any removal probe runs.
CLASS_PAIR_CASES = {
    "plus-core": (path(3), 1, RemovalClass.PLUS, MembershipClass.CORE),
    "minus-core-isolated": (
        build_graph(3, [(0, 1)]),
        2,
        RemovalClass.MINUS,
        MembershipClass.CORE,
    ),
    "minus-corona-only": (cycle(4), 0, RemovalClass.MINUS, MembershipClass.CORONA_ONLY),
    # C4 0-1-3-2 with the tail 0-4-5: {3, 4} is the only minimum set
    "zero-core": (
        build_graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (4, 5)]),
        3,
        RemovalClass.ZERO,
        MembershipClass.CORE,
    ),
    "zero-corona-only": (cycle(6), 0, RemovalClass.ZERO, MembershipClass.CORONA_ONLY),
    "zero-anticore": (star(3), 1, RemovalClass.ZERO, MembershipClass.ANTICORE),
}


@pytest.mark.parametrize("case", CLASS_PAIR_CASES.values(), ids=CLASS_PAIR_CASES.keys())
def test_each_class_pair_has_a_named_case(case):
    g, v, removal, membership = case
    want = classify_by_enumeration(g)
    assert (want.vertices[v].removal, want.vertices[v].membership) == (removal, membership)
    assert classify_all(g) == want
    for row in want.vertices:
        assert classify_vertex(g, row.vertex) == row


def test_report_masks_and_summary():
    rep = classify_all(star(3))
    assert rep.masks() == {
        "plus": 0b0001,
        "zero": 0b1110,
        "minus": 0,
        "core": 0b0001,
        "corona_only": 0,
        "anticore": 0b1110,
    }
    assert rep.summary() == {
        "plus": 1,
        "zero": 3,
        "minus": 0,
        "core": 1,
        "corona_only": 0,
        "anticore": 3,
    }


@given(graphs(0, 12))
def test_report_masks_partition_the_vertices(g):
    rep = classify_all(g)
    masks = rep.masks()
    for names in (CLASSES[:3], CLASSES[3:]):
        parts = [masks[name] for name in names]
        assert sum(parts) == g.full_mask
        assert sum(m.bit_count() for m in parts) == g.n  # no carries: disjoint
    assert rep.summary() == {name: m.bit_count() for name, m in masks.items()}
    assert tuple(masks) == CLASSES
    assert tuple(classification_masks(g)) == CLASSES


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


def test_structural_equals_definitional_random():
    rng = random.Random(421)
    for _ in range(150):
        g = random_graph(rng, rng.randint(9, 12), rng.uniform(0.1, 0.8))
        assert classify_all(g) == classify_by_enumeration(g)


def test_structural_equals_definitional_above_sixteen_vertices():
    # criterion 2 draws at most 16 vertices; here dense graphs of 17 to 24,
    # then the first 40 sparse graphs of CI's classify-sparse row (25 to 40
    # vertices) and the 8 dense ones of its classify-long-header row (63 and
    # 64), from the generator that CI's producers run
    rng = random.Random(1724)
    for n in range(17, 25):
        for _ in range(3):
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            assert classify_all(g) == classify_by_enumeration(g), write_graph6(g)
    for g in [*seeded_graphs(40, 25, 40, False), *seeded_graphs(8, 63, 64, True)]:
        assert classify_all(g) == classify_by_enumeration(g), write_graph6(g)


@given(graphs(0, 12))
def test_structural_equals_definitional_property(g):
    # random graphs may be empty, disconnected or have isolated vertices,
    # which the connected corpus never has
    assert classify_all(g) == classify_by_enumeration(g)


def _check_masks_against_reference(g):
    """classification_masks, with and without core_corona passed, equals
    the classes classify_by_enumeration reads off the minimum sets."""
    want = classify_by_enumeration(g)
    expected = want.masks()
    assert classification_masks(g) == expected
    assert classification_masks(g, want.gamma, core_and_corona(g)) == expected


def test_classification_masks_match_reference(corpus7):
    for _, g in corpus7:
        _check_masks_against_reference(g)


@given(graphs(0, 10))
def test_classification_masks_match_reference_property(g):
    # isolated vertices and disconnected graphs included
    _check_masks_against_reference(g)


def test_plus_probe_runs_on_core_vertices_only(corpus6, monkeypatch):
    # a count, not a timing: one budget-gamma probe per core vertex and
    # one budget gamma - 1 probe per vertex that is not PLUS; a change
    # that probes every vertex at budget gamma again raises the total
    calls = []
    monkeypatch.setattr(
        "domcore.classify._exists_dominating",
        lambda *a: calls.append(a) or _exists_dominating(*a),
    )
    want = 0
    for _, g in corpus6:
        masks = classification_masks(g, gamma_value(g), core_and_corona(g))
        want += masks["core"].bit_count() + g.n - masks["plus"].bit_count()
    assert (len(calls), want) == (812, 812)


def test_classify_all_skips_probes_that_found_sets_answer(corpus6, monkeypatch):
    # a count, not a timing: the structural route folds the minimum sets its
    # probes find and skips every probe one of them answers; probing each
    # vertex in full, as it did before the folds, made 2226 calls here
    calls = []
    monkeypatch.setattr(
        "domcore.classify._exists_dominating",
        lambda *a: calls.append(a) or _exists_dominating(*a),
    )
    for _, g in corpus6:
        classify_all(g)
    assert len(calls) == 1403 < 2226


@given(graphs(0, 12))
def test_single_vertex_functions_match_classify_all(g):
    rep = classify_all(g)
    for row in rep.vertices:
        assert classify_vertex(g, row.vertex) == row


@given(relabeled_graphs(0, 12))
def test_classify_all_commutes_with_relabeling(case):
    # vertex v of g and vertex perm[v] of the copy get the same classes
    g, perm = case
    rep = classify_all(g)
    moved = classify_all(relabel(g, perm))
    assert moved.gamma == rep.gamma
    assert {perm[r.vertex]: (r.removal, r.membership) for r in rep.vertices} == {
        r.vertex: (r.removal, r.membership) for r in moved.vertices
    }

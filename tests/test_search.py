import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import domcore.search
from domcore import GraphError, build_graph, parse_graph6, write_graph6
from domcore.classify import CLASSES, classification_masks, membership_masks
from domcore.enumeration import ENUMERATION_MAX
from domcore.graph import cut_vertices
from domcore.solve import core_and_corona
from domcore.search import (
    SIGNATURES,
    PartitionSignature,
    cubic_bipartite_filter,
    evaluate_signatures,
    has_k4,
    line_graph_family_filter,
    search_signature,
    witness_directory,
    write_witness_file,
)
from helpers import complete, complete_bipartite, cycle, graphs, path, star

# smallest orders established by exhaustive scans; raising any of these
# numbers is a regression
MIN_ORDER_ALL_ZERO_NONEMPTY_CORE = 7
MIN_ORDER_ONE_PLUS_REST_ZERO = 6
MIN_ORDER_COVER_CORE_ZERO_ANTICORE = 7
MIN_ORDER_CUT_VERTEX_CORE_ZERO = 9

CUT_VERTEX_WITNESSES = ("Hra?W_@", "Hr_OOGA")
EVERY_CLASS_WITNESS = "Hr`?XCQ"


def test_registry_names():
    assert "min-plus-zero-minus-empty-anticore" in SIGNATURES
    for name, sig in SIGNATURES.items():
        assert sig.name == name


def test_unknown_atom_rejected():
    with pytest.raises(GraphError):
        PartitionSignature(name="bad", description="", nonempty=("halo",))


_TYPOS = {
    "nonempty": ("core&zeroo",),
    "empty": ("anticore&bogus",),
    "exact": (("anticore&bogus", 3),),
    "cover": ("core&zero", "antcore"),
    "cut_vertex_in": "core&zeroo",
}


@pytest.mark.parametrize("field", _TYPOS)
def test_misspelled_atom_fails_at_construction(field):
    with pytest.raises(GraphError, match="typo"):
        PartitionSignature(name="typo", description="", **{field: _TYPOS[field]})


@pytest.mark.parametrize(
    "fields",
    [
        {"nonempty": "core"},  # a bare string: its atoms would be its letters
        {"exact": (("core", -1),)},
        {"exact": (("core", 1.5),)},
    ],
    ids=["bare-string", "negative-size", "fractional-size"],
)
def test_malformed_requirement_fails_at_construction(fields):
    with pytest.raises(GraphError, match="malformed"):
        PartitionSignature(name="malformed", description="", **fields)


def test_exact_size_is_an_equality():
    # a double star: deleting either center raises gamma, so plus has two vertices
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    masks = classification_masks(g)
    for size, verdict in ((1, False), (2, True), (3, False)):
        sig = PartitionSignature(name="plus", description="", exact=(("plus", size),))
        assert sig.evaluate(g, masks) == verdict, size


def test_evaluate_needs_the_removal_masks():
    g = path(3)
    membership = membership_masks(g, *core_and_corona(g))
    for name in ("min-plus-zero-minus-empty-anticore", "all-zero-nonempty-core"):
        with pytest.raises(KeyError):
            SIGNATURES[name].evaluate(g, membership)


def test_prefilter_is_sound(corpus6):
    for _, g in corpus6:
        masks = classification_masks(g)
        for sig in SIGNATURES.values():
            assert evaluate_signatures(g, (sig,))[0] == sig.evaluate(g, masks)


def test_cut_vertex_dfs_runs_only_for_a_nonempty_mask(monkeypatch, corpus6):
    calls = []

    def counting(g):
        calls.append(g)
        return cut_vertices(g)

    monkeypatch.setattr(domcore.search, "cut_vertices", counting)
    sig = SIGNATURES["cut-vertex-in-core-zero"]
    empty = 0
    for _, g in corpus6:
        core, corona = core_and_corona(g)
        calls.clear()
        sig.feasible_by_membership(g, membership_masks(g, core, corona))
        assert len(calls) == bool(core), g
        masks = classification_masks(g)
        calls.clear()
        sig.evaluate(g, masks)
        assert len(calls) == bool(masks["core"] & masks["zero"]), g
        empty += not core
    # graphs with and without a core both occur, so neither branch is vacuous
    assert 0 < empty < len(corpus6)


@st.composite
def _graphs_with_masks(draw):
    g = draw(graphs(0, 12))
    full = g.full_mask
    return g, {atom: draw(st.integers(0, full)) for atom in CLASSES}


@given(_graphs_with_masks())
def test_lazy_cut_vertex_test_matches_the_eager_one(case):
    g, masks = case
    full = g.full_mask
    for sig in SIGNATURES.values():
        if sig.cut_vertex_in is None:
            continue
        rest = replace(sig, cut_vertex_in=None)
        eager = rest._monotone(g, masks) and bool(
            sig._mask(sig.cut_vertex_in, masks, full) & cut_vertices(g)
        )
        assert sig._monotone(g, masks) == eager


def test_signature_verdicts_survive_relabeling(corpus6):
    rng = random.Random(97)
    for _, g in corpus6:
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        h = build_graph(g.n, edges)
        for sig in SIGNATURES.values():
            assert evaluate_signatures(g, (sig,))[0] == evaluate_signatures(h, (sig,))[0]


def test_all_zero_nonempty_core_minimum_order():
    result = search_signature(7, SIGNATURES["all-zero-nonempty-core"])
    assert [s.witness_count for s in result.scans] == [0, 0, 0, 0, 0, 0, 5]
    assert all(s.complete for s in result.scans)
    assert {n for n, _ in result.witnesses} == {MIN_ORDER_ALL_ZERO_NONEMPTY_CORE}


def test_one_plus_rest_zero_minimum_order():
    result = search_signature(8, SIGNATURES["one-plus-rest-zero-nonempty-core-zero"])
    assert result.scans[-1].n == MIN_ORDER_ONE_PLUS_REST_ZERO
    assert result.scans[-1].witness_count == 1
    assert write_graph6(result.witnesses[0][1]) == "Er_G"


def test_cover_core_zero_anticore_minimum_order():
    result = search_signature(7, SIGNATURES["cover-core-zero-anticore"])
    assert result.scans[-1].n == MIN_ORDER_COVER_CORE_ZERO_ANTICORE
    assert result.scans[-1].witness_count == 2
    assert [s.witness_count for s in result.scans[:-1]] == [0] * 6


def test_cut_vertex_core_zero_absent_through_seven():
    result = search_signature(7, SIGNATURES["cut-vertex-in-core-zero"])
    assert result.witnesses == ()
    assert result.exhausted


def test_cut_vertex_witnesses_pinned():
    """Exhaustive scans put the smallest examples at nine vertices; the
    two witnesses are pinned here and rechecked from scratch."""
    sig = SIGNATURES["cut-vertex-in-core-zero"]
    for text in CUT_VERTEX_WITNESSES:
        g = parse_graph6(text)
        assert g.n == MIN_ORDER_CUT_VERTEX_CORE_ZERO
        assert evaluate_signatures(g, (sig,))[0]
        masks = classification_masks(g)
        hits = masks["core"] & masks["zero"] & cut_vertices(g)
        assert hits != 0


def test_every_class_witness_pinned():
    sig = SIGNATURES["min-plus-zero-minus-empty-anticore"]
    g = parse_graph6(EVERY_CLASS_WITNESS)
    assert g.n == 9
    assert evaluate_signatures(g, (sig,))[0]
    masks = classification_masks(g)
    assert masks["anticore"] == 0
    sizes = (
        masks["plus"].bit_count(),
        masks["zero"].bit_count(),
        masks["minus"].bit_count(),
    )
    assert sizes == (1, 4, 4)


def test_stop_at_first_order_vs_full():
    short = search_signature(8, SIGNATURES["one-plus-rest-zero-nonempty-core-zero"])
    assert short.scans[-1].n == 6
    full = search_signature(
        7,
        SIGNATURES["one-plus-rest-zero-nonempty-core-zero"],
        stop_at_first_order=False,
    )
    assert [s.n for s in full.scans] == list(range(1, 8))
    assert sum(s.witness_count for s in full.scans) >= 1


def test_budget_cap():
    result = search_signature(
        7, SIGNATURES["all-zero-nonempty-core"], max_graphs=20
    )
    assert result.budget_exceeded
    assert not result.exhausted
    assert sum(s.graphs_scanned for s in result.scans) == 20


def test_jobs_do_not_change_results():
    cover = "cover-core-zero-anticore"
    cases = (  # signature, keyword arguments, last scan (n, scanned, witnesses, complete)
        (cover, {}, (7, 853, 2, True)),
        (cover, {"max_graphs": 40}, (6, 9, 0, False)),
        # 1 + 1 + 2 + 6 + 21 = 31: the budget runs out where n = 5 ends
        (cover, {"max_graphs": 31}, (6, 0, 0, False)),
        # the first two parents of the n = 6 graphs have 2 and 3 children:
        # 34 runs out inside the second parent's children, 36 where they end
        (cover, {"max_graphs": 34}, (6, 3, 0, False)),
        (cover, {"max_graphs": 36}, (6, 5, 0, False)),
        ("claw-k4-net-diamond-free-core-zero", {}, (7, 853, 0, True)),
    )
    for name, kwargs, last_scan in cases:
        seq = search_signature(7, SIGNATURES[name], jobs=1, **kwargs)
        par = search_signature(7, SIGNATURES[name], jobs=2, **kwargs)
        assert seq.to_dict() == par.to_dict(), (name, kwargs)
        s = par.scans[-1]
        assert (s.n, s.graphs_scanned, s.witness_count, s.complete) == last_scan


def test_unpicklable_graph_class_runs_only_sequentially():
    cover = SIGNATURES["cover-core-zero-anticore"]
    sig = PartitionSignature(
        name="cover-any-graph",
        description="",
        cover=cover.cover,
        graph_class=lambda g: True,
    )
    s = search_signature(7, sig, jobs=1).scans[-1]
    assert (s.n, s.graphs_scanned, s.witness_count, s.complete) == (7, 853, 2, True)
    # the pickling error type varies across Python versions
    with pytest.raises((pickle.PicklingError, AttributeError)):
        search_signature(7, sig, jobs=2)


def test_class_signatures_search_only_their_class(corpus6):
    claw = search_signature(8, SIGNATURES["claw-k4-net-diamond-free-core-zero"])
    assert [(n, write_graph6(g)) for n, g in claw.witnesses] == [(8, "G{d?_K")]
    cubic = search_signature(8, SIGNATURES["cubic-bipartite-core-zero"])
    assert cubic.witnesses == ()
    assert cubic.exhausted
    classed = [sig for sig in SIGNATURES.values() if sig.graph_class is not None]
    assert len(classed) == 2
    for _, g in corpus6:
        for sig in classed:
            assert not evaluate_signatures(g, (sig,))[0] or sig.graph_class(g)


def test_graph_class_is_tested_before_gamma(monkeypatch, corpus6):
    def no_gamma(g):
        raise AssertionError("gamma computed for a graph outside the class")

    sig = SIGNATURES["cubic-bipartite-core-zero"]
    outside = [g for _, g in corpus6 if not sig.graph_class(g)]
    monkeypatch.setattr(domcore.search, "gamma_value", no_gamma)
    for g in outside:
        assert not evaluate_signatures(g, (sig,))[0]


def test_one_step_solves_each_graph_once(monkeypatch, corpus6):
    sigs = tuple(SIGNATURES.values())
    classed = tuple(sig for sig in sigs if sig.graph_class is not None)
    expected = [tuple(evaluate_signatures(g, (sig,))[0] for sig in sigs) for _, g in corpus6]
    calls = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    names = ("gamma_value", "core_and_corona", "classification_masks")
    for name in names:
        monkeypatch.setattr(domcore.search, name, counting(name, getattr(domcore.search, name)))
    masked = outside = 0
    for (_, g), verdicts in zip(corpus6, expected):
        calls.update(dict.fromkeys(names, 0))
        assert evaluate_signatures(g, sigs) == verdicts, g
        assert max(calls.values()) <= 1, (g, calls)
        masked += calls["classification_masks"]
        if not any(sig.graph_class(g) for sig in classed):
            outside += 1
            calls.update(dict.fromkeys(names, 0))
            assert evaluate_signatures(g, classed) == (False,) * len(classed)
            assert not any(calls.values()), (g, calls)
    # some graphs reach the masks and some lie outside both classes
    assert masked and outside


def test_has_k4_and_filters():
    assert has_k4(complete(4))
    assert has_k4(complete(6))
    assert not has_k4(complete_bipartite(3, 3))
    assert not has_k4(cycle(9))
    assert line_graph_family_filter(cycle(6))
    assert not line_graph_family_filter(star(3))
    assert not line_graph_family_filter(complete(4))
    assert cubic_bipartite_filter(complete_bipartite(3, 3))
    assert not cubic_bipartite_filter(cycle(6))
    assert not cubic_bipartite_filter(complete(4))


def test_search_bounds():
    with pytest.raises(GraphError):
        search_signature(ENUMERATION_MAX + 1, SIGNATURES["all-zero-nonempty-core"])
    with pytest.raises(GraphError):
        PartitionSignature(name="bad", description="", graph_class=42)


def test_witness_file_roundtrip(tmp_path):
    result = search_signature(6, SIGNATURES["one-plus-rest-zero-nonempty-core-zero"])
    path_ = write_witness_file(result, str(tmp_path))
    lines = [
        line
        for line in open(path_).read().splitlines()
        if line and not line.startswith("#")
    ]
    assert lines == ["Er_G"]
    for line in lines:
        parse_graph6(line)


def test_witness_directory_env(monkeypatch):
    monkeypatch.delenv("DOMCORE_WITNESS_DIR", raising=False)
    assert witness_directory() == "witnesses"
    monkeypatch.setenv("DOMCORE_WITNESS_DIR", "/tmp/elsewhere")
    assert witness_directory() == "/tmp/elsewhere"

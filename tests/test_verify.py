import subprocess
import sys
from math import factorial

import pytest

import domcore.recognize
import domcore.verify
from domcore import DominationReport, Graph, GraphError, build_graph, verify_corpus
from domcore.recognize import PATTERNS, TwinCliquePartition
from domcore.verify import (
    PER_GRAPH_CHECKS,
    VERIFY_MAX,
    _VIOLATIONS_KEPT,
    _check_cut_vertex_lemma,
    _check_recognizer_consistency,
    _check_simplicial,
    _check_tcp,
    _check_tcp_core_correspondence,
    _Ctx,
    _pattern_table,
)
from helpers import complete, cycle, path, src_env

# |Aut| of each pattern: a pattern on k vertices has k!/|Aut| labeled copies
AUTOMORPHISMS = {
    "claw": 6, "diamond": 4, "paw": 2, "P4": 2, "C4": 8, "bull": 2, "P5": 2,
    "C5": 10, "net": 6, "P6": 2, "C6": 12, "P7": 2, "C7": 14,
}


def test_small_corpus_passes():
    report = verify_corpus(5)
    assert report.all_pass
    assert report.graphs_total == 31
    for check in report.checks:
        assert check.passed
        assert check.violations == ()


def test_check_names_unique():
    names = [name for name, _ in PER_GRAPH_CHECKS]
    assert len(names) == len(set(names))


def test_report_dict_shape():
    d = verify_corpus(3).to_dict()
    assert list(d) == ["n_max", "graphs_total", "all_pass", "checks"]
    assert d["n_max"] == 3
    assert d["graphs_total"] == 4
    assert d["all_pass"] is True
    first = d["checks"][0]
    assert list(first) == ["name", "graphs_checked", "violations", "examples"]


def test_every_check_sees_every_graph():
    report = verify_corpus(5)
    by_name = {c.name: c for c in report.checks}
    assert report.graphs_total == 31
    for name, _ in PER_GRAPH_CHECKS:
        assert by_name[name].graphs_checked == report.graphs_total, name
    # the labeled oracle saw every connected labeled graph with n <= 5
    assert by_name["enumeration-completeness-labeled"].graphs_checked == 1 + 1 + 4 + 38 + 728


def test_bounds():
    report = verify_corpus(1)
    assert report.all_pass
    assert report.graphs_total == 1
    with pytest.raises(GraphError):
        verify_corpus(0)
    with pytest.raises(GraphError):
        verify_corpus(VERIFY_MAX + 1)


def test_jobs_identical():
    reports, calls = {}, {1: [], 2: []}
    for jobs in (1, 2):
        reports[jobs] = verify_corpus(6, jobs=jobs, progress=lambda *call: calls[jobs].append(call))
    assert reports[2].to_dict() == reports[1].to_dict()
    assert calls[2] == calls[1] == [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]


def test_pattern_table_holds_every_labeled_copy():
    copies = dict.fromkeys(PATTERNS, 0)
    for k in {h.n for h in PATTERNS.values()}:
        for names in _pattern_table(k).values():
            for name in names:
                copies[name] += 1
    assert copies == {
        name: factorial(h.n) // AUTOMORPHISMS[name] for name, h in PATTERNS.items()
    }


def test_pattern_table_is_not_built_on_import():
    # the benchmark times fresh imports as set-up, so import builds nothing
    code = "import domcore.verify as v; print(v._pattern_table.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "0"


def _flagged(n_max: int = 5) -> set[str]:
    return {c.name for c in verify_corpus(n_max).checks if c.violation_count}


def test_pattern_oracle_flags_a_wrong_pattern_search(monkeypatch):
    # verify reads every pattern through recognize's catalog pass
    real = domcore.recognize.contains_induced
    monkeypatch.setattr(
        domcore.recognize, "contains_induced", lambda g, name: real(g, name) != (name == "C5")
    )
    assert "pattern-search-oracle" in _flagged()


def test_pattern_oracle_flags_a_wrong_sub_pattern_entry(monkeypatch):
    # C4 has no induced P5, so a table that says it needs one makes the
    # catalog pass skip C4 and answer False on every graph that holds it
    monkeypatch.setitem(domcore.recognize._SUB_PATTERNS, "C4", ("P5",))
    result = {c.name: c for c in verify_corpus(6).checks}["pattern-search-oracle"]
    assert result.violation_count > 0
    assert {message for _, message in result.violations} == {"pattern search disagrees with oracle on C4"}


def test_gamma_i_checks_flag_a_forged_independent_domination_number(monkeypatch):
    real = domcore.verify.independent_domination_number

    def forged(g):
        r = real(g)
        return DominationReport(r.gamma + 1, r.witness)

    monkeypatch.setattr(domcore.verify, "independent_domination_number", forged)
    assert {"gamma-i-alpha-chain", "claw-free-gamma-equals-i"} <= _flagged(5)


def test_gamma_i_alpha_chain_flags_a_forged_independence_number(monkeypatch):
    # alpha and i come from the same walk, so the chain must still catch a wrong alpha
    real = domcore.verify.independence_number
    monkeypatch.setattr(domcore.verify, "independence_number", lambda g: real(g) - 1)
    assert _flagged(5) == {"gamma-i-alpha-chain"}


def test_graph_surgery_flags_a_dropped_edge(monkeypatch):
    real = domcore.verify.add_vertex
    # the new vertex loses its edge to the lowest neighbor
    monkeypatch.setattr(domcore.verify, "add_vertex", lambda g, nbrs: real(g, nbrs & (nbrs - 1)))
    assert "graph-surgery" in _flagged()


def test_graph_surgery_flags_a_pendant_that_drops_an_edge(monkeypatch):
    real = domcore.verify.add_pendant

    def lossy(g, v):
        # the leaf is right, but v loses its edge to its lowest old neighbor
        p = real(g, v)
        if not g.adj[v]:
            return p
        w = (g.adj[v] & -g.adj[v]).bit_length() - 1
        adj = list(p.adj)
        adj[v] &= ~(1 << w)
        adj[w] &= ~(1 << v)
        return Graph(p.n, tuple(adj))

    monkeypatch.setattr(domcore.verify, "add_pendant", lossy)
    assert "graph-surgery" in _flagged()


# a class test that accepts every graph; no connected graph on five or fewer
# vertices has a core other than its gamma-raising set, so these need n = 6
@pytest.mark.parametrize(
    "class_test, flags",
    [
        ("is_chordal", {"chordal-core-equals-plus"}),
        ("is_claw_free", {"claw-p6-free-core-in-plus", "claw-bull-free-core-in-plus"}),
    ],
)
def test_core_is_plus_checks_flag_a_wrong_class_test(monkeypatch, class_test, flags):
    monkeypatch.setattr(domcore.verify, class_test, lambda g: True)
    assert flags <= _flagged(6)


def test_class_tests_run_once_per_graph(monkeypatch):
    names = ("is_claw_free", "is_cograph", "is_chordal", "is_tree", "is_bipartite")
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(g):
            calls[name] += 1
            return real(g)

        return wrapper

    for name in names:
        monkeypatch.setattr(domcore.verify, name, counting(name, getattr(domcore.verify, name)))
    report = verify_corpus(5)
    assert report.graphs_total == 31
    assert all(0 < count <= 31 for count in calls.values()), calls


def test_twin_clique_checks_flag_a_wrong_reduced_graph(monkeypatch):
    real = domcore.verify.twin_clique_partition

    def flipped(g, root):
        tcp = real(g, root)
        h = tcp.reduced
        if h.n < 2:
            return tcp
        adj = (h.adj[0] ^ 0b10, h.adj[1] ^ 0b01) + h.adj[2:]
        return TwinCliquePartition(tcp.root, tcp.cliques, Graph(h.n, adj))

    monkeypatch.setattr(domcore.verify, "twin_clique_partition", flipped)
    flagged = _flagged()
    assert "twin-clique-partition" in flagged
    assert "twin-clique-core-correspondence" in flagged


def test_twin_clique_checks_flag_a_wrong_reduced_graph_at_singleton_roots(monkeypatch):
    # the same flip, only where every part is a singleton: there the checks
    # reuse g's own gamma and classes once h is exactly g relabeled
    real = domcore.verify.twin_clique_partition

    def flipped(g, root):
        tcp = real(g, root)
        h = tcp.reduced
        if h.n != g.n or h.n < 2:
            return tcp
        adj = (h.adj[0] ^ 0b10, h.adj[1] ^ 0b01) + h.adj[2:]
        return TwinCliquePartition(tcp.root, tcp.cliques, Graph(h.n, adj))

    monkeypatch.setattr(domcore.verify, "twin_clique_partition", flipped)
    flagged = _flagged()
    assert "twin-clique-partition" in flagged
    assert "twin-clique-core-correspondence" in flagged


def test_twin_clique_checks_solve_no_reduced_graph_at_singleton_roots(monkeypatch):
    solved = []
    real_gamma, real_fold = domcore.verify.gamma_exact, domcore.verify.core_and_corona
    monkeypatch.setattr(domcore.verify, "gamma_exact", lambda h: solved.append(h) or real_gamma(h))
    monkeypatch.setattr(domcore.verify, "core_and_corona", lambda h: solved.append(h) or real_fold(h))
    # no two vertices of P5 are twins, so every part at every root is a singleton
    ctx = _Ctx(path(5))
    assert list(_check_tcp(ctx)) == list(_check_tcp_core_correspondence(ctx)) == []
    assert solved == []
    # in K3 the two vertices besides the root share a part
    ctx = _Ctx(complete(3))
    assert list(_check_tcp(ctx)) == list(_check_tcp_core_correspondence(ctx)) == []
    assert solved == [build_graph(2, [(0, 1)])] * 2


def test_core_correspondence_flags_a_wrong_fold_of_the_reduced_graph(monkeypatch):
    # the check takes core and anticore of a reduced graph with a twin part
    # from core_and_corona(h) alone; a fold that flips part 0's core bit
    # must be flagged, and no other check reads that fold
    real = domcore.verify.core_and_corona

    def lying(h):
        core, corona = real(h)
        return core ^ 1, corona

    monkeypatch.setattr(domcore.verify, "core_and_corona", lying)
    ctx = _Ctx(complete(3))
    assert list(_check_tcp_core_correspondence(ctx)) == [
        "core correspondence fails for part 0 at root 0"
    ]
    assert _flagged() == {"twin-clique-core-correspondence"}


def test_twin_clique_partition_flags_split_twin_classes(monkeypatch):
    # every vertex its own part, root first: a partition into cliques that
    # g blows up from exactly, but not into twin classes
    def singletons(g, root):
        order = [root] + [v for v in range(g.n) if v != root]
        pos = {v: i for i, v in enumerate(order)}
        h = build_graph(g.n, [(pos[u], pos[w]) for u, w in g.edges()])
        return TwinCliquePartition(root, tuple(1 << v for v in order), h)

    monkeypatch.setattr(domcore.verify, "twin_clique_partition", singletons)
    report = verify_corpus(4)
    assert {c.name for c in report.checks if c.violation_count} == {"twin-clique-partition"}
    (check,) = (c for c in report.checks if c.name == "twin-clique-partition")
    assert check.violation_count == 4
    assert all("splits a twin class" in message for _, message in check.violations)


# parts at root 0 of K3 that sum to V but do not partition it, with the
# reduced graph their members give: {1} three times and no 2; or an empty
# part next to both real ones, which keeps K3 and gamma
@pytest.mark.parametrize(
    "cliques, edges",
    [
        ((0b001, 0b010, 0b010, 0b010), [(0, 1), (0, 2), (0, 3)]),
        ((0b001, 0b110, 0), [(0, 1), (0, 2), (1, 2)]),
    ],
    ids=["repeated-part", "empty-part"],
)
def test_twin_clique_partition_flags_a_false_partition(monkeypatch, cliques, edges):
    real = domcore.verify.twin_clique_partition

    def false_partition(g, root):
        if g != complete(3) or root != 0:
            return real(g, root)
        return TwinCliquePartition(root, cliques, build_graph(len(cliques), edges))

    monkeypatch.setattr(domcore.verify, "twin_clique_partition", false_partition)
    assert "twin-clique-partition" in _flagged(3)


def _forged_ctx(g, core, plus):
    ctx = _Ctx(g)
    ctx.__dict__["masks"] = {"core": core, "plus": plus}
    return ctx


def test_cut_vertex_lemma_flags_a_forged_class_and_skips_the_dfs(monkeypatch):
    calls = []
    real = domcore.verify.cut_vertices
    monkeypatch.setattr(domcore.verify, "cut_vertices", lambda g: calls.append(g) or real(g))
    # the centre of P3 is a cut vertex whose two sides attach by cliques,
    # so the lemma says it raises gamma; a class mask that says otherwise
    # must be caught
    g = path(3)
    assert list(_check_cut_vertex_lemma(_forged_ctx(g, 0b010, 0))) == [
        "clique-attachment cut vertex 1 in core does not raise gamma"
    ]
    assert len(calls) == 1
    calls.clear()
    for core, plus in ((0b010, 0b010), (0, 0), (0b101, 0b111)):
        assert list(_check_cut_vertex_lemma(_forged_ctx(g, core, plus))) == []
    assert calls == []


def test_simplicial_exclusion_flags_a_forged_core():
    # both ends of P3 are simplicial; a core mask holding vertex 0 must be caught
    ctx = _Ctx(path(3))
    ctx.__dict__["masks"] = {"core": 0b001}
    assert list(_check_simplicial(ctx)) == ["simplicial vertex 0 sits in the core"]


def test_recognizer_consistency_flags_a_hole_free_seven_vertex_cycle():
    # C7 is not chordal, so a pattern search that finds no hole in it is
    # wrong at n = 7, the largest order the hole test covers
    g = cycle(7)
    ctx = _Ctx(g)
    ctx.catalog = dict.fromkeys(PATTERNS, False)
    assert list(_check_recognizer_consistency(ctx)) == [
        "cograph flag disagrees with induced P4 search",
        "non-chordal small graph without any induced hole",
    ]


def test_verify_counts_every_violation_and_keeps_the_first_few(monkeypatch):
    monkeypatch.setattr(domcore.verify, "PER_GRAPH_CHECKS", (("always", lambda ctx: ["flagged"]),))
    report = verify_corpus(4)
    check = report.checks[0]
    assert (check.name, check.graphs_checked, check.violation_count) == ("always", 10, 10)
    assert len(check.violations) == _VIOLATIONS_KEPT == 5

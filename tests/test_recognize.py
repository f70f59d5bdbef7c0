import subprocess
import sys
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domcore.recognize
from domcore import (
    Graph,
    GraphError,
    build_graph,
    class_flags,
    contains_induced,
    is_bipartite,
    is_chordal,
    is_claw_free,
    is_cograph,
    is_tree,
    twin_clique_partition,
)
from domcore.graph import bits, mask_of
from domcore.recognize import _SUB_PATTERNS, PATTERNS, _search_plan, catalog_contains
from domcore.solve import gamma_value
from helpers import (
    complete,
    complete_bipartite,
    cycle,
    graphs,
    path,
    petersen,
    relabel,
    relabeled_graphs,
    src_env,
    star,
)

PAW = build_graph(4, [(1, 2), (2, 3), (1, 3), (0, 1)])
BULL = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
DIAMOND = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
NET = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def _pair_mask(g: Graph, vs) -> int:
    """Edges g induces on vs; bit b is the b-th pair of combinations(vs, 2)."""
    return sum(1 << b for b, (u, v) in enumerate(combinations(vs, 2)) if (g.adj[u] >> v) & 1)


@cache
def _labeled_copies(pattern: str) -> frozenset[int]:
    """_pair_mask of the pattern's vertices under every permutation."""
    h = PATTERNS[pattern]
    return frozenset(_pair_mask(h, p) for p in permutations(range(h.n)))


def _contains_bruteforce(g: Graph, pattern: str) -> bool:
    """Some k-subset of g, in some order, induces exactly the pattern."""
    copies = _labeled_copies(pattern)
    return any(_pair_mask(g, vs) in copies for vs in combinations(range(g.n), PATTERNS[pattern].n))


@st.composite
def _planted_graphs(draw, max_n):
    """Graphs of about half density in which k vertices, in a random
    order, induce a copy of a random k-vertex pattern."""
    h = PATTERNS[draw(st.sampled_from(sorted(PATTERNS)))]
    n = draw(st.integers(h.n, max_n))
    pos = {v: i for i, v in enumerate(draw(st.permutations(range(n))))}
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))

    def edge(b, u, v):
        if pos[u] < h.n and pos[v] < h.n:
            return h.has_edge(pos[u], pos[v])
        return (chosen >> b) & 1

    return build_graph(n, [(u, v) for b, (u, v) in enumerate(pairs) if edge(b, u, v)])


def test_catalog_is_pinned():
    assert sorted(PATTERNS) == sorted(
        ["claw", "diamond", "paw", "bull", "net", "P4", "P5", "P6", "P7", "C4", "C5", "C6", "C7"]
    )
    for name, g in PATTERNS.items():
        # every catalog entry contains itself
        assert contains_induced(g, name), name


def test_unknown_pattern_rejected():
    # an unhashable name is an unknown pattern, not a TypeError
    for pattern in ("K4", ["claw"], {"claw"}):
        with pytest.raises(GraphError):
            contains_induced(path(3), pattern)


def test_claw_detection():
    assert contains_induced(star(3), "claw")
    assert contains_induced(star(5), "claw")
    assert not contains_induced(cycle(4), "claw")
    assert contains_induced(petersen(), "claw")
    assert is_claw_free(cycle(9))
    assert not is_claw_free(star(3))


def test_small_pattern_detection():
    assert contains_induced(PAW, "paw")
    assert contains_induced(BULL, "bull")
    assert contains_induced(DIAMOND, "diamond")
    assert contains_induced(NET, "net")
    assert not contains_induced(complete(4), "diamond")
    assert not contains_induced(PAW, "diamond")
    assert not contains_induced(BULL, "net")
    assert contains_induced(BULL, "paw")


def test_paths_and_holes():
    assert contains_induced(path(7), "P7")
    assert contains_induced(path(7), "P4")
    assert not contains_induced(path(6), "P7")
    assert not contains_induced(cycle(7), "P7")
    assert contains_induced(cycle(8), "P7")
    for k in (4, 5, 6, 7):
        assert contains_induced(cycle(k), f"C{k}")
        assert not contains_induced(complete(k), f"C{k}")
    # a long hole does not hide a short one
    assert not contains_induced(cycle(7), "C5")


@settings(max_examples=300)
@given(st.one_of(graphs(0, 10), _planted_graphs(10)))
def test_contains_induced_matches_bruteforce(g):
    for name in PATTERNS:
        assert contains_induced(g, name) == _contains_bruteforce(g, name), name


@given(st.one_of(graphs(0, 10), _planted_graphs(10)))
def test_catalog_pass_matches_each_search(g):
    got = catalog_contains(g)
    assert list(got) == list(PATTERNS)
    for name in PATTERNS:
        assert got[name] == contains_induced(g, name) == _contains_bruteforce(g, name), name


def test_sub_patterns_are_induced_in_their_pattern():
    for big, subs in _SUB_PATTERNS.items():
        for sub in subs:
            assert _contains_bruteforce(PATTERNS[big], sub), (big, sub)


def test_sub_pattern_table_implies_every_catalog_containment():
    # a pattern added to the catalog cannot leave the table stale: the
    # chains of the table reach exactly the other patterns induced in it
    for big, h in PATTERNS.items():
        implied = set()
        todo = list(_SUB_PATTERNS.get(big, ()))
        while todo:
            sub = todo.pop()
            if sub not in implied:
                implied.add(sub)
                todo.extend(_SUB_PATTERNS.get(sub, ()))
        assert implied == {small for small in PATTERNS if small != big and _contains_bruteforce(h, small)}, big


@pytest.mark.parametrize("name", list(PATTERNS))
def test_symmetry_conditions_keep_one_automorphism(name):
    # the plan's rows are all the search reads.  Take each permutation of
    # h's vertices as the images of the levels: the degree bounds and the
    # adjacent and apart levels keep h's embeddings onto itself, one per
    # automorphism, and the above levels keep exactly one of them, however
    # a host graph labels the copy's vertices
    plan = _search_plan(name)
    h = PATTERNS[name]
    edges = {frozenset(e) for e in h.edges()}
    automorphisms = [
        p for p in permutations(range(h.n)) if {frozenset((p[u], p[v])) for u, v in edges} == edges
    ]
    embeddings = [
        images
        for images in permutations(range(h.n))
        if all(
            h.adj[images[i]].bit_count() >= need
            and all(h.has_edge(images[i], images[j]) for j in adjacent)
            and not any(h.has_edge(images[i], images[j]) for j in apart)
            for i, (need, adjacent, apart, _) in enumerate(plan)
        )
    ]
    assert len(embeddings) == len(automorphisms)
    for labels in permutations(range(h.n)):
        kept = [
            images
            for images in embeddings
            if all(labels[images[i]] > labels[images[j]] for i, (*_, above) in enumerate(plan) for j in above)
        ]
        assert len(kept) == 1, labels
    # a row's above levels are earlier ones, whose images are already
    # placed when the search reaches the row
    assert all(j < i for i, (*_, above) in enumerate(plan) for j in above)


def test_symmetry_plan_is_not_built_on_import():
    # the benchmark times fresh imports as set-up, so import builds nothing
    code = "import domcore.recognize as r; print(r._search_plan.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0"]


def test_is_chordal():
    assert is_chordal(path(6))
    assert is_chordal(star(5))
    assert is_chordal(complete(4))
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(7))
    # a chorded 4-cycle is chordal
    assert is_chordal(DIAMOND)
    assert not is_chordal(complete_bipartite(2, 3))


def test_chordal_matches_hole_freeness(corpus6):
    for _, g in corpus6:
        holes = any(contains_induced(g, c) for c in ("C4", "C5", "C6"))
        assert is_chordal(g) == (not holes)


def _has_hole(g: Graph) -> bool:
    """Some vertex set of size at least 4 induces a connected 2-regular
    subgraph, a chordless cycle."""
    for s in range(1 << g.n):
        if s.bit_count() < 4 or any((g.adj[v] & s).bit_count() != 2 for v in bits(s)):
            continue
        reached = s & -s
        while True:
            grown = reached | (s & mask_of(u for v in bits(reached) for u in bits(g.adj[v])))
            if grown == reached:
                break
            reached = grown
        if reached == s:
            return True
    return False


@st.composite
def _k_trees(draw, max_n):
    """(k, edges) of a random k-tree, 1 <= k <= 4, on vertices 0..n-1 in
    the order they were added: K_{k+1}, then each new vertex joined to
    every vertex of a k-clique already there."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, max_n))
    edges = list(combinations(range(k + 1), 2))
    cliques = [frozenset(range(k + 1)) - {v} for v in range(k + 1)]
    for v in range(k + 1, n):
        base = draw(st.sampled_from(cliques))
        edges.extend((u, v) for u in base)
        cliques.extend(base - {u} | {v} for u in base)
    return k, edges


@settings(max_examples=300)
@given(st.one_of(graphs(0, 10), _planted_graphs(10)))
def test_chordal_matches_hole_search(g):
    assert is_chordal(g) == (not _has_hole(g))


@given(relabeled_graphs(0, 64))
def test_chordal_commutes_with_relabeling(case):
    g, perm = case
    assert is_chordal(relabel(g, perm)) == is_chordal(g)


@given(_k_trees(64), st.integers(4, 7), st.data())
def test_k_trees_are_chordal_until_a_hole_joins(tree, length, data):
    k, edges = tree
    n = 1 + max(v for e in edges for v in e)
    g = build_graph(n, edges)
    assert is_chordal(relabel(g, data.draw(st.permutations(range(n)))))
    # the first m vertices of the construction are a k-tree too; a
    # chordless cycle on m..m+length-1 hangs from it by one edge
    m = min(n, 64 - length)
    ring = [(m + i, m + (i + 1) % length) for i in range(length)]
    join = (data.draw(st.integers(0, m - 1)), m + data.draw(st.integers(0, length - 1)))
    h = build_graph(m + length, [e for e in edges if e[1] < m] + ring + [join])
    assert not is_chordal(relabel(h, data.draw(st.permutations(range(h.n)))))


def test_is_cograph():
    assert is_cograph(complete(5))
    assert is_cograph(cycle(4))
    assert is_cograph(PAW)
    assert not is_cograph(path(4))
    assert not is_cograph(BULL)
    assert is_cograph(complete_bipartite(3, 4))


def test_is_bipartite_and_tree():
    assert is_bipartite(path(5))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert is_bipartite(complete_bipartite(3, 3))
    assert is_tree(star(6))
    assert not is_tree(cycle(3))
    assert not is_tree(build_graph(2, []))


@given(graphs(0, 12))
def test_is_bipartite_matches_bruteforce_coloring(g):
    # side is the vertex set of one color; no edge may stay inside a side
    def proper(side: int) -> bool:
        other = g.full_mask & ~side
        return all(not g.adj[v] & (side if (side >> v) & 1 else other) for v in range(g.n))

    assert is_bipartite(g) == any(proper(side) for side in range(1 << g.n))


def test_class_flags_bundle():
    d = class_flags(path(4))
    assert list(d) == ["chordal", "bipartite", "tree", "cograph", "claw_free", "contains"]
    assert d["tree"] and d["bipartite"] and d["chordal"]
    assert d["cograph"] is False
    assert d["claw_free"] is True
    assert list(d["contains"]) == list(PATTERNS)
    assert d["contains"]["P4"] is True
    assert d["contains"]["claw"] is False


def test_class_flags_searches_each_pattern_once(monkeypatch):
    # the cograph and claw-free flags read the contains dict, so claw and
    # P4 are not searched a second time; a pattern is searched after its
    # listed sub-patterns, and only if all of them were found
    calls = []
    search = domcore.recognize.contains_induced
    monkeypatch.setattr(
        domcore.recognize, "contains_induced", lambda g, name: calls.append(name) or search(g, name)
    )
    for g in (path(4), star(3), cycle(5), complete(4), petersen()):
        calls.clear()
        flags = class_flags(g)
        contains = flags["contains"]
        assert len(calls) == len(set(calls))
        skipped = {name for name, subs in _SUB_PATTERNS.items() if not all(contains[sub] for sub in subs)}
        assert set(calls) == set(PATTERNS) - skipped
        for i, name in enumerate(calls):
            assert set(_SUB_PATTERNS.get(name, ())) <= set(calls[:i]), name
        assert flags["cograph"] == is_cograph(g) and flags["claw_free"] == is_claw_free(g)
    # K4 has no induced P4 and no paw, so nothing that needs them is searched
    calls.clear()
    class_flags(complete(4))
    assert sorted(calls) == sorted(["claw", "diamond", "paw", "P4", "C4"])


def test_twin_clique_partition_paw():
    tcp = twin_clique_partition(PAW, 3)
    assert tcp.root == 3
    assert tcp.cliques[0] == 0b1000
    # vertices 1 and 2 are closed twins once 3 is pulled out? no:
    # N[1] = {0,1,2,3}, N[2] = {1,2,3}, so they stay separate
    assert len(tcp.cliques) == 4
    assert gamma_value(tcp.reduced) == gamma_value(PAW)
    with pytest.raises(GraphError, match="not an int"):
        twin_clique_partition(PAW, 0.0)


def test_twin_clique_partition_complete():
    g = complete(5)
    tcp = twin_clique_partition(g, 2)
    assert tcp.cliques[0] == 0b00100
    assert tcp.cliques[1] == 0b11011
    assert tcp.reduced.n == 2
    assert tcp.reduced.has_edge(0, 1)


def test_twin_clique_partition_preserves_gamma(corpus6):
    for _, g in corpus6:
        gamma = gamma_value(g)
        for root in range(g.n):
            tcp = twin_clique_partition(g, root)
            assert sum(tcp.cliques) == g.full_mask
            assert gamma_value(tcp.reduced) == gamma


@given(st.data())
def test_twin_clique_reduced_graph_is_well_formed(data):
    # reduced is built without validation; the validating constructor must
    # accept its data, and it must be the subgraph induced on one vertex per part
    g = data.draw(graphs(1, 12))
    tcp = twin_clique_partition(g, data.draw(st.integers(0, g.n - 1)))
    h = tcp.reduced
    assert Graph(h.n, h.adj) == h
    reps = [(c & -c).bit_length() - 1 for c in tcp.cliques]
    assert all(h.has_edge(i, j) == g.has_edge(reps[i], reps[j]) for i, j in combinations(range(h.n), 2))


@given(relabeled_graphs(0, 10))
def test_class_flags_commute_with_relabeling(case):
    g, perm = case
    assert class_flags(relabel(g, perm)) == class_flags(g)

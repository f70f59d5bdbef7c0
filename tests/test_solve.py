from itertools import combinations

import pytest
from hypothesis import given

from domcore import (
    GraphError,
    all_minimum_dominating_sets,
    build_graph,
    core_and_corona,
    gamma_exact,
    gamma_value,
    independence_number,
    independent_domination_number,
)
from domcore.graph import bits, closed_masks, is_dominating, mask_of
from domcore.solve import (
    ALL_SETS_MAX,
    _minimum_sets,
    exists_dominating_within,
    gamma_bruteforce,
    gamma_tree,
)
from domcore.enumeration import enumerate_trees
from helpers import complete, complete_bipartite, cycle, graphs, path, petersen, star


def test_gamma_paths_and_cycles():
    # gamma of a path or cycle is ceil(n / 3)
    for n in range(1, 13):
        assert gamma_value(path(n)) == (n + 2) // 3
    for n in range(3, 13):
        assert gamma_value(cycle(n)) == (n + 2) // 3


def test_gamma_named_graphs():
    assert gamma_value(complete(6)) == 1
    assert gamma_value(complete_bipartite(3, 3)) == 2
    assert gamma_value(star(5)) == 1
    assert gamma_value(petersen()) == 3
    assert gamma_value(build_graph(0, [])) == 0
    assert gamma_value(build_graph(4, [])) == 4


def test_witness_is_valid_and_lexicographic():
    rep = gamma_exact(path(3))
    assert rep.gamma == 1
    assert rep.witness == 0b010
    rep = gamma_exact(cycle(4))
    assert rep.witness == 0b0011  # {0,1} is the first pair in order
    for g in (path(7), cycle(9), petersen()):
        rep = gamma_exact(g)
        assert is_dominating(g, rep.witness)
        assert rep.witness.bit_count() == rep.gamma


def test_solver_matches_bruteforce(corpus6):
    for _, g in corpus6:
        fast = gamma_exact(g)
        slow = gamma_bruteforce(g)
        assert fast.gamma == slow.gamma
        assert fast.witness == slow.witness


def test_all_minimum_dominating_sets():
    # sets arrive ordered by their sorted member tuples
    assert all_minimum_dominating_sets(cycle(4)).all_sets == (
        0b0011,
        0b0101,
        0b1001,
        0b0110,
        0b1010,
        0b1100,
    )
    # C6 has exactly the three antipodal pairs
    assert all_minimum_dominating_sets(cycle(6)).all_sets == (
        0b001001,
        0b010010,
        0b100100,
    )
    assert all_minimum_dominating_sets(star(3)).all_sets == (0b0001,)


def test_all_sets_respects_capacity():
    with pytest.raises(GraphError):
        all_minimum_dominating_sets(build_graph(ALL_SETS_MAX + 1, [(0, 1)]))


def test_core_and_corona():
    assert core_and_corona(path(3)) == (0b010, 0b010)
    assert core_and_corona(cycle(4)) == (0, 0b1111)
    assert core_and_corona(star(4)) == (0b00001, 0b00001)
    core, corona = core_and_corona(complete_bipartite(3, 3))
    assert core == 0
    assert corona == 0b111111


def test_independence_number():
    assert independence_number(cycle(5)) == 2
    assert independence_number(path(4)) == 2
    assert independence_number(complete(5)) == 1
    assert independence_number(complete_bipartite(3, 3)) == 3
    assert independence_number(petersen()) == 4
    assert independence_number(build_graph(6, [])) == 6


def test_independent_domination():
    # K(3,3) is the classic separation: gamma = 2 but i = 3
    rep = independent_domination_number(complete_bipartite(3, 3))
    assert rep.gamma == 3
    assert is_dominating(complete_bipartite(3, 3), rep.witness)
    assert rep.witness == 0b000111
    assert independent_domination_number(cycle(5)).gamma == 2
    assert independent_domination_number(star(9)).gamma == 1


def test_gamma_chain_on_corpus(corpus6):
    for _, g in corpus6:
        gamma = gamma_value(g)
        ind = independent_domination_number(g).gamma
        assert gamma <= ind <= independence_number(g)


def test_gamma_tree_agrees():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert gamma_tree(t).gamma == gamma_value(t)


def test_gamma_tree_rejects_cycles():
    with pytest.raises(GraphError):
        gamma_tree(cycle(4))


def test_exists_dominating_within():
    g = cycle(6)
    assert not exists_dominating_within(g, 1)
    assert exists_dominating_within(g, 2)
    assert exists_dominating_within(g, 6)
    assert exists_dominating_within(build_graph(0, []), 0)
    assert not exists_dominating_within(path(1), 0)


@given(graphs(0, 12))
def test_minimum_sets_match_bruteforce(g):
    # every size, not just gamma: the generator lists all dominating sets
    # of the size it is given, in the order combinations produces them
    closed = closed_masks(g)
    for size in range(g.n + 1):
        want = [mask_of(c) for c in combinations(range(g.n), size)]
        want = [s for s in want if is_dominating(g, s)]
        assert list(_minimum_sets(closed, g.full_mask, size)) == want
        independent = [s for s in want if all(not g.adj[v] & s for v in bits(s))]
        assert list(_minimum_sets(closed, g.full_mask, size, g.adj)) == independent

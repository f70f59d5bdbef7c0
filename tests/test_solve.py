from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from domcore.graph import MAX_VERTICES, bits, closed_masks, is_dominating, mask_of
from domcore.solve import (
    ALL_SETS_MAX,
    _exists_dominating,
    _minimum_sets,
    _packing_bound,
    exists_dominating_within,
    gamma_bruteforce,
    gamma_tree,
)
from domcore.enumeration import enumerate_trees
from helpers import (
    TREE_COUNTS,
    complete,
    complete_bipartite,
    cycle,
    forests,
    graphs,
    path,
    petersen,
    relabel,
    relabeled_graphs,
    star,
)


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


def test_core_and_corona_takes_gamma(corpus6):
    for _, g in corpus6:
        assert core_and_corona(g, gamma_value(g)) == core_and_corona(g)


def _fold_all_sets(g):
    """Literal intersection and union of every listed minimum set."""
    core, corona = g.full_mask, 0
    for s in all_minimum_dominating_sets(g).all_sets:
        core &= s
        corona |= s
    return core, corona


def test_core_and_corona_is_the_fold_of_all_sets(corpus6):
    for _, g in corpus6:
        assert core_and_corona(g) == _fold_all_sets(g)


@given(graphs(0, 12))
def test_core_and_corona_is_the_fold_of_all_sets_on_random_graphs(g):
    assert core_and_corona(g) == _fold_all_sets(g)


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


@given(graphs(0, 12))
def test_independent_domination_matches_bruteforce(g):
    # the first independent dominating set in combinations order
    want = next(
        s
        for size in range(g.n + 1)
        for s in map(mask_of, combinations(range(g.n), size))
        if is_dominating(g, s) and all(not g.adj[v] & s for v in bits(s))
    )
    rep = independent_domination_number(g)
    assert (rep.gamma, rep.witness) == (want.bit_count(), want)


def test_gamma_chain_on_corpus(corpus6):
    for _, g in corpus6:
        gamma = gamma_value(g)
        ind = independent_domination_number(g).gamma
        assert gamma <= ind <= independence_number(g)


def test_gamma_tree_agrees():
    for n in TREE_COUNTS:
        for t in enumerate_trees(n):
            assert gamma_tree(t).gamma == gamma_value(t)


@given(forests(0, 12))
def test_gamma_tree_agrees_on_forests(g):
    assert gamma_tree(g).gamma == gamma_value(g)


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


def _fewest_picks(closed, undominated, pool, independent, cap):
    """Size of a smallest set of pool vertices that dominates undominated, or cap + 1.

    If independent is true, the set must also be an independent set.
    """
    for size in range(cap + 1):
        for combo in combinations(bits(pool), size):
            picks = mask_of(combo)
            if independent and any(closed[v] & picks != 1 << v for v in combo):
                continue
            covered = 0
            for v in combo:
                covered |= closed[v]
            if not undominated & ~covered:
                return size
    return cap + 1


@settings(max_examples=300)
@given(graphs(0, 10), st.booleans(), st.randoms(use_true_random=False))
def test_exists_dominating_matches_bruteforce(g, delete, rng):
    # budgets 0..4 reach the closed-form last picks (budgets 1 and 2) and
    # the recursive path.  With a vertex v deleted, the search runs on two
    # forms of G - v: masks with bit v cleared, and G's own masks with only
    # v left out of the vertex set, the form classify probes; brute force
    # on the cleared masks is the reference for both
    closed, full = closed_masks(g), g.full_mask
    forms = [closed]
    if g.n and delete:
        keep = ~(1 << rng.randrange(g.n))
        full &= keep
        forms = [[c & keep for c in closed], closed]
    # many states per graph: a fault in the independent last picks shows
    # only where an adjacent pair dominates and no independent one does
    for _ in range(16):
        dominated = rng.getrandbits(g.n) & full
        subset = rng.getrandbits(g.n) & full
        for allowed in (None, full, subset):
            pool = full if allowed is None else allowed
            least = _fewest_picks(forms[0], full & ~dominated, pool, allowed is not None, 4)
            for masks in forms:
                for budget in range(5):
                    got = _exists_dominating(masks, full, budget, dominated, allowed)
                    assert got == (least <= budget), (masks is closed, dominated, allowed, budget)


@given(graphs(0, 12), st.randoms(use_true_random=False))
def test_packing_bound_is_sound(g, rng):
    # the bound counts closed neighborhoods within avail, so it is at most
    # the fewest picks from avail that dominate the undominated set
    closed = closed_masks(g)
    for _ in range(8):
        undominated = rng.getrandbits(g.n)
        avail = rng.getrandbits(g.n)
        bound = _packing_bound(closed, undominated, avail)
        stranded = any(not closed[u] & avail for u in bits(undominated))
        assert (bound == MAX_VERTICES + 1) == stranded, (undominated, avail)
        if not stranded:
            assert bound <= _fewest_picks(closed, undominated, avail, False, g.n), (undominated, avail)


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


@given(relabeled_graphs(0, 16))
def test_gamma_commutes_with_relabeling(case):
    g, perm = case
    assert gamma_value(relabel(g, perm)) == gamma_value(g)

import random
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
    parse_graph6,
)
from domcore.graph import MAX_VERTICES, bits, closed_masks, is_dominating, mask_of
from domcore.solve import (
    ALL_SETS_MAX,
    _exists_dominating,
    _greedy_cover,
    _node_scan,
    _pivot_walk,
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
    random_graph,
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


def _is_independent(g, s):
    return all(not g.adj[v] & s for v in bits(s))


def _first_independent_dominating(g):
    """The first independent dominating set in combinations order."""
    return next(
        s
        for size in range(g.n + 1)
        for s in map(mask_of, combinations(range(g.n), size))
        if _is_independent(g, s) and is_dominating(g, s)
    )


def test_solver_matches_bruteforce_above_twelve_vertices():
    # the hypothesis and corpus checks stop at 12 and 8 vertices, where the
    # recursive search rarely runs; gamma runs from 1 to 9 on these graphs,
    # and i(G) runs the independent prefix probes as deep
    rng = random.Random(1318)
    for i in range(100):
        g = random_graph(rng, rng.randint(13, 18), 0.1 + 0.8 * i / 99)
        fast = gamma_exact(g)
        slow = gamma_bruteforce(g)
        assert (fast.gamma, fast.witness) == (slow.gamma, slow.witness), i
        rep = independent_domination_number(g)
        want = _first_independent_dominating(g)
        assert (rep.gamma, rep.witness) == (want.bit_count(), want), i


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
def test_all_minimum_dominating_sets_match_bruteforce(g):
    # the dominating gamma-subsets, in the order combinations produces them
    gamma = gamma_bruteforce(g).gamma
    want = [mask_of(c) for c in combinations(range(g.n), gamma)]
    assert all_minimum_dominating_sets(g).all_sets == tuple(s for s in want if is_dominating(g, s))


@given(graphs(0, 12))
def test_core_and_corona_is_the_fold_of_all_sets_on_random_graphs(g):
    assert core_and_corona(g) == _fold_all_sets(g)


def test_core_and_corona_above_twelve_vertices():
    # the hypothesis fold stops at 12 vertices; here dense and sparse graphs
    # of 13 to 24 vertices meet the listed sets, and sparse ones of 30 to 40,
    # past the listing's cap, meet one probe per vertex: v is in some minimum
    # set iff gamma - 1 picks dominate what N[v] leaves, and v is missing from
    # some minimum set iff gamma picks without v dominate
    rng = random.Random(3117)
    for i in range(64):
        n = rng.randint(13, 24)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9) if i % 2 else 2.5 / n)
        assert core_and_corona(g) == _fold_all_sets(g), i
    for n in (30, 35, 40):
        g = random_graph(rng, n, 2.5 / n)
        closed, full, gamma = closed_masks(g), g.full_mask, gamma_value(g)
        core = corona = 0
        for v in range(n):
            if _exists_dominating(closed, full, gamma - 1, closed[v]) is not None:
                corona |= 1 << v
            if next(_pivot_walk(closed, full, full & ~(1 << v), 0, gamma), None) is None:
                core |= 1 << v
        assert core_and_corona(g) == (core, corona), n


@given(relabeled_graphs(0, 16))
def test_core_and_corona_commutes_with_relabeling(case):
    g, perm = case
    core, corona = core_and_corona(g)
    moved = [mask_of(perm[v] for v in bits(m)) for m in (core, corona)]
    assert core_and_corona(relabel(g, perm)) == tuple(moved)


def test_independence_number():
    assert independence_number(cycle(5)) == 2
    assert independence_number(path(4)) == 2
    assert independence_number(complete(5)) == 1
    assert independence_number(complete_bipartite(3, 3)) == 3
    assert independence_number(petersen()) == 4
    assert independence_number(build_graph(6, [])) == 6


@given(graphs(0, 12))
def test_independence_number_matches_bruteforce(g):
    # the largest size, scanned from the top down, with an independent subset
    want = next(
        size
        for size in range(g.n, -1, -1)
        for s in map(mask_of, combinations(range(g.n), size))
        if all(not g.adj[v] & s for v in bits(s))
    )
    assert independence_number(g) == want


@given(graphs(0, 10), graphs(0, 10))
def test_independence_number_adds_over_a_disjoint_union(a, b):
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    union = build_graph(a.n + b.n, list(a.edges()) + shifted)
    assert independence_number(union) == independence_number(a) + independence_number(b)


@given(relabeled_graphs(0, 20))
def test_independence_number_commutes_with_relabeling(case):
    g, perm = case
    assert independence_number(relabel(g, perm)) == independence_number(g)


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
            assert gamma_tree(t) == gamma_value(t)


@given(forests(0, 32))
def test_gamma_tree_agrees_on_forests(g):
    assert gamma_tree(g) == gamma_value(g)


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
    # no set has negative size, not even on the empty graph
    assert not exists_dominating_within(build_graph(0, []), -1)
    assert not exists_dominating_within(path(1), -1)


def _top_level_probes(monkeypatch):
    """(budget, picks) of each _exists_dominating call that passes no
    `dominated`, as gamma_value's probes do."""
    probes = []

    def probe(closed, full, budget, *dominated):
        picks = _exists_dominating(closed, full, budget, *dominated)
        if not dominated:
            probes.append((budget, picks))
        return picks

    monkeypatch.setattr("domcore.solve._exists_dominating", probe)
    return probes


@given(graphs(0, 14))
def test_gamma_value_descends_from_the_greedy_cover(g):
    # the first probe is one below the greedy cover, each later one is one
    # below the size of the set the last one found, and only the last fails
    with pytest.MonkeyPatch.context() as monkeypatch:
        probes = _top_level_probes(monkeypatch)
        gamma = gamma_value(g)
    if not g.n:
        assert (probes, gamma) == ([], 0)
        return
    *found, (last_budget, last) = probes
    assert last is None and None not in [picks for _, picks in found]
    sizes = [_greedy_cover(closed_masks(g), g.full_mask)] + [p.bit_count() for _, p in found]
    assert [budget for budget, _ in probes] == [k - 1 for k in sizes]
    assert gamma == last_budget + 1


def test_gamma_value_descends_past_budgets_a_found_set_beats(monkeypatch):
    # greedy covers this graph with 5; the probe at budget 4 finds 3 picks,
    # so the next probe is at 2, never at 3
    probes = _top_level_probes(monkeypatch)
    assert gamma_value(parse_graph6("HcUR?OC")) == 3
    assert [(b, p if p is None else p.bit_count()) for b, p in probes] == [(4, 3), (2, None)]


def _fewest_picks(closed, undominated, pool, cap):
    """Size of a smallest set of pool vertices that dominates undominated, or cap + 1."""
    for size in range(cap + 1):
        for combo in combinations(bits(pool), size):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if not undominated & ~covered:
                return size
    return cap + 1


@settings(max_examples=300)
@given(graphs(0, 10), st.booleans(), st.randoms(use_true_random=False))
def test_exists_dominating_matches_bruteforce(g, delete, rng):
    # budgets 0..4 reach the one-pick probe (budget 1), the walk's bulk
    # last pick and its branching above it.  With a vertex v deleted, the
    # search runs on two forms of G - v: masks with bit v cleared, and G's
    # own masks with only v left out of the vertex set, the form classify
    # probes; brute force on the cleared masks is the reference for both.
    # A set found must be picks from the vertex set, within the budget,
    # that dominate with `dominated` all of the vertex set
    closed, full = closed_masks(g), g.full_mask
    forms = [closed]
    if g.n and delete:
        keep = ~(1 << rng.randrange(g.n))
        full &= keep
        forms = [[c & keep for c in closed], closed]
    for _ in range(16):
        dominated = rng.getrandbits(g.n) & full
        least = _fewest_picks(forms[0], full & ~dominated, full, 4)
        for masks in forms:
            for budget in range(5):
                got = _exists_dominating(masks, full, budget, dominated)
                context = (masks is closed, dominated, budget, got)
                assert (got is not None) == (least <= budget), context
                if got is not None:
                    assert not got & ~full and got.bit_count() <= budget, context
                    covered = dominated
                    for w in bits(got):
                        covered |= forms[0][w]
                    assert not full & ~covered, context


@given(graphs(0, 12), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_pivot_walk_meets_each_minimum_set_once(g, leave_out, independent, rng):
    # union and intersection do not notice a set folded twice, so the
    # families the walk yields are expanded and counted here: at
    # remaining = gamma they must list every minimum dominating set with
    # its picks from avail exactly once, and in the independent mode at
    # remaining = i(G) every independent dominating set of that size
    closed, full = closed_masks(g), g.full_mask
    gamma = gamma_bruteforce(g).gamma
    avail = full & ~(1 << rng.randrange(g.n)) if g.n and leave_out else full

    def met(*walk_args):
        sets = []
        for chosen, last in _pivot_walk(closed, full, avail, 0, *walk_args):
            sets.extend([chosen | (1 << w) for w in bits(last)] if last else [chosen])
        return sorted(sets)

    want = [mask_of(c) for c in combinations(bits(avail), gamma)]
    assert met(gamma) == sorted(s for s in want if is_dominating(g, s))
    if independent:
        size = _first_independent_dominating(g).bit_count()
        want = [mask_of(c) for c in combinations(bits(avail), size)]
        want = [s for s in want if _is_independent(g, s) and is_dominating(g, s)]
        assert met(size, True) == sorted(want)


def test_probe_stops_at_the_first_family(monkeypatch):
    # the Petersen graph has 10 minimum sets of size 3: a probe at budget 3
    # reads the walk up to its first family and stops, while the fold reads
    # every family, so a probe that drained the walk would scan as many nodes
    scans = []

    def counted(*args):
        scans.append(args)
        return _node_scan(*args)

    monkeypatch.setattr("domcore.solve._node_scan", counted)
    g = petersen()
    closed, full = closed_masks(g), g.full_mask
    assert _exists_dominating(closed, full, 3) is not None
    probe = len(scans)
    scans.clear()
    core_and_corona(g, 3)
    assert probe < len(scans), (probe, len(scans))


@given(graphs(0, 12), st.randoms(use_true_random=False))
def test_packing_bound_is_sound(g, rng):
    # the scan's bound counts closed neighborhoods within avail, so it never
    # cuts a budget that the fewest picks from avail meet; it cuts every
    # budget exactly when some undominated vertex has no dominator in avail
    closed = closed_masks(g)
    for _ in range(8):
        undominated = rng.getrandbits(g.n)
        avail = rng.getrandbits(g.n)
        stranded = any(not closed[u] & avail for u in bits(undominated))
        cut = _node_scan(closed, undominated, avail, MAX_VERTICES) is None
        assert cut == stranded, (undominated, avail)
        if not stranded:
            least = _fewest_picks(closed, undominated, avail, g.n)
            assert _node_scan(closed, undominated, avail, least) is not None, (undominated, avail)


def _plain_bound(closed, undominated, avail):
    """Packing bound as written: undominated vertices, in order, whose closed
    neighborhoods within avail miss those already counted; None if one is empty."""
    counted = []
    for u in bits(undominated):
        nb = closed[u] & avail
        if not nb:
            return None
        if all(not nb & other for other in counted):
            counted.append(nb)
    return len(counted)


@given(graphs(0, 12), st.randoms(use_true_random=False))
def test_node_scan_matches_plain_bound_and_pivot(g, rng):
    closed, full = closed_masks(g), g.full_mask
    # the whole graph first, then random states
    states = [(full, full)] + [
        (rng.getrandbits(g.n), rng.choice((full, rng.getrandbits(g.n)))) for _ in range(8)
    ]
    for undominated, avail in states:
        bound = _plain_bound(closed, undominated, avail)
        # the first undominated vertex with the fewest dominators in avail
        pivot = min((closed[u] & avail for u in bits(undominated)), key=int.bit_count, default=0)
        for budget in range(g.n + 2):
            got = _node_scan(closed, undominated, avail, budget)
            exceeds = bound is None or bound > budget
            assert (got is None) == exceeds, (undominated, avail, budget)
            if not exceeds:
                assert got == pivot, (undominated, avail, budget)


@given(relabeled_graphs(0, 16))
def test_gamma_commutes_with_relabeling(case):
    g, perm = case
    h = relabel(g, perm)
    assert gamma_value(h) == gamma_value(g)
    assert independent_domination_number(h).gamma == independent_domination_number(g).gamma

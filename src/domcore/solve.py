"""Exact solvers for domination and independence numbers.

Two searches do the work.  The feasibility search asks whether at most
k picks dominate every vertex.  It branches on the candidate dominators
of the undominated vertex with the fewest of them, and cuts a node when
the packing bound (undominated vertices whose closed neighborhoods
within the available picks are pairwise disjoint, each needing its own
dominator) exceeds the budget.  Given an allowed mask, it picks only
from that mask and each pick w takes N[w] out of it, so the picks stay
independent.  Both the domination number and the independent
domination number are the first budget between the packing bound and a
greedy set (a greedy cover, or a greedy maximal independent set) that
the search accepts.  Without an allowed mask, a vertex outside the
vertex set `full` is never undominated and never picked, so the search
on G's closed masks with v left out of `full` is the search on G - v.

The second search, _minimum_sets, yields every dominating set of a
given size in lexicographic order, cut by the same packing bound taken
over the vertices still available.

Neither search recurses for its last pick.  A vertex w dominates u iff
w is in N[u], so the vertices that dominate all of an undominated set
U are the AND of N[u] over U (_common_dominators).  With one pick left
the feasibility search asks whether that set, taken within the allowed
picks, is nonempty; with two left it tries each candidate w for the
pivot and asks the same of what N[w] leaves (within the allowed picks
minus N[w]).  _minimum_sets yields the chosen set plus each vertex of
that set, in increasing order, which keeps its lexicographic order.

The witness of gamma_exact is the first set of _minimum_sets,
all_minimum_dominating_sets is all of them, core_and_corona
folds them, and independent_domination_number takes the first
independent one; so every witness matches brute-force enumeration
exactly.

All functions are pure: graphs come in, numbers and bitmask sets come
out, and no state survives a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    bits,
    bfs_layers,
    closed_masks,
    is_dominating,
)

BRUTEFORCE_MAX = 30
ALL_SETS_MAX = 24


@dataclass(frozen=True)
class DominationReport:
    """Result bundle: the number, one witness, optionally every witness.

    gamma is the optimum size; witness is a bitmask optimum set (None
    only when a solver computes the value alone); all_sets, when
    present, lists every optimum set in lexicographic order of their
    sorted vertex sequences.
    """

    gamma: int
    witness: int | None
    all_sets: tuple[int, ...] | None = None


def _greedy_cover(closed: list[int], full: int) -> int:
    """Size of a greedy max-coverage dominating set."""
    picked = 0
    dominated = 0
    while dominated != full:
        best_v = -1
        best_gain = 0
        for v in range(len(closed)):
            gain = (closed[v] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        picked += 1
        dominated |= closed[best_v]
    return picked


def _packing_bound(closed: list[int], undominated: int, avail: int) -> int:
    """Lower bound on the picks from `avail` still needed to dominate `undominated`.

    Counts undominated vertices whose closed neighborhoods within
    `avail` are pairwise disjoint: no pick from `avail` dominates two
    of them.  Vertices outside `avail` never count against the bound,
    so masks that still hold a deleted vertex give the same bound as
    masks with it cleared.  Returns MAX_VERTICES + 1, more than any
    budget, when some undominated vertex has no dominator left in
    `avail`.
    """
    count = 0
    blocked = 0
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nb = closed[v] & avail
        if not nb:
            return MAX_VERTICES + 1
        if not nb & blocked:
            count += 1
            blocked |= nb
    return count


def _common_dominators(closed: list[int], undominated: int, avail: int) -> int:
    """Vertices of `avail` that dominate every vertex of `undominated`.

    w dominates u iff w is in N[u], since closed masks are symmetric,
    so this is `avail` ANDed with N[u] over the undominated vertices.
    With nothing undominated it is all of `avail`.
    """
    m = undominated
    while m and avail:
        low = m & -m
        m ^= low
        avail &= closed[low.bit_length() - 1]
    return avail


def _exists_dominating(
    closed: list[int], full: int, budget: int, dominated: int = 0, allowed: int | None = None
) -> bool:
    """True if at most `budget` picks dominate everything.

    With `allowed` given, picks come only from it and each pick w takes
    N[w] out of it, so the picks form an independent set.
    """
    undominated = full & ~dominated
    if not undominated:
        return True
    if budget <= 0:
        return False
    avail = full if allowed is None else allowed
    if budget == 1:
        return bool(_common_dominators(closed, undominated, avail))
    if _packing_bound(closed, undominated, avail) > budget:
        return False
    # pivot: undominated vertex with the fewest allowed candidate dominators
    pivot_candidates = 0
    pivot_count = 65
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        cand = closed[v] & avail
        c = cand.bit_count()
        if c < pivot_count:
            pivot_count = c
            pivot_candidates = cand
            if c == 1:
                break
    if budget == 2:
        # the second pick must dominate whatever the first leaves
        for w in bits(pivot_candidates):
            left = undominated & ~closed[w]
            rest = avail if allowed is None else avail & ~closed[w]
            if not left or _common_dominators(closed, left, rest):
                return True
        return False
    order = sorted(
        bits(pivot_candidates),
        key=lambda w: -(closed[w] & undominated).bit_count(),
    )
    for w in order:
        rest = None if allowed is None else allowed & ~closed[w]
        if _exists_dominating(closed, full, budget - 1, dominated | closed[w], rest):
            return True
    return False


def exists_dominating_within(g: Graph, budget: int) -> bool:
    """Feasibility probe: is there a dominating set of size <= budget?"""
    if budget < 0:
        return g.n == 0
    return _exists_dominating(closed_masks(g), g.full_mask, budget)


def _least_budget(closed: list[int], full: int, upper: int, allowed: int | None = None) -> int:
    """Least budget the feasibility search accepts below `upper`, a greedy set's size."""
    for k in range(_packing_bound(closed, full, full), upper):
        if _exists_dominating(closed, full, k, 0, allowed):
            return k
    return upper


def gamma_value(g: Graph) -> int:
    """Domination number, the least budget between the packing bound and a greedy cover."""
    closed = closed_masks(g)
    full = g.full_mask
    return _least_budget(closed, full, _greedy_cover(closed, full))


def _minimum_sets(
    closed: list[int], full: int, size: int, independent_adj: tuple[int, ...] | None = None
) -> Iterator[int]:
    """Every dominating set of exactly `size` vertices, in lexicographic order.

    Vertex sets compare as their sorted index sequences, matching the
    order itertools.combinations produces.  With independent_adj given,
    only independent sets are yielded.  Complete by construction: a
    branch is cut only when too few vertices are left to pick from or
    the packing bound over the vertices still available exceeds the
    picks left.
    """

    def rec(avail: int, dominated: int, chosen: int, remaining: int) -> Iterator[int]:
        if remaining == 0:
            if dominated == full:
                yield chosen
            return
        if remaining == 1:
            last = _common_dominators(closed, full & ~dominated, avail)
            while last:
                low = last & -last
                last ^= low
                yield chosen | low
            return
        if avail.bit_count() < remaining:
            return
        if _packing_bound(closed, full & ~dominated, avail) > remaining:
            return
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            # later picks come from above w, independent of w if asked
            after = rest & ~independent_adj[w] if independent_adj is not None else rest
            yield from rec(after, dominated | closed[w], chosen | low, remaining - 1)

    return rec(full, 0, 0, size)


def gamma_exact(g: Graph) -> DominationReport:
    """Domination number with the lexicographically smallest witness."""
    value = gamma_value(g)
    return DominationReport(value, next(_minimum_sets(closed_masks(g), g.full_mask, value)))


def gamma_bruteforce(g: Graph) -> DominationReport:
    """Reference solver: test all vertex subsets in increasing size.

    Kept deliberately naive; it is the ground truth the optimized
    solver is checked against.  Sizes above BRUTEFORCE_MAX vertices are
    refused.
    """
    if g.n > BRUTEFORCE_MAX:
        raise GraphError(f"brute force is limited to {BRUTEFORCE_MAX} vertices")
    if g.n == 0:
        return DominationReport(0, 0)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            s = 0
            for v in combo:
                s |= 1 << v
            if is_dominating(g, s):
                return DominationReport(k, s)
    raise AssertionError("the full vertex set always dominates")


def all_minimum_dominating_sets(g: Graph) -> DominationReport:
    """Every minimum dominating set, in lexicographic order."""
    if g.n > ALL_SETS_MAX:
        raise GraphError(f"exhaustive set listing is limited to {ALL_SETS_MAX} vertices")
    value = gamma_value(g)
    found = tuple(_minimum_sets(closed_masks(g), g.full_mask, value))
    return DominationReport(value, found[0], found)


def core_and_corona(g: Graph, gamma: int | None = None) -> tuple[int, int]:
    """Masks (intersection, union) over all minimum dominating sets.

    Folds the minimum-set stream, stopping early once the intersection
    is empty and the union is everything.  gamma, if given, must be
    gamma(g).
    """
    if gamma is None:
        gamma = gamma_value(g)
    full = g.full_mask
    core, corona = full, 0
    for s in _minimum_sets(closed_masks(g), full, gamma):
        core &= s
        corona |= s
        if not core and corona == full:
            break
    return (core, corona)


def independence_number(g: Graph) -> int:
    """Size of a largest independent set."""
    adj = g.adj

    def rec(candidates: int) -> int:
        best = 0
        while candidates:
            # degree-0 candidates always join the set
            low = candidates & -candidates
            v = low.bit_length() - 1
            if adj[v] & candidates:
                break
            best += 1
            candidates ^= low
        if not candidates:
            return best
        pivot = -1
        pivot_deg = -1
        m = candidates
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (adj[v] & candidates).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = v
        bit = 1 << pivot
        with_pivot = 1 + rec(candidates & ~(adj[pivot] | bit))
        without_pivot = rec(candidates ^ bit)
        return best + max(with_pivot, without_pivot)

    return rec(g.full_mask)


def independent_domination_number(g: Graph) -> DominationReport:
    """Minimum size of an independent dominating set, with witness.

    Always well defined: every maximal independent set dominates, so a
    greedy one is the upper end of the budget scan.  The feasibility
    search runs with picks restricted to the vertices still independent
    of earlier picks; its pivot, the undominated vertex with the fewest
    such candidates, keeps it complete, because that vertex's dominator
    must be one of them.
    """
    closed = closed_masks(g)
    full = g.full_mask
    greedy = 0
    free = full
    while free:
        low = free & -free
        greedy |= low
        free &= ~closed[low.bit_length() - 1]
    value = _least_budget(closed, full, greedy.bit_count(), full)
    return DominationReport(value, next(_minimum_sets(closed, full, value, g.adj)))


def gamma_tree(g: Graph) -> DominationReport:
    """Linear-time domination number for forests via dynamic programming.

    Three states per vertex: in the set, out but covered from below, or
    out and waiting for its parent.  Each component is layered from its
    smallest vertex and solved from the deepest layer up: in a tree a
    vertex's children are its neighbors in the next layer.  Rejects
    graphs with cycles.
    """
    INF = g.n + 1
    in_cost = [0] * g.n
    covered = [0] * g.n
    needs = [0] * g.n
    total = 0
    components = 0
    remaining = g.full_mask
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        below = 0
        for layer in reversed(bfs_layers(g, root)):
            for v in bits(layer):
                best_in = 1
                sum_covered = 0
                extra = INF
                for c in bits(g.adj[v] & below):
                    best_in += min(in_cost[c], covered[c], needs[c])
                    base = min(in_cost[c], covered[c])
                    sum_covered += base
                    extra = min(extra, in_cost[c] - base)
                in_cost[v] = best_in
                needs[v] = sum_covered
                covered[v] = sum_covered + extra
            below = layer
            remaining &= ~layer
        total += min(in_cost[root], covered[root])
        components += 1
    # a graph is a forest iff it has n minus its component count edges
    if g.edge_count() != g.n - components:
        raise GraphError("gamma_tree requires a forest")
    return DominationReport(total, None)

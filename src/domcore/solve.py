"""Exact solvers for domination and independence numbers.

Two searches do the work.  The feasibility test asks whether a
dominating set of at most k vertices exists: it branches on the
candidate dominators of the undominated vertex with the fewest of them,
and cuts a node when the packing bound (undominated vertices with
pairwise-disjoint closed neighborhoods, each needing its own dominator)
exceeds the budget.  The domination number is the first budget between
that bound and a greedy cover that the test accepts.

The second search, _minimum_sets, yields every dominating set of a
given size in lexicographic order, cut by the same packing bound taken
over the vertices still available.  The witness of gamma_exact is its
first set, all_minimum_dominating_sets is all of them, core_and_corona
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
    closed_masks,
    connected_components,
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


def _greedy_cover(closed: list[int], full: int) -> list[int]:
    """Greedy max-coverage dominating set; returns the picked vertices."""
    picked = []
    dominated = 0
    while dominated != full:
        best_v = -1
        best_gain = 0
        for v in range(len(closed)):
            gain = (closed[v] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        picked.append(best_v)
        dominated |= closed[best_v]
    return picked


def _packing_bound(closed: list[int], undominated: int, avail: int) -> int:
    """Lower bound on the picks from `avail` still needed to dominate `undominated`.

    Counts undominated vertices with pairwise-disjoint closed
    neighborhoods: no vertex can dominate two of them.  Returns
    MAX_VERTICES + 1, more than any budget, when some undominated vertex
    has no dominator left in `avail`.
    """
    count = 0
    blocked = 0
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        nb = closed[v]
        if not nb & avail:
            return MAX_VERTICES + 1
        if not nb & blocked:
            count += 1
            blocked |= nb
    return count


def _exists_dominating(closed: list[int], full: int, budget: int, dominated: int = 0) -> bool:
    """True if some set of at most `budget` vertices dominates everything."""
    undominated = full & ~dominated
    if not undominated:
        return True
    if budget <= 0:
        return False
    if _packing_bound(closed, undominated, full) > budget:
        return False
    # pivot: undominated vertex with the fewest candidate dominators
    pivot_candidates = 0
    pivot_count = 65
    m = undominated
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        cand = closed[v]
        c = cand.bit_count()
        if c < pivot_count:
            pivot_count = c
            pivot_candidates = cand
            if c == 1:
                break
    order = sorted(
        bits(pivot_candidates),
        key=lambda w: -(closed[w] & undominated).bit_count(),
    )
    for w in order:
        if _exists_dominating(closed, full, budget - 1, dominated | closed[w]):
            return True
    return False


def exists_dominating_within(g: Graph, budget: int) -> bool:
    """Feasibility probe: is there a dominating set of size <= budget?"""
    if budget < 0:
        return g.n == 0
    return _exists_dominating(closed_masks(g), g.full_mask, budget)


def gamma_value(g: Graph) -> int:
    """Domination number, computed by budget probes between two bounds."""
    closed = closed_masks(g)
    full = g.full_mask
    upper = len(_greedy_cover(closed, full))
    lower = _packing_bound(closed, full, full)
    for k in range(lower, upper):
        if _exists_dominating(closed, full, k):
            return k
    return upper


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


def core_and_corona(g: Graph) -> tuple[int, int]:
    """Masks (intersection, union) over all minimum dominating sets.

    Folds the minimum-set stream, stopping early once the intersection
    is empty and the union is everything.
    """
    full = g.full_mask
    core, corona = full, 0
    for s in _minimum_sets(closed_masks(g), full, gamma_value(g)):
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


def _exists_independent_dominating(
    g: Graph, closed: list[int], budget: int, dominated: int, allowed: int
) -> bool:
    full = g.full_mask
    undominated = full & ~dominated
    if not undominated:
        return True
    if budget <= 0:
        return False
    if _packing_bound(closed, undominated, allowed) > budget:
        return False
    low = undominated & -undominated
    v = low.bit_length() - 1
    candidates = closed[v] & allowed
    for w in bits(candidates):
        if _exists_independent_dominating(
            g, closed, budget - 1, dominated | closed[w], allowed & ~closed[w]
        ):
            return True
    return False


def independent_domination_number(g: Graph) -> DominationReport:
    """Minimum size of an independent dominating set, with witness.

    Always well defined: every maximal independent set dominates.  The
    pivot rule (dominate the lowest undominated vertex next) is complete
    because that vertex's dominator must be one of its closed neighbors
    and must stay independent from earlier picks.
    """
    closed = closed_masks(g)
    full = g.full_mask
    # greedy maximal independent set gives an upper bound
    greedy = 0
    free = full
    while free:
        low = free & -free
        v = low.bit_length() - 1
        greedy |= low
        free &= ~closed[v]
    upper = greedy.bit_count()
    lower = _packing_bound(closed, full, full)
    value = upper
    for k in range(lower, upper):
        if _exists_independent_dominating(g, closed, k, 0, full):
            value = k
            break
    return DominationReport(value, next(_minimum_sets(closed, full, value, g.adj)))


def _forest_components(g: Graph) -> list[list[int]] | None:
    """Rooted BFS orders per component, or None if g has a cycle."""
    if g.edge_count() != g.n - len(connected_components(g)):
        return None
    orders = []
    seen = 0
    for root in range(g.n):
        if (seen >> root) & 1:
            continue
        order = [root]
        seen |= 1 << root
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for u in bits(g.adj[v] & ~seen):
                seen |= 1 << u
                order.append(u)
        orders.append(order)
    return orders


def gamma_tree(g: Graph) -> DominationReport:
    """Linear-time domination number for forests via dynamic programming.

    Three states per vertex: in the set, out but covered from below, or
    out and waiting for its parent.  Rejects graphs with cycles.
    """
    orders = _forest_components(g)
    if orders is None:
        raise GraphError("gamma_tree requires a forest")
    if g.n == 0:
        return DominationReport(0, None)
    INF = g.n + 1
    total = 0
    in_cost = [0] * g.n
    covered = [0] * g.n
    needs = [0] * g.n
    for order in orders:
        parent = {order[0]: -1}
        for v in order:
            for u in bits(g.adj[v]):
                if u not in parent:
                    parent[u] = v
        for v in reversed(order):
            children = [u for u in bits(g.adj[v]) if parent.get(u) == v]
            best_in = 1
            sum_covered = 0
            extra = INF
            has_child = bool(children)
            for c in children:
                best_in += min(in_cost[c], covered[c], needs[c])
                base = min(in_cost[c], covered[c])
                sum_covered += base
                extra = min(extra, in_cost[c] - base)
            in_cost[v] = best_in
            needs[v] = sum_covered if has_child else 0
            covered[v] = sum_covered + extra if has_child else INF
        root = order[0]
        total += min(in_cost[root], covered[root])
    return DominationReport(total, None)

"""Exact solvers for domination and independence numbers.

Two searches do the work.  The feasibility search asks whether at most
k picks dominate every vertex.  Each node makes one pass over the
undominated vertices (_node_scan).  The pass counts the packing bound:
undominated vertices whose closed neighborhoods within the vertex set
are pairwise disjoint, each needing its own dominator.  It cuts the
node as soon as that count exceeds the budget or some vertex has no
dominator left.  Otherwise the same pass has found the pivot, the
first undominated vertex with the fewest candidate dominators, and the
node branches on those candidates.  The search has one mode: picks
come from the vertex set `full`.  A probe returns the picks of the
first set it finds, as a mask, or None; the empty mask answers when
nothing is left undominated.  A vertex outside `full` is never
undominated and never picked, so the search on G's closed masks with
v left out of `full` is the search on G - v.

The domination number is found by descent from a greedy cover of size
k: probe budget k - 1, and if the probe finds a set, continue from that
set's size, which may be below k - 1.  The first probe that fails
proves gamma = k, so no budget below gamma - 1 is ever probed (the
improving-incumbent bound of branch and bound).

The second search, _minimum_sets, yields every dominating set of a
given size in lexicographic order, cut by the same pass taken over the
vertices still available.  Given the adjacency masks, it keeps
later picks out of the neighborhoods of earlier ones and yields only
independent dominating sets; this is the only place independence is
written.  The independent domination number is the first size, from
gamma up, at which it yields a set.

Neither search recurses for its last pick.  A vertex w dominates u iff
w is in N[u], so the vertices that dominate all of an undominated set
U are the AND of N[u] over U (_common_dominators).  With one pick left
the feasibility search asks whether that set is nonempty and picks its
lowest vertex; with two left it tries each candidate w for the pivot
and does the same for what N[w] leaves (w alone if nothing is left).
_minimum_sets yields the chosen set plus each vertex of that set, in
increasing order, which keeps its lexicographic order.

The witness of gamma_exact is the first set of _minimum_sets,
all_minimum_dominating_sets is all of them, and
independent_domination_number takes the first independent one; so
every witness matches brute-force enumeration exactly.

core_and_corona needs no order: an intersection and a union come out
the same whichever way the sets arrive.  So it folds them by pivot
branching instead, the rule of the feasibility search.  Every minimum
set holds a dominator of the pivot, and each node tries the pivot's
candidates in increasing order, taking each out of the later
siblings' picks; a set is reached only in the branch of the lowest
candidate it holds, so each is folded exactly once.  With one pick
left the common dominators fold in bulk: the union takes them all,
and the intersection keeps one only when it is alone.

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

    gamma is the optimum size; witness is a bitmask optimum set;
    all_sets, when present, lists every optimum set in lexicographic
    order of their sorted vertex sequences.
    """

    gamma: int
    witness: int
    all_sets: tuple[int, ...] | None = None


def _greedy_cover(closed: list[int], full: int) -> int:
    """Size of a greedy max-coverage dominating set."""
    picked = 0
    undominated = full
    while undominated:
        best = 0
        best_gain = 0
        for nb in closed:
            gain = (nb & undominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = nb
        picked += 1
        undominated &= ~best
    return picked


def _node_scan(closed: list[int], undominated: int, avail: int, budget: int) -> int | None:
    """One pass over `undominated`: the packing bound against `budget`, and the pivot.

    The packing bound counts undominated vertices whose closed
    neighborhoods within `avail` are pairwise disjoint: no pick from
    `avail` dominates two of them, so each needs its own pick.  Vertices
    outside `avail` never count against it, so masks that still hold a
    deleted vertex give the same bound as masks with it cleared.  The
    walk returns None as soon as the count exceeds `budget`, or some
    undominated vertex has no dominator left in `avail`.  Otherwise it
    returns the pivot's candidates: the dominators within `avail` of
    the first undominated vertex with the fewest of them (0 when
    nothing is undominated).
    """
    count = 0
    blocked = 0
    pivot = 0
    fewest = MAX_VERTICES + 1
    m = undominated
    while m:
        low = m & -m
        m ^= low
        nb = closed[low.bit_length() - 1] & avail
        if not nb & blocked:
            # an empty nb is disjoint from everything: no dominator left
            if not nb:
                return None
            count += 1
            if count > budget:
                return None
            blocked |= nb
        c = nb.bit_count()
        if c < fewest:
            fewest = c
            pivot = nb
    return pivot


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


def _exists_dominating(closed: list[int], full: int, budget: int, dominated: int = 0) -> int | None:
    """At most `budget` picks from `full` that dominate what `dominated` leaves of it, or None.

    The picks are the first set the search finds, as a mask; the empty
    mask answers when nothing is left undominated, so callers test the
    result with `is not None`.
    """
    undominated = full & ~dominated
    if not undominated:
        return 0
    if budget <= 0:
        return None
    if budget == 1:
        common = _common_dominators(closed, undominated, full)
        return common & -common if common else None
    pivot_candidates = _node_scan(closed, undominated, full, budget)
    if pivot_candidates is None:
        return None
    if budget == 2:
        # the second pick must dominate whatever the first leaves
        m = pivot_candidates
        while m:
            low = m & -m
            m ^= low
            left = undominated & ~closed[low.bit_length() - 1]
            if not left:
                return low
            common = _common_dominators(closed, left, full)
            if common:
                return low | (common & -common)
        return None
    order = sorted(
        bits(pivot_candidates),
        key=lambda w: -(closed[w] & undominated).bit_count(),
    )
    for w in order:
        picks = _exists_dominating(closed, full, budget - 1, dominated | closed[w])
        if picks is not None:
            return picks | (1 << w)
    return None


def exists_dominating_within(g: Graph, budget: int) -> bool:
    """Feasibility probe: is there a dominating set of size <= budget?"""
    return budget >= 0 and _exists_dominating(closed_masks(g), g.full_mask, budget) is not None


def gamma_value(g: Graph) -> int:
    """Domination number, by descent from a greedy cover.

    Each probe at one below the best size known either fails, and that
    size is gamma, or returns a dominating set that may be smaller still.
    """
    closed = closed_masks(g)
    full = g.full_mask
    k = _greedy_cover(closed, full)
    while k:
        picks = _exists_dominating(closed, full, k - 1)
        if picks is None:
            break
        k = picks.bit_count()
    return k


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
        if _node_scan(closed, full & ~dominated, avail, remaining) is None:
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

    Folds each minimum set exactly once, in no particular order: each
    node branches on the dominators of its pivot, and the later
    siblings no longer offer the ones tried before.  With one pick
    left, the common dominators of what is undominated fold in bulk.
    gamma, if given, must be gamma(g).
    """
    if gamma is None:
        gamma = gamma_value(g)
    closed = closed_masks(g)
    core, corona = g.full_mask, 0

    def rec(undominated: int, avail: int, chosen: int, remaining: int) -> None:
        nonlocal core, corona
        if not undominated:
            # gamma is minimum, so a dominating set has no picks left
            core &= chosen
            corona |= chosen
            return
        if remaining == 1:
            last = _common_dominators(closed, undominated, avail)
            if last:
                corona |= chosen | last
                # the sets chosen | w share w only when it is the one dominator
                core &= chosen | last if last & (last - 1) == 0 else chosen
            return
        cand = _node_scan(closed, undominated, avail, remaining)
        if cand is None:
            return
        while cand:
            low = cand & -cand
            cand ^= low
            rec(undominated & ~closed[low.bit_length() - 1], avail, chosen | low, remaining - 1)
            # a later sibling's sets hold none of the dominators tried before
            avail ^= low

    rec(g.full_mask, g.full_mask, 0, gamma)
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

    The first size k, from gamma up, at which the independent mode of
    _minimum_sets yields a set (no size below gamma has a dominating
    set); that set is the lexicographically smallest independent
    dominating set of size k.  Always well defined: every maximal
    independent set dominates, so the scan stops by k = n.  Each size
    from gamma below the answer is searched in full, so on large sparse
    graphs this costs more than a feasibility scan would; verify, its
    one caller in the package, stops at eight vertices.
    """
    closed = closed_masks(g)
    full = g.full_mask
    for k in range(gamma_value(g), g.n + 1):
        for s in _minimum_sets(closed, full, k, g.adj):
            return DominationReport(k, s)
    raise AssertionError("every maximal independent set dominates")


def gamma_tree(g: Graph) -> int:
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
    return total

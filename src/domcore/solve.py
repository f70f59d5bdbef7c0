"""Exact solvers for domination and independence numbers.

One search does the work: the pivot walk (_pivot_walk), cut by one pass
over the undominated vertices (_node_scan).  The pass counts the
packing bound: undominated vertices whose closed neighborhoods within
the vertices still available are pairwise disjoint, each needing its
own dominator.  It cuts the node as soon as that count exceeds the
picks left or some vertex has no dominator left.  Otherwise the same
pass has found the pivot, the first undominated vertex with the fewest
candidate dominators.

The walk looks for sets of at most k picks that dominate.  Every such
set holds a dominator of the pivot, and each node tries the pivot's
candidates in increasing order, taking each out of the later siblings'
picks, so a set is met only in the branch of the lowest candidate it
holds, and never twice.  A branch ends once nothing is left
undominated, so each dominating set of at most k picks has a subset
the walk meets; at k = gamma the walk meets every minimum set, each
exactly once.  In its independent mode each pick's closed neighborhood
is also taken out of the picks of its descendants; an independent set
that dominates has no proper subset that dominates, so this mode meets
every independent dominating set of at most k picks, each once, and no
other set.  The walk does not recurse for its last pick: a vertex w
dominates u iff w is in N[u], so the vertices that dominate all of an
undominated set U are the AND of N[u] over U (_common_dominators), and
the walk yields the sets `chosen | w` over those w as one family; no
last pick gets a generator of its own.  The walk is a generator, so a
caller stops it by not reading on.

- A feasibility probe (_exists_dominating) stops at the first family
  and answers with its set of lowest last pick, as a mask, or None; the
  empty mask answers when nothing is left undominated.  Picks come from
  the vertex set `full`.  A vertex outside `full` is never undominated
  and never picked, so the probe on G's closed masks with v left out of
  `full` is the probe on G - v.
- The domination number is found by descent from a greedy cover of
  size k: probe budget k - 1, and if the probe finds a set, continue
  from that set's size, which may be below k - 1.  The first probe
  that fails proves gamma = k, so no budget below gamma - 1 is ever
  probed (the improving-incumbent bound of branch and bound).  The
  independent domination number is the first budget, from gamma up, at
  which a probe in the independent mode finds a set.
- The independence number is the size of the largest set the walk
  meets in the independent mode with budget n.  A largest independent
  set is maximal, so it dominates, and it has at most n vertices, so
  the walk meets it.  The sets met are the maximal independent sets,
  each once; a graph has at most 3^(n/3) of them (Moon and Moser,
  1965), and they arrive in families, so the walk yields at most that
  many.
- A witness is fixed one vertex at a time by prefix probes
  (_least_set): each pick is the least vertex above the last one after
  which the walk still finds the remaining picks among the vertices
  above it.  No set of fewer picks dominates, so the witness is the
  lexicographically least optimum set, the first one brute-force
  enumeration finds.
- core_and_corona folds every family at size gamma, in no particular
  order, since an intersection and a union come out the same whichever
  way the sets arrive: the union takes the whole family, and the
  intersection keeps its last pick only when it is alone.
  all_minimum_dominating_sets expands every family and sorts the sets.

All functions are pure: graphs come in, numbers and bitmask sets come
out, and no state survives a call.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .graph import (
    MAX_VERTICES,
    Graph,
    GraphError,
    bits,
    closed_masks,
    component_layers,
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
    for u in bits(undominated):
        nb = closed[u] & avail
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
    With nothing undominated it is all of `avail`.  The AND often
    empties after a few vertices on dense graphs, so the mask is walked
    a byte at a time, never turned into one tuple of all its vertices,
    and the walk stops as soon as the AND is empty.
    """
    base = 0
    while True:
        for u in bits(undominated & 255):
            avail &= closed[base + u]
            if not avail:
                return 0
        undominated >>= 8
        if not undominated:
            return avail
        base += 8


def _pivot_walk(
    closed: list[int],
    undominated: int,
    avail: int,
    chosen: int,
    remaining: int,
    independent: bool = False,
) -> Iterator[tuple[int, int]]:
    """Yield the ways to dominate `undominated` with up to `remaining` picks from `avail`.

    The picks are added to `chosen`, and the sets come in families: a
    pair `(chosen, last)` stands for the sets `chosen | w` over the
    vertices w of `last`, or `chosen` alone when `last` is 0 and nothing
    is left undominated.  Each node branches on its pivot's candidates
    in increasing order and takes each out of `avail` for the later
    siblings, so no set is met twice, and every set that dominates has
    a subset that is met.  When `independent` is set, each pick's closed
    neighborhood is also taken out of `avail` for its descendants, so
    the sets met are independent.  A caller that stops reading stops
    the walk.
    """
    if not undominated:
        yield chosen, 0
        return
    if remaining == 1:
        if last := _common_dominators(closed, undominated, avail):
            yield chosen, last
        return
    cand = _node_scan(closed, undominated, avail, remaining)
    if cand is None:
        return
    for w in bits(cand):
        nb = closed[w]
        below = avail & ~nb if independent else avail
        picked, left = chosen | 1 << w, undominated & ~nb
        # leaves are yielded in place: a generator per leaf made classify-random 5% slower
        if not left:
            yield picked, 0
        elif remaining > 2:
            yield from _pivot_walk(closed, left, below, picked, remaining - 1, independent)
        elif last := _common_dominators(closed, left, below):
            yield picked, last
        # a later sibling's sets hold none of the dominators tried before
        avail ^= 1 << w


def _exists_dominating(closed: list[int], full: int, budget: int, dominated: int = 0) -> int | None:
    """At most `budget` picks from `full` that dominate what `dominated` leaves of it, or None.

    The picks are the first family's set with the lowest last pick, as
    a mask; the empty mask answers when nothing is left undominated, so
    callers test the result with `is not None`.
    """
    undominated = full & ~dominated
    if budget == 1 and undominated:
        # a one-pick probe is a leaf, answered in place as in the walk
        last = _common_dominators(closed, undominated, full)
        return last & -last or None
    for chosen, last in _pivot_walk(closed, undominated, full, 0, budget):
        return chosen | (last & -last)
    return None


def exists_dominating_within(g: Graph, budget: int) -> bool:
    """Feasibility probe: is there a dominating set of size <= budget?"""
    if type(budget) is not int:
        raise GraphError("budget must be an int")
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


def _least_set(closed: list[int], full: int, size: int, independent: bool = False) -> int:
    """The lexicographically least set of `size` picks that the walk meets.

    Sets compare as their sorted index sequences, as
    itertools.combinations orders them.  Each pick is the least vertex v
    above the last for which the walk, in the same mode, finds the picks
    still to make among the vertices it may take after v.  The caller
    passes the least size at which such a set exists, so every step
    finds its pick.
    """
    chosen = dominated = 0
    above = full
    for left in range(size - 1, 0, -1):
        for v in bits(above):
            nb = closed[v]
            after = above >> (v + 1) << (v + 1)
            if independent:
                after &= ~nb
            undominated = full & ~(dominated | nb)
            if next(_pivot_walk(closed, undominated, after, 0, left, independent), None) is not None:
                break
        chosen |= 1 << v
        dominated |= nb
        above = after
    # the last pick is the least vertex left that dominates the rest
    last = _common_dominators(closed, full & ~dominated, above)
    return chosen | (last & -last)


def gamma_exact(g: Graph) -> DominationReport:
    """Domination number with the lexicographically smallest witness."""
    value = gamma_value(g)
    return DominationReport(value, _least_set(closed_masks(g), g.full_mask, value))


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
    full = g.full_mask
    found: list[int] = []
    for chosen, last in _pivot_walk(closed_masks(g), full, full, 0, value):
        found.extend([chosen | (1 << w) for w in bits(last)] if last else [chosen])
    # the walk meets each minimum set once; order them as combinations would
    found.sort(key=bits)
    return DominationReport(value, found[0], tuple(found))


def core_and_corona(g: Graph, gamma: int | None = None) -> tuple[int, int]:
    """Masks (intersection, union) over all minimum dominating sets.

    Folds each family the pivot walk meets at size gamma, in no
    particular order.  gamma, if given, must be gamma(g).
    """
    if gamma is None:
        gamma = gamma_value(g)
    full = g.full_mask
    core, corona = full, 0
    for chosen, last in _pivot_walk(closed_masks(g), full, full, 0, gamma):
        # the sets chosen | w share w only when it is the one dominator
        core &= chosen | last if last & (last - 1) == 0 else chosen
        corona |= chosen | last
    return core, corona


def independence_number(g: Graph) -> int:
    """Size of a largest independent set.

    A largest independent set is maximal, so it dominates: it is one of
    the independent dominating sets the walk's independent mode meets
    with budget n, each once.  The answer is the largest set met.
    """
    full = g.full_mask
    # every set of a family has the same size
    walk = _pivot_walk(closed_masks(g), full, full, 0, g.n, True)
    return max(chosen.bit_count() + (last != 0) for chosen, last in walk)


def independent_domination_number(g: Graph) -> DominationReport:
    """Minimum size of an independent dominating set, with witness.

    The first budget k, from gamma up, at which a probe in the
    independent mode of the walk finds a set (no size below gamma has a
    dominating set); the witness is the lexicographically smallest
    independent dominating set of size k, fixed by prefix probes in the
    same mode.  Always well defined: every maximal independent set
    dominates, so the scan stops by k = n.
    """
    closed = closed_masks(g)
    full = g.full_mask
    for k in range(gamma_value(g), g.n + 1):
        if next(_pivot_walk(closed, full, full, 0, k, True), None) is not None:
            return DominationReport(k, _least_set(closed, full, k, True))
    raise AssertionError("every maximal independent set dominates")


def gamma_tree(g: Graph) -> int:
    """Linear-time domination number for forests, by the leaf-parent greedy
    (Cockayne, Goodman and Hedetniemi, 1975).

    Each component is layered from its smallest vertex and walked from
    the deepest layer up: a vertex that no pick dominates yet picks its
    parent, its one neighbor in the layer above, or itself if it is the
    root.  Siblings share a parent, so a layer's undominated vertices
    are read once, before its picks.  Rejects graphs with cycles.
    """
    picks = dominated = components = 0
    for layers in component_layers(g):
        for depth in range(len(layers) - 1, -1, -1):
            for v in bits(layers[depth] & ~dominated):
                pick = g.adj[v] & layers[depth - 1] if depth else 1 << v
                picks |= pick
                dominated |= pick | g.adj[pick.bit_length() - 1]
        components += 1
    # a graph is a forest iff it has n minus its component count edges
    if g.edge_count() != g.n - components:
        raise GraphError("gamma_tree requires a forest")
    return picks.bit_count()

"""Isomorph-free enumeration of small connected graphs.

Graphs are grown by canonical augmentation: a connected graph on k
vertices is extended by one new vertex joined to every nonempty subset
of the old vertices, and a candidate is kept only when the new vertex
is a legitimate "canonical deletion" point, i.e. it lies in a
label-independent orbit of deletable (non-cut) vertices.  That orbit is
located in stages that only ever consult label-independent data: first
the deletable vertices minimizing a cheap invariant (degree, then the
sorted multiset of neighbor degrees), then, among ties, the vertices
minimizing the vertex-rooted canonical form.  The new vertex itself is
never a cut vertex, because the parent it joins is connected, so
deletability is tested only for its rivals (vertices whose invariant is
below the new vertex's) and ties (equal invariant), with one cut-vertex
pass, and not at all when there are none.  Candidates surviving the
deletion test within one parent can still collide (different subsets,
isomorphic results), so each parent deduplicates its accepted children
by canonical form; acceptance plus per-parent deduplication yields each
isomorphism class exactly once globally.

Two independent counting oracles back the stream: an exhaustive
relabeling closure for small n and an analytic count via permutation
cycle index plus an inverse Euler transform for connected graphs.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, gcd

from .graph import Graph, GraphError, add_vertex, bits, cut_vertices
from .canonical import canonical_form, rooted_canonical_bits

ENUMERATION_MAX = 10
TREE_ENUMERATION_MAX = 16


def _is_canonical_child(g: Graph, new: int) -> bool:
    """Accept g iff the just-added vertex sits in the deletion orbit."""
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    new_deg = deg[new]
    new_nbrs = sorted(deg[u] for u in bits(adj[new]))
    # the cheap invariant is (degree, sorted neighbor degrees); neighbor
    # degrees are only sorted for vertices that tie on degree
    rivals = ties = 0
    for v in range(g.n):
        d = deg[v]
        if d > new_deg or v == new:
            continue
        if d < new_deg:
            rivals |= 1 << v
            continue
        nbrs = sorted(deg[u] for u in bits(adj[v]))
        if nbrs < new_nbrs:
            rivals |= 1 << v
        elif nbrs == new_nbrs:
            ties |= 1 << v
    if not rivals | ties:
        return True
    deletable = ~cut_vertices(g)
    if rivals & deletable:
        return False
    ties &= deletable
    if not ties:
        return True
    new_key = rooted_canonical_bits(g, new)
    for v in bits(ties):
        if rooted_canonical_bits(g, v) < new_key:
            return False
    return True


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs.

    Deterministic: same n, same graphs, same order.  Memory stays
    proportional to the recursion depth times the children of one
    parent, so the stream can be consumed lazily.
    """
    if not 1 <= n <= ENUMERATION_MAX:
        raise GraphError(f"enumeration covers 1..{ENUMERATION_MAX} vertices")

    def level(k: int):
        if k == 1:
            yield Graph(1, (0,))
            return
        for parent in level(k - 1):
            seen: set[bytes] = set()
            for subset in range(1, 1 << (k - 1)):
                child = add_vertex(parent, subset)
                if not _is_canonical_child(child, k - 1):
                    continue
                form = canonical_form(child)
                if form in seen:
                    continue
                seen.add(form)
                yield child

    return level(n)


def enumerate_trees(n: int):
    """Yield one representative per isomorphism class of trees.

    Grown by leaf attachment with global per-level deduplication by
    canonical form; tree counts are small enough to hold a level.
    """
    if not 1 <= n <= TREE_ENUMERATION_MAX:
        raise GraphError(f"tree enumeration covers 1..{TREE_ENUMERATION_MAX} vertices")
    level = [Graph(1, (0,))]
    for k in range(2, n + 1):
        seen: set[bytes] = set()
        nxt = []
        for parent in level:
            for v in range(parent.n):
                child = add_vertex(parent, 1 << v)
                form = canonical_form(child)
                if form not in seen:
                    seen.add(form)
                    nxt.append(child)
        level = nxt
    yield from level


def _partitions(n: int):
    """Yield integer partitions of n as descending tuples."""

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def count_graphs(n: int) -> int:
    """Number of simple graphs on n unlabeled vertices (cycle index count).

    For a permutation with cycle type lambda, the edge orbits number
    sum(floor(l_i / 2)) + sum(gcd(l_i, l_j) over pairs); Burnside's
    lemma averages 2**orbits over the symmetric group.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return 1
    total = 0
    for lam in _partitions(n):
        orbits = sum(part // 2 for part in lam)
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                orbits += gcd(lam[i], lam[j])
        perms = factorial(n)
        for part in lam:
            perms //= part
        counts: dict[int, int] = {}
        for part in lam:
            counts[part] = counts.get(part, 0) + 1
        for c in counts.values():
            perms //= factorial(c)
        total += perms * (1 << orbits)
    assert total % factorial(n) == 0
    return total // factorial(n)


def count_connected_graphs(n: int) -> int:
    """Number of connected graphs on n unlabeled vertices.

    Inverse Euler transform of the all-graphs sequence: if a(n) counts
    all graphs and c(n) connected ones, then
    n*a(n) = sum_{k=1..n} k*c(k) * sum_{d : k | d, d <= n} a(n - d).
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n == 0:
        return 1
    a = [count_graphs(m) for m in range(n + 1)]
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        total = m * a[m]
        for k in range(1, m):
            inner = 0
            d = k
            while d <= m:
                inner += a[m - d]
                d += k
            total -= k * c[k] * inner
        # the k = m term contributes m * c(m) * a(0)
        assert total % m == 0
        c[m] = total // m
    return c[n]


def labeled_connected_bitmap(n: int) -> tuple[bytearray, int]:
    """Bitmap over edge masks marking every connected labeled graph.

    The edge mask's bit for pair (i, j), i < j, sits at that pair's
    position in lexicographic order; the bitmap has 2**C(n,2) slots.
    Exhaustive, so only sensible for n <= 7; this is the enumeration
    completeness oracle.  Returns (bitmap, count of marked masks).
    """
    if n < 1 or n > 7:
        raise GraphError("labeled closure oracle covers 1..7 vertices")
    pairs = list(combinations(range(n), 2))
    total = 1 << len(pairs)
    bitmap = bytearray((total + 7) // 8)
    count = 0
    full = (1 << n) - 1
    for mask in range(total):
        adj = [0] * n
        m = mask
        while m:
            low = m & -m
            idx = low.bit_length() - 1
            m ^= low
            u, v = pairs[idx]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        comp = 1
        frontier = 1
        while frontier:
            nxt = 0
            fm = frontier
            while fm:
                low = fm & -fm
                v = low.bit_length() - 1
                fm ^= low
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        if comp == full:
            bitmap[mask >> 3] |= 1 << (mask & 7)
            count += 1
    return bitmap, count


def relabeling_closure_bitmap(graphs, n: int) -> tuple[bytearray, int]:
    """Bitmap of every labeled copy of every given n-vertex graph."""
    total = 1 << (n * (n - 1) // 2)
    bitmap = bytearray((total + 7) // 8)
    count = 0
    for g in graphs:
        if g.n != n:
            raise GraphError("closure bitmap requires uniform vertex count")
        for mask in relabelings(g):
            byte, bit = mask >> 3, 1 << (mask & 7)
            if not bitmap[byte] & bit:
                bitmap[byte] |= bit
                count += 1
    return bitmap, count


def edge_mask(g: Graph) -> int:
    """Edge bitmask of a graph in the labeled_connected_masks convention."""
    pairs = list(combinations(range(g.n), 2))
    m = 0
    for idx, (u, v) in enumerate(pairs):
        if (g.adj[u] >> v) & 1:
            m |= 1 << idx
    return m


def relabelings(g: Graph):
    """Yield the edge bitmask of every labeled copy of g."""
    from itertools import permutations

    pairs = list(combinations(range(g.n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    edges = list(g.edges())
    for perm in permutations(range(g.n)):
        m = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            m |= 1 << index[(a, b)]
        yield m

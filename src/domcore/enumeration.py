"""Isomorph-free enumeration of small connected graphs and trees.

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
pass, and not at all when there are none.

A tie that is a twin of the new vertex (the same neighbors, each other
aside) needs no rooted form: swapping the two is an automorphism, so
their rooted forms are equal and the twin never rejects the child.
Twins leave the ties after the cut-vertex pass, not before it.  Any
rival needs that pass anyway; only a child with no rival and nothing
but twin ties could skip it, and the benchmark harness's tests
(bench/test_bench.py) read the stream's count of cut-vertex passes, so
the count stays as it is.

Most candidates fail on a rival of lower degree that the parent already
shows, so each parent rejects those subsets before building a child.
The lemma: if u is not a cut vertex of a connected parent P, it is not
a cut vertex of P+S for any nonempty S other than {u}, because P - u is
connected and the new vertex joins it through S minus u.  So, with one
cut-vertex pass over P, a non-cut vertex of P whose child degree
deg_P(u) + [u in S] is below |S| >= 2 is a deletable rival of the new
vertex, and the child would be rejected; _connected_subsets drops them.

Two accepted children P+S and P+S' of one parent are isomorphic exactly
when S' = sigma(S) for an automorphism sigma of P (McKay, "Isomorph-free
exhaustive generation", 1998), and the deletion test gives the same
answer on every subset of one Aut(P)-orbit.  So each parent tries only
the subsets that are the least mask in their orbit, which selects the
same children, in the same order, as keeping the first child of each
isomorphism class would.  The generators of Aut(P) come from the
canonical-form search (canonical.automorphism_generators), once per
parent.  The prefilter is constant on each orbit, so it runs first, and
only the orbits of the subsets it keeps are closed under the
generators; a parent with a trivial group tries every subset it keeps.
Children of different parents are never isomorphic, since deleting the
canonical vertex gives back the parent, so each isomorphism class
appears exactly once globally.  The augmentation is rooted at the null
graph, whose one child is K1.  Since a parent's children depend on
nothing else, map_children evaluates a function on the children of one
order's stream with each parent as the work unit of a process pool, and
a caller that keeps the graphs of order n hands them back as the
parents of order n + 1, one order's output being the next one's input.

Trees share the augmentation, with the one-vertex subsets in place of
the prefiltered ones: a tree plus a leaf is a tree, and the non-cut
vertices of a tree are its leaves, so deleting the canonical vertex of
a tree gives back a tree, and every tree class appears exactly once.

Two independent oracles back the stream.  An analytic count via the
permutation cycle index plus an inverse Euler transform gives the number
of connected graphs.  For n <= 7 an exhaustive labeled check compares
two bitmaps over all 2**C(n,2) edge masks (bit mask & 7 of byte
mask >> 3 marks edge mask `mask`, pairs in lexicographic order): the
connected labeled graphs, and the closure of the stream under vertex
relabeling.  Both are bit-sliced, with one Python int per block of
2**15 consecutive masks: connectivity propagates reachability from
vertex 0 across whole blocks at once, and the closure applies the
adjacent transpositions (k k+1), which generate all relabelings, as
exchanges of index bits until the set stops growing.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import contextmanager
from functools import partial
from itertools import chain, combinations, islice
from math import factorial, gcd, prod

from .graph import Graph, GraphError, add_vertex, bits, cut_vertices
from .canonical import (
    CANONICAL_MAX,
    automorphism_generators,
    canonical_form,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    rooted_canonical_bits,
)

ENUMERATION_MAX = 10
# trees stop where rooted canonical bits do, not where canonical forms do
TREE_ENUMERATION_MAX = CANONICAL_MAX
LABELED_MAX = 7
# parents per task of the pool in map_children: on search_signature(8,
# jobs=2), 2-core VM, 10 alternating pairs against 8 each (median wall),
# 4 lost every pair (0.716 against 0.648 s), and 16 (0.640 against
# 0.647 s) and 32 (0.647 against 0.673 s) won only 7 of 10
_PARENT_CHUNK = 8
# the root of the augmentation tree: its one child is the one-vertex graph
NULL_GRAPH = Graph(0, ())


def _is_canonical_child(g: Graph, new: int) -> bool:
    """Accept g iff the just-added vertex sits in the deletion orbit."""
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    new_deg = deg[new]
    new_nbrs = sorted([deg[u] for u in bits(adj[new])])
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
        nbrs = sorted([deg[u] for u in bits(adj[v])])
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
    # a twin of the new vertex never rejects it: swapping the two is an
    # automorphism, so their rooted forms are equal
    new_adj = adj[new]
    for v in bits(ties):
        if adj[v] & ~(1 << new) == new_adj & ~(1 << v):
            ties ^= 1 << v
    if not ties:
        return True
    new_key = rooted_canonical_bits(g, new)
    for v in bits(ties):
        if rooted_canonical_bits(g, v) < new_key:
            return False
    return True


def _image_table(moved: list[int]) -> list[int]:
    """table[s] is the union of moved[i] over the bits i of s."""
    table = [0]
    for m in moved:
        table += [t | m for t in table]
    return table


def _subset_orbit_minima(k: int, generators, candidates) -> Iterator[int]:
    """The masks of candidates that are the least mask in their orbit
    under the group the permutations of range(k) generate.

    candidates must be increasing and a union of orbits, so the first
    candidate met in an orbit is its least mask.  Each candidate not yet
    seen closes its orbit by applying the generators until nothing new
    appears; masks that are not candidates cost nothing.  An image is
    two table lookups, one per half of the mask's bits.
    """
    half = k // 2
    low_bits = (1 << half) - 1
    tables = [
        (_image_table(moved[:half]), _image_table(moved[half:]))
        for moved in ([1 << w for w in perm] for perm in generators)
    ]
    seen = set()
    for s in candidates:
        if s in seen:
            continue
        seen.add(s)
        frontier = [s]
        while frontier:
            t = frontier.pop()
            for low, high in tables:
                u = low[t & low_bits] | high[t >> half]
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        yield s


def _connected_subsets(parent: Graph):
    """The subsets a connected child of parent may join, in increasing order.

    A subset S with s = |S| >= 2 is dropped without building its child
    when a non-cut vertex u of the parent has deg(u) <= s - 1 outside S
    or deg(u) <= s - 2 inside S: u's child degree is below s and, by
    the lemma in the module docstring, u stays deletable, so
    _is_canonical_child would reject the child.  Degrees and cut
    vertices are Aut(parent)-invariant, so this drops whole orbits and
    runs before the orbits are formed.
    """
    k = parent.n
    # at_most[d]: the parent's non-cut vertices of degree <= d
    at_most = [0] * k
    for v in bits(parent.full_mask & ~cut_vertices(parent)):
        at_most[parent.adj[v].bit_count()] |= 1 << v
    for d in range(1, k):
        at_most[d] |= at_most[d - 1]

    # the new vertex needs a neighbor to keep the child connected, unless
    # it is the first vertex: the null graph's one child is K1
    return [
        subset
        for subset in range(1 if k else 0, 1 << k)
        if (s := subset.bit_count()) < 2
        or not (at_most[s - 1] & ~subset or at_most[s - 2] & subset)
    ]


def _leaf_subsets(parent: Graph):
    """The subsets a tree child of parent joins: one vertex each, in order."""
    return tuple(1 << v for v in range(parent.n)) or (0,)


def _children(parent: Graph, subsets) -> Iterator[Graph]:
    """The accepted children of parent by subsets, which must be increasing
    and a union of Aut(parent)-orbits: only each orbit's least subset is
    tried, as the module docstring explains."""
    k = parent.n
    generators = automorphism_generators(parent)
    if generators:
        subsets = _subset_orbit_minima(k, generators, subsets)
    for subset in subsets:
        child = add_vertex(parent, subset)
        if _is_canonical_child(child, k):
            yield child


def _augment(n: int, subsets_of) -> Iterator[Graph]:
    """The null graph for n = 0, else each parent's accepted children by subsets_of(parent)."""
    if not n:
        yield NULL_GRAPH
        return
    for parent in _augment(n - 1, subsets_of):
        yield from _children(parent, subsets_of(parent))


def enumerate_connected(n: int):
    """Yield one representative per isomorphism class of connected graphs.

    Deterministic: same n, same graphs, same order.  Memory stays
    proportional to the recursion depth times the size of one parent's
    orbit table, so the stream can be consumed lazily.
    """
    if type(n) is not int or not 1 <= n <= ENUMERATION_MAX:
        raise GraphError(f"enumeration covers 1..{ENUMERATION_MAX} vertices")
    return _augment(n, _connected_subsets)


def enumerate_trees(n: int):
    """Yield one representative per isomorphism class of trees, lazily, in a fixed order."""
    if type(n) is not int or not 1 <= n <= TREE_ENUMERATION_MAX:
        raise GraphError(f"tree enumeration covers 1..{TREE_ENUMERATION_MAX} vertices")
    return _augment(n, _leaf_subsets)


@contextmanager
def _ordered_map(jobs: int):
    """Yield an order-preserving map: one process pool of
    min(jobs, os.cpu_count()) workers for the whole block, or the
    builtin map when that is one worker or none.

    The pool takes items in chunks of _PARENT_CHUNK, since its work
    units are parents (see map_children).  Items, results and the
    function are pickled, so the function must be a module-level name
    or a partial of one.  A map keeps at most 2 * workers chunks
    submitted and unread, and draws one chunk ahead of them.  A worker
    that dies raises BrokenProcessPool in the reader, and when the
    block ends, chunks not yet started are cancelled.  A jobs that is
    not an int raises GraphError before any pool is built.
    """
    if type(jobs) is not int:
        raise GraphError("jobs must be an int")
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        yield map
        return
    # imported here: the executor loads multiprocessing, which maps without a pool never need
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers)

    def ordered_map(fn, items):
        items, window = iter(items), deque()
        while chunk := list(islice(items, _PARENT_CHUNK)):
            if len(window) == 2 * workers:
                yield from window.popleft().result()
            window.append(pool.submit(_apply, fn, chunk))
        while window:
            yield from window.popleft().result()

    try:
        yield ordered_map
    finally:
        pool.shutdown(cancel_futures=True)


def _apply(fn, items: list) -> list:
    """fn of every item, in order: one task of the pool in _ordered_map."""
    return [fn(item) for item in items]


def _map_children(fn, parent: Graph) -> list:
    """fn of every accepted connected child of parent, in child order."""
    return [fn(child) for child in _children(parent, _connected_subsets(parent))]


def map_children(ordered_map, fn, parents):
    """Yield fn(g) for every accepted connected child g of parents, in order.

    parents is the stream of order n - 1 in stream order ([NULL_GRAPH]
    for n = 1), so the children are enumerate_connected(n) in stream
    order: a parent's children depend only on the parent.  So parents,
    not graphs, are the work unit: each worker of ordered_map (from
    _ordered_map) builds the children of the parents it is sent and
    applies fn to them there, and only parents and fn's results cross
    between processes.  Results come in parent order, each parent's in
    child order, whatever the map.

    The caller holds the parents.  search_signature and verify_corpus
    keep the graphs that fn sends back for order n as the parents of
    order n + 1, so the main process never enumerates, and holds one
    order's graphs at a time (at most the 261080 of order 9, about
    72 MB, while a search runs order 10).  parents may also be a lazy
    stream, such as enumerate_connected(n - 1), which the main process
    then builds.

    A consumer that stops early may leave evaluated and unread one
    parent's children with the builtin map, or with the pool at most
    2 * workers chunks; chunks not yet started are cancelled.
    """
    return chain.from_iterable(ordered_map(partial(_map_children, fn), parents))


def _partitions(n: int, largest: int):
    """Yield the partitions of n into parts of at most largest, as descending tuples."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def count_graphs(n: int) -> int:
    """Number of simple graphs on n unlabeled vertices (cycle index count).

    For a permutation with cycle type lambda, the edge orbits number
    sum(floor(l_i / 2)) + sum(gcd(l_i, l_j) over pairs); Burnside's
    lemma averages 2**orbits over the symmetric group.  The permutations
    of cycle type lambda number n! / (prod(l_i) * prod(m_l!)), where m_l
    counts the parts equal to l.
    """
    if type(n) is not int or n < 0:
        raise GraphError("vertex count must be a nonnegative int")
    total = 0
    for lam in _partitions(n, n):
        orbits = sum(part // 2 for part in lam) + sum(gcd(a, b) for a, b in combinations(lam, 2))
        perms = factorial(n) // (prod(lam) * prod(map(factorial, Counter(lam).values())))
        total += perms << orbits
    assert total % factorial(n) == 0
    return total // factorial(n)


def count_connected_graphs(n: int) -> int:
    """Number of connected graphs on n unlabeled vertices.

    Inverse Euler transform of the all-graphs sequence: if a(n) counts
    all graphs and c(n) connected ones, then
    n*a(n) = sum_{k=1..n} k*c(k) * sum_{d : k | d, d <= n} a(n - d).
    The empty graph counts as connected, c(0) = 1; no sum reads it.
    """
    if type(n) is not int or n < 0:
        raise GraphError("vertex count must be a nonnegative int")
    a = [count_graphs(m) for m in range(n + 1)]
    c = [1]
    for m in range(1, n + 1):
        # the k = m term contributes m * c(m) * a(0)
        total = m * a[m]
        for k in range(1, m):
            total -= k * c[k] * sum(a[m - d] for d in range(k, m + 1, k))
        assert total % m == 0
        c.append(total // m)
    return c[n]


# the labeled oracles hold a bitmap over edge masks as chunks of
# 2**_CHUNK_BITS bits, one Python int each; index bits below _CHUNK_BITS
# address a bit inside a chunk, the bits above address the chunk
_CHUNK_BITS = 15


def _index_bit_masks(pair_count: int) -> tuple[int, int, list[int]]:
    """(low, ones, present) for bitmap chunks over pair_count index bits.

    A chunk covers the 2**low consecutive edge masks that share their
    index bits from low up, with low = min(pair_count, _CHUNK_BITS);
    ones has all 2**low bits set, and present[i] (i < low) marks the
    masks in a chunk that contain pair index i, a periodic pattern.
    """
    low = min(pair_count, _CHUNK_BITS)
    ones = (1 << (1 << low)) - 1
    # ones // (2**(2**i) + 1) repeats 2**i ones, 2**i zeros, from bit 0
    present = [ones ^ (ones // ((1 << (1 << i)) + 1)) for i in range(low)]
    return low, ones, present


def _chunks_to_bitmap(chunks: list[int], low: int) -> tuple[bytearray, int]:
    """Concatenate the chunks little-endian; bit mask & 7 of byte mask >> 3 is mask."""
    size = ((1 << low) + 7) // 8
    bitmap = bytearray(b"".join(c.to_bytes(size, "little") for c in chunks))
    return bitmap, sum(c.bit_count() for c in chunks)


def labeled_connected_bitmap(n: int) -> tuple[bytearray, int]:
    """Bitmap over edge masks marking every connected labeled graph.

    The edge mask's bit for pair (i, j), i < j, sits at that pair's
    position in lexicographic order; the bitmap has 2**C(n,2) slots, and
    bit mask & 7 of byte mask >> 3 marks edge mask `mask`.  Exhaustive,
    so it covers n <= LABELED_MAX = 7 only; this is the enumeration
    completeness oracle.  Returns (bitmap, count of marked masks).

    Bit-sliced: one int holds a block of 2**15 consecutive masks, one
    bit per mask, so "pair idx is an edge" is a fixed periodic int for
    the 15 low pair indices and all ones or zero for the others.
    reach[v] marks the masks in which v is reachable from vertex 0; it
    grows by reach[u] |= reach[v] & edge over every pair until nothing
    changes, and the connected masks are those where every vertex is
    reached.
    """
    if type(n) is not int or not 1 <= n <= LABELED_MAX:
        raise GraphError(f"labeled closure oracle covers 1..{LABELED_MAX} vertices")
    pairs = list(combinations(range(n), 2))
    low, ones, present = _index_bit_masks(len(pairs))
    chunks = []
    for block in range(1 << (len(pairs) - low)):
        edges = present + [ones if block >> (i - low) & 1 else 0 for i in range(low, len(pairs))]
        reach = [ones] + [0] * (n - 1)
        changed = True
        while changed:
            changed = False
            for (u, v), edge in zip(pairs, edges):
                ru, rv = reach[u], reach[v]
                nu, nv = ru | (rv & edge), rv | (ru & edge)
                if nu != ru or nv != rv:
                    reach[u], reach[v] = nu, nv
                    changed = True
        connected = ones
        for r in reach:
            connected &= r
        chunks.append(connected)
    return _chunks_to_bitmap(chunks, low)


def _exchange_index_bits(chunks: list[int], i: int, j: int, low: int, present: list[int]) -> list[int]:
    """The bitmap with index bits i < j of every mask exchanged."""
    if j < low:
        # delta swap inside each chunk: masks with bit i set and bit j
        # clear trade places with the masks d positions above them
        d = (1 << j) - (1 << i)
        move = present[i] & ~present[j]
        out = []
        for c in chunks:
            t = ((c >> d) ^ c) & move
            out.append(c ^ t ^ (t << d))
        return out
    hi_j = 1 << (j - low)
    if i >= low:
        hi_i = 1 << (i - low)
        out = []
        for q in range(len(chunks)):
            src = q
            if bool(q & hi_i) != bool(q & hi_j):
                src ^= hi_i | hi_j
            out.append(chunks[src])
        return out
    # bit j picks the chunk, bit i a position in it: a mask with bit i
    # set in chunk q (bit j clear) trades with the mask s positions
    # below it in chunk q | hi_j (bit j set, bit i clear)
    s = 1 << i
    keep = present[i]
    out = list(chunks)
    for q in range(len(chunks)):
        if q & hi_j:
            continue
        a, b = chunks[q], chunks[q | hi_j]
        out[q] = (a & ~keep) | ((b & ~keep) << s)
        out[q | hi_j] = (b & keep) | ((a & keep) >> s)
    return out


def relabeling_closure_bitmap(graphs, n: int) -> tuple[bytearray, int]:
    """Bitmap of every labeled copy of every given n-vertex graph.

    Same layout as labeled_connected_bitmap.  Each graph seeds the bit
    of its own edge mask; the set is then closed under the adjacent
    vertex transpositions (k k+1), which generate the symmetric group,
    until its size stops growing.  A transposition permutes the pair
    indices, so on the bitmap it is a product of exchanges of two index
    bits, done on the same 2**15-bit chunks.  Returns (bitmap, count).
    """
    if type(n) is not int or not 1 <= n <= LABELED_MAX:
        raise GraphError(f"labeled closure oracle covers 1..{LABELED_MAX} vertices")
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    low, _, present = _index_bit_masks(len(pairs))
    chunks = [0] * (1 << (len(pairs) - low))
    for g in graphs:
        if g.n != n:
            raise GraphError("closure bitmap requires uniform vertex count")
        mask = 0
        for e in g.edges():
            mask |= 1 << index[e]
        chunks[mask >> low] |= 1 << (mask & ((1 << low) - 1))
    # transposition (k k+1) exchanges pair indices {k, x} < {k+1, x}
    generators = [
        [
            (index[min(k, x), max(k, x)], index[min(k + 1, x), max(k + 1, x)])
            for x in range(n)
            if x not in (k, k + 1)
        ]
        for k in range(n - 1)
    ]
    count = -1
    while True:
        for exchanges in generators:
            image = chunks
            for i, j in exchanges:
                image = _exchange_index_bits(image, i, j, low, present)
            chunks = [c | d for c, d in zip(chunks, image)]
        grown = sum(c.bit_count() for c in chunks)
        if grown == count:
            return _chunks_to_bitmap(chunks, low)
        count = grown

import multiprocessing
import os
import subprocess
import sys
import time
from hashlib import sha256
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from domcore import (
    GraphError,
    build_graph,
    count_connected_graphs,
    count_graphs,
    enumerate_connected,
    enumerate_trees,
    write_graph6,
)
from domcore.canonical import automorphism_generators, canonical_form, rooted_canonical_bits
from domcore.enumeration import (
    ENUMERATION_MAX,
    LABELED_MAX,
    NULL_GRAPH,
    TREE_ENUMERATION_MAX,
    _PARENT_CHUNK,
    _children,
    _connected_subsets,
    _is_canonical_child,
    _leaf_subsets,
    _ordered_map,
    _subset_orbit_minima,
    labeled_connected_bitmap,
    map_children,
    relabeling_closure_bitmap,
)
from domcore.graph import add_vertex, bits, is_connected, mask_of
from domcore.recognize import is_tree
from helpers import (
    STREAM_DIGESTS,
    TREE_COUNTS,
    TREE_STREAM_DIGESTS,
    connected_graphs,
    cut_vertices_bruteforce,
    cycle,
    graphs,
    path,
    relabel,
    relabeled_graphs,
    star,
)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}  # OEIS A001187
# SHA-256 of the bitmap bytes, pinning the layout: bit mask & 7 of byte
# mask >> 3 marks edge mask `mask`, pairs in lexicographic order
LABELED_BITMAP_SHA256 = {
    6: "250e7e349b897872e8ab1b4b38f2154713da9507972ee3b5f13be367adbb6501",
    7: "6980dd66999b7c9aeacc9eab3d1b4c04333900458cca00bc17288321d46936ca",
}

SRC = Path(__file__).resolve().parent.parent / "src"


def test_stream_counts_match_known_sequence():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def test_stream_is_isomorph_free_and_connected():
    for n in range(1, 8):
        seen = set()
        for g in enumerate_connected(n):
            assert g.n == n
            assert is_connected(g)
            form = canonical_form(g)
            assert form not in seen
            seen.add(form)


def test_analytic_counts():
    for n, want in ALL_COUNTS.items():
        assert count_graphs(n) == want
    for n, want in CONNECTED_COUNTS.items():
        assert count_connected_graphs(n) == want
    assert count_connected_graphs(9) == 261080
    assert count_graphs(9) == 274668


def test_tree_counts():
    # the tree stream is isomorph-free by the deletion test alone, with no
    # canonical form to deduplicate it, so these forms must all differ
    for n, want in TREE_COUNTS.items():
        stream = list(enumerate_trees(n))
        assert len(stream) == want
        assert len({canonical_form(t) for t in stream}) == want, n
        for t in stream:
            assert t.n == n and is_tree(t)
        if n in TREE_STREAM_DIGESTS:
            text = "".join(write_graph6(t) + "\n" for t in stream)
            assert sha256(text.encode()).hexdigest() == TREE_STREAM_DIGESTS[n], n


def test_tree_stream_is_lazy():
    # depth first: the first tree of the largest order needs one parent per
    # smaller order, not every tree of every smaller order
    t = next(enumerate_trees(TREE_ENUMERATION_MAX))
    assert t.n == TREE_ENUMERATION_MAX == 16
    assert is_tree(t)


def test_labeled_bitmap_counts():
    for n, want in LABELED_CONNECTED.items():
        bitmap, count = labeled_connected_bitmap(n)
        assert count == want
        if n in LABELED_BITMAP_SHA256:
            assert sha256(bytes(bitmap)).hexdigest() == LABELED_BITMAP_SHA256[n]


def test_relabeling_closure_reaches_every_labeled_graph():
    for n in range(1, 8):
        oracle, oracle_count = labeled_connected_bitmap(n)
        closure, count = relabeling_closure_bitmap(enumerate_connected(n), n)
        assert closure == oracle
        assert count == oracle_count


def _labeled_connected_bitmap_reference(n):
    """One BFS per edge mask, marking the connected ones."""
    pairs = list(combinations(range(n), 2))
    total = 1 << len(pairs)
    bitmap = bytearray((total + 7) // 8)
    count = 0
    for mask in range(total):
        adj = [0] * n
        for idx in bits(mask):
            u, v = pairs[idx]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        comp = frontier = 1
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        if comp == (1 << n) - 1:
            bitmap[mask >> 3] |= 1 << (mask & 7)
            count += 1
    return bitmap, count


def _relabelings(g):
    """Yield the edge mask of every labeled copy of g, one per permutation."""
    index = {pair: i for i, pair in enumerate(combinations(range(g.n), 2))}
    edges = list(g.edges())
    for perm in permutations(range(g.n)):
        m = 0
        for u, v in edges:
            a, b = sorted((perm[u], perm[v]))
            m |= 1 << index[(a, b)]
        yield m


def _relabeling_closure_bitmap_reference(gs, n):
    """Every relabeling of every graph, one permutation at a time."""
    bitmap = bytearray(((1 << (n * (n - 1) // 2)) + 7) // 8)
    count = 0
    for g in gs:
        assert g.n == n
        for mask in _relabelings(g):
            byte, bit = mask >> 3, 1 << (mask & 7)
            if not bitmap[byte] & bit:
                bitmap[byte] |= bit
                count += 1
    return bitmap, count


def test_labeled_oracles_match_references():
    for n in range(1, 7):
        assert labeled_connected_bitmap(n) == _labeled_connected_bitmap_reference(n)
        stream = list(enumerate_connected(n))
        closure = relabeling_closure_bitmap(stream, n)
        assert closure == _relabeling_closure_bitmap_reference(stream, n)


@st.composite
def _same_order_graph_lists(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(graphs(n, n), max_size=4))


@given(_same_order_graph_lists())
@example((5, []))
@example((4, [build_graph(4, [])] * 2))
@example((6, [build_graph(6, [(0, 1), (2, 3)]), build_graph(6, [(0, 1), (2, 3)]), build_graph(6, [(4, 5)])]))
@example((3, [build_graph(3, [(0, 2)])]))
def test_relabeling_closure_matches_reference_on_random_lists(case):
    # any graphs of one order, disconnected, edgeless, repeated or none
    n, gs = case
    assert relabeling_closure_bitmap(gs, n) == _relabeling_closure_bitmap_reference(gs, n)


def test_labeled_oracle_errors():
    for n in (0, LABELED_MAX + 1):
        with pytest.raises(GraphError):
            labeled_connected_bitmap(n)
    with pytest.raises(GraphError):
        relabeling_closure_bitmap([build_graph(3, []), build_graph(4, [])], 3)
    with pytest.raises(GraphError):
        relabeling_closure_bitmap(iter([build_graph(4, [(0, 1)])]), 3)


def _after(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def test_ordered_map_keeps_order():
    # in chunks of 8 the first chunk finishes last, and the last is short
    delays = [0.3] + [0.0] * 16
    for jobs in (1, 2):
        with _ordered_map(jobs) as ordered_map:
            assert list(ordered_map(_after, delays)) == delays
            assert list(ordered_map(abs, range(-5, 0))) == [5, 4, 3, 2, 1]
            assert list(ordered_map(abs, [])) == []


def test_ordered_map_draws_one_window_and_stops_its_workers(monkeypatch):
    # a consumer that reads one result of an endless input draws at most
    # the window and one chunk ahead, and the block's exit stops the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    drawn = []

    def endless():
        while True:
            drawn.append(None)
            yield -1

    with _ordered_map(2) as ordered_map:
        assert next(ordered_map(abs, endless())) == 1
    assert len(drawn) <= (2 * 2 + 1) * _PARENT_CHUNK
    assert multiprocessing.active_children() == []


def test_ordered_map_raises_when_a_worker_dies():
    # a worker killed mid-task must end the map with an error, not hang it
    code = (
        "import os\n"
        "from domcore.enumeration import _ordered_map\n"
        "os.cpu_count = lambda: 2\n"
        "with _ordered_map(2) as ordered_map:\n"
        "    list(ordered_map(os._exit, [3] * 16))\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "BrokenProcessPool" in proc.stderr


def test_ordered_map_never_exceeds_cpu_count(monkeypatch):
    started = []

    def no_pool(workers):
        started.append(workers)
        raise RuntimeError("no process may start in this test")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with _ordered_map(100000) as ordered_map:
            assert ordered_map is map
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(RuntimeError):
        with _ordered_map(100000):
            pass
    assert started == [4]


def test_map_children_follows_the_stream():
    # the digests pin the streams of n = 7 and 8, so those are not rebuilt
    streams = {n: [write_graph6(g) for g in enumerate_connected(n)] for n in range(1, 7)}
    for jobs in (1, 2):
        with _ordered_map(jobs) as ordered_map:
            for n in range(1, 9):
                got = list(map_children(ordered_map, write_graph6, n))
                if n in STREAM_DIGESTS:
                    text = "".join(line + "\n" for line in got)
                    assert sha256(text.encode()).hexdigest() == STREAM_DIGESTS[n], (jobs, n)
                else:
                    assert got == streams[n], (jobs, n)


def test_map_children_bounds():
    # the order is checked when the call is made, before any parent is drawn
    for n in (0, ENUMERATION_MAX + 1):
        with pytest.raises(GraphError):
            map_children(map, write_graph6, n)


def test_enumeration_bounds():
    with pytest.raises(GraphError):
        list(enumerate_connected(ENUMERATION_MAX + 1))
    with pytest.raises(GraphError):
        list(enumerate_trees(TREE_ENUMERATION_MAX + 1))
    with pytest.raises(GraphError):
        list(enumerate_connected(0))
    # like enumerate_connected, the tree stream checks its order when called
    for n in (0, TREE_ENUMERATION_MAX + 1):
        with pytest.raises(GraphError):
            enumerate_trees(n)


def _cheap_invariant(g, v):
    degs = sorted(g.adj[u].bit_count() for u in bits(g.adj[v]))
    return (g.adj[v].bit_count(), tuple(degs))


def _is_canonical_child_reference(g, new):
    """The deletion test written plainly: every deletable vertex, every invariant."""
    deletable = g.full_mask & ~cut_vertices_bruteforce(g)
    new_inv = _cheap_invariant(g, new)
    ties = 0
    for v in bits(deletable):
        if v == new:
            continue
        inv = _cheap_invariant(g, v)
        if inv < new_inv:
            return False
        if inv == new_inv:
            ties |= 1 << v
    new_key = rooted_canonical_bits(g, new)
    return all(rooted_canonical_bits(g, v) >= new_key for v in bits(ties))


def test_deletion_test_matches_reference(corpus6):
    candidates = 0
    for k, parent in corpus6:
        for subset in range(1, 1 << k):
            child = add_vertex(parent, subset)
            assert _is_canonical_child(child, k) == _is_canonical_child_reference(child, k)
            candidates += 1
    assert candidates == 7815


# a cut vertex of degree 2 bridging two K4s: the one rival of every
# degree-3 vertex, which must not count against it
TWO_K4_BRIDGED = build_graph(
    9,
    [*combinations(range(4), 2), *combinations(range(4, 8), 2), (3, 8), (8, 4)],
)
# the cut vertex 4 ties with vertices 8 and 9 on the cheap invariant and
# has a smaller rooted form than either, which must not count against them
CUT_VERTEX_TIE = build_graph(
    10,
    [(0, 1), (0, 2), (0, 5), (0, 7), (1, 2), (1, 3), (1, 5), (1, 7), (3, 4), (4, 6), (6, 8), (6, 9), (8, 9)],
)


@given(connected_graphs(min_n=2, max_n=12))
@example(TWO_K4_BRIDGED)
@example(CUT_VERTEX_TIE)
def test_deletion_test_matches_reference_on_random_graphs(g):
    # any non-cut vertex can play the new vertex
    for new in bits(g.full_mask & ~cut_vertices_bruteforce(g)):
        assert _is_canonical_child(g, new) == _is_canonical_child_reference(g, new)


@pytest.mark.parametrize(
    "g, rooted_calls",
    [
        (path(3), 0),  # the other end is the new vertex's twin, its only tie
        (path(4), 2),  # the other end ties and is no twin: new's form and its own
        (cycle(4), 3),  # vertex 1 is the twin, vertices 0 and 2 tie and are not
    ],
    ids=["P3", "P4", "C4"],
)
def test_twin_ties_need_no_rooted_form(g, rooted_calls, monkeypatch):
    # the new vertex is the last one; swapping it with a twin is an
    # automorphism, so a twin's rooted form is never computed
    calls = []
    monkeypatch.setattr(
        "domcore.enumeration.rooted_canonical_bits",
        lambda g, v: calls.append(v) or rooted_canonical_bits(g, v),
    )
    new = g.n - 1
    assert _is_canonical_child(g, new)
    assert len(calls) == rooted_calls
    assert _is_canonical_child_reference(g, new)


@given(connected_graphs(min_n=2, max_n=10))
def test_parent_non_cut_vertices_stay_non_cut(parent):
    # the lemma behind _children's prefilter: joining a new vertex to S
    # makes no non-cut vertex u of a connected parent a cut vertex,
    # unless S = {u}
    non_cut = parent.full_mask & ~cut_vertices_bruteforce(parent)
    for subset in range(1, 1 << parent.n):
        kept = non_cut & ~subset if subset.bit_count() == 1 else non_cut
        assert not kept & cut_vertices_bruteforce(add_vertex(parent, subset)), subset


def _record_built_subsets(monkeypatch) -> list:
    """The subsets enumeration joins a new vertex to, in call order."""
    built = []
    monkeypatch.setattr(
        "domcore.enumeration.add_vertex",
        lambda g, subset: built.append(subset) or add_vertex(g, subset),
    )
    return built


def test_prefilter_drops_only_rejected_children(corpus6, monkeypatch):
    # with a trivial group _children tries every subset it is given, so the
    # subsets it never builds a child for are the ones the prefilter dropped
    monkeypatch.setattr("domcore.enumeration.automorphism_generators", lambda g: ())
    built = _record_built_subsets(monkeypatch)
    candidates = dropped = 0
    for k, parent in corpus6:
        built.clear()
        list(_children(parent, _connected_subsets(parent)))
        for subset in set(range(1, 1 << k)) - set(built):
            assert not _is_canonical_child(add_vertex(parent, subset), k), (parent, subset)
            dropped += 1
        candidates += (1 << k) - 1
    assert (candidates, dropped) == (7815, 5019)


def test_prefilter_builds_fewer_children(monkeypatch):
    # a count, not a timing: a change that disables the prefilter builds
    # all 71301 orbit-minimal children of enumerate_connected(8) again
    built = _record_built_subsets(monkeypatch)
    assert sum(1 for _ in enumerate_connected(8)) == 11117
    assert len(built) == 18312


def _children_reference(parent, subsets):
    """Every given subset in order, deletion test, then per-parent
    deduplication by canonical form: the first child of each isomorphism
    class stays."""
    seen = set()
    for subset in subsets:
        child = add_vertex(parent, subset)
        if _is_canonical_child(child, parent.n):
            form = canonical_form(child)
            if form not in seen:
                seen.add(form)
                yield child


def _enumerate_connected_reference(n):
    if n == 1:
        yield build_graph(1, [])
        return
    for parent in _enumerate_connected_reference(n - 1):
        yield from _children_reference(parent, range(1, 1 << parent.n))


def test_stream_matches_per_parent_deduplication():
    for n in range(1, 9):
        assert list(enumerate_connected(n)) == list(_enumerate_connected_reference(n)), n


# the cut vertex 4 has degree 2 and stays a cut vertex when the new
# vertex joins the triangle {5, 6, 7}: a vertex of low degree that is no
# deletable rival, so the prefilter in _children must keep that child
K4_PATH_TRIANGLE = build_graph(8, [*combinations(range(4), 2), (0, 4), (4, 5), (5, 6), (5, 7), (6, 7)])


@given(connected_graphs(min_n=1, max_n=7))
@example(cycle(7))  # the group comes from leaves of equal value
@example(K4_PATH_TRIANGLE)
@example(star(6))  # the group comes from cell transpositions
def test_orbit_reduced_children_match_reference(parent):
    # any parent, not only the canonical representatives of the stream
    got = list(_children(parent, _connected_subsets(parent)))
    assert got == list(_children_reference(parent, range(1, 1 << parent.n)))


def test_leaf_children_match_reference():
    # one leaf per child: every tree with at most 10 vertices, and the null graph
    parents = [NULL_GRAPH, *(t for n in range(1, 11) for t in enumerate_trees(n))]
    for parent in parents:
        leaves = [1 << v for v in range(parent.n)] or [0]
        assert list(_children(parent, _leaf_subsets(parent))) == list(_children_reference(parent, leaves))


def _fits(g, image, w):
    """Whether the partial map image (vertex i -> image[i]) extends by
    sending the next vertex to w without breaking an adjacency."""
    v = len(image)
    return (
        w not in image
        and g.adj[w].bit_count() == g.adj[v].bit_count()
        and all(g.has_edge(u, v) == g.has_edge(image[u], w) for u in range(v))
    )


def _extend_automorphism(g, image):
    """One automorphism of g that starts with the partial map image, or
    None: plain backtracking, no refinement, no canonical forms."""
    if len(image) == g.n:
        return tuple(image)
    for w in range(g.n):
        if _fits(g, image, w):
            found = _extend_automorphism(g, image + [w])
            if found is not None:
                return found
    return None


def _subset_orbit_minima_bruteforce(g):
    """Orbit minima under a transversal generating set found by backtracking.

    For each i and each w, one automorphism fixing 0..i-1 and sending i
    to w, if any; these generate the group.  Subsets are scanned in
    increasing order, and each one not yet reached starts a new orbit,
    which is closed by applying the generators until nothing new appears.
    """
    generators = [
        p
        for i in range(g.n)
        for w in range(g.n)
        if _fits(g, list(range(i)), w)
        and (p := _extend_automorphism(g, list(range(i)) + [w])) is not None
    ]
    done = set()
    minima = []
    for s in range(1, 1 << g.n):
        if s in done:
            continue
        minima.append(s)
        done.add(s)
        frontier = [s]
        while frontier:
            t = frontier.pop()
            for p in generators:
                u = mask_of(p[v] for v in bits(t))
                if u not in done:
                    done.add(u)
                    frontier.append(u)
    return minima


@given(relabeled_graphs(1, 9))
@example((build_graph(9, []), tuple(range(9))))  # the full symmetric group
@example((build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), tuple(range(7, -1, -1))))
def test_subset_orbit_minima_match_bruteforce(case):
    g, perm = case
    for h in (g, relabel(g, perm)):
        want = _subset_orbit_minima_bruteforce(h)
        generators = automorphism_generators(h)
        every = range(1, 1 << h.n)
        assert list(_subset_orbit_minima(h.n, generators, every)) == want
        # candidates that are a union of orbits, as the prefilter keeps
        odd = [s for s in every if s.bit_count() % 2]
        got = list(_subset_orbit_minima(h.n, generators, iter(odd)))
        assert got == [s for s in want if s.bit_count() % 2]

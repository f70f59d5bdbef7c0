import hashlib
import random
from itertools import permutations

import pytest

from domcore import Graph, GraphError, build_graph, enumerate_connected, enumerate_trees
from domcore.canonical import (
    CANONICAL_MAX,
    automorphism_generators,
    canonical_form,
    rooted_canonical_bits,
)
from helpers import complete, cycle, path, petersen, relabel, star

# SHA-256 over one line per graph; see test_canonical_outputs_pinned
CANONICAL_PIN = "d1cd6e5be011fd755aeb2d41f3ad08f74c7a107f59aa7ea94e64152abb233737"


def _brute_min_form(g: Graph) -> tuple:
    best = None
    for perm in permutations(range(g.n)):
        inv = [0] * g.n
        for old, new in enumerate(perm):
            inv[new] = old
        form = tuple(
            1 if g.has_edge(inv[i], inv[j]) else 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or form < best:
            best = form
    return best


def test_invariance_under_relabeling():
    rng = random.Random(7)
    for g in (path(6), cycle(7), star(5), petersen(), complete(4)):
        base = canonical_form(g)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base


def test_distinguishes_nonisomorphic():
    assert canonical_form(path(4)) != canonical_form(star(3))
    assert canonical_form(cycle(6)) != canonical_form(
        build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    )


def test_matches_bruteforce_partition(corpus6):
    """Two graphs share a canonical form exactly when the brute-force
    minimum over all relabelings coincides."""
    by_canon = {}
    by_brute = {}
    for idx, (n, g) in enumerate(corpus6):
        by_canon.setdefault((n, canonical_form(g)), set()).add(idx)
        by_brute.setdefault((n, _brute_min_form(g)), set()).add(idx)
    assert sorted(by_canon.values(), key=min) == sorted(
        by_brute.values(), key=min
    )


def test_rooted_form_separates_orbits():
    g = path(4)
    end = rooted_canonical_bits(g, 0)
    mid = rooted_canonical_bits(g, 1)
    assert end != mid
    assert rooted_canonical_bits(g, 3) == end
    assert rooted_canonical_bits(g, 2) == mid


def _generated_group(n: int, generators) -> set[tuple[int, ...]]:
    """Every product of the generators, as permutation tuples."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in generators:
                r = tuple(q[p[v]] for v in range(n))
                if r not in group:
                    group.add(r)
                    nxt.append(r)
        frontier = nxt
    return group


def _automorphisms_bruteforce(g: Graph) -> set[tuple[int, ...]]:
    edges = set(g.edges())
    return {
        perm
        for perm in permutations(range(g.n))
        if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges)
    }


def test_generators_generate_the_automorphism_group(corpus6):
    # every connected graph on at most six vertices; the edgeless and
    # complete graphs exercise the cell transpositions of unbranched leaves
    extra = [(n, build_graph(n, [])) for n in range(7)] + [(5, complete(5)), (8, star(7))]
    for n, g in corpus6 + extra:
        generators = automorphism_generators(g)
        group = _automorphisms_bruteforce(g)
        assert all(sorted(p) == list(range(n)) for p in generators)
        assert _generated_group(n, generators) == group
        # no generators exactly when the group is trivial
        assert bool(generators) == (len(group) > 1)


def test_generators_are_automorphisms(corpus7):
    # cheaper than the whole group, so it reaches one order further
    for n, g in corpus7:
        edges = set(g.edges())
        for p in automorphism_generators(g):
            assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges


def test_capacity_guard():
    big = build_graph(CANONICAL_MAX + 1, [(0, 1)])
    with pytest.raises(GraphError):
        canonical_form(big)
    with pytest.raises(GraphError):
        automorphism_generators(big)
    with pytest.raises(GraphError):
        rooted_canonical_bits(big, 0)
    with pytest.raises(GraphError, match="not an int"):
        rooted_canonical_bits(path(3), 1.0)


def test_canonical_outputs_pinned():
    # the stream digests fix only which children are accepted; this also
    # fixes the generator lists, the forms and the rooted bits themselves
    graphs = [Graph(0, ())]
    for n in range(1, 8):
        graphs += enumerate_connected(n)
    for n in range(1, 11):
        graphs += enumerate_trees(n)
    assert len(graphs) == 1198
    digest = hashlib.sha256()
    for g in graphs:
        line = repr(
            (
                automorphism_generators(g),
                canonical_form(g),
                [rooted_canonical_bits(g, v) for v in range(g.n)],
            )
        )
        digest.update((line + "\n").encode())
    assert digest.hexdigest() == CANONICAL_PIN

"""Graph class recognizers and induced-pattern search.

The pattern catalog holds the small named graphs used as forbidden
induced subgraphs (claw, diamond, paw, bull, net, short paths and
cycles).  Induced containment is a backtracking embedding over bitmask
candidate sets: a partial map constrains the next image to be adjacent
to the images of mapped pattern-neighbors and non-adjacent to the rest,
so dead branches die on a couple of AND operations.

The search also breaks the pattern's symmetry (Grochow and Kellis,
"Network motif discovery using subgraph enumeration and
symmetry-breaking", RECOMB 2007).  Each pattern has one search plan,
built in one pass on the pattern's first use, not at import: the
embedding order, Aut(h) by brute force over the pattern's permutations,
and a stabilizer chain along the order, which gives conditions
image(a) < image(b).  Of the |Aut(h)| embeddings onto one induced copy,
exactly one meets them all, so each induced copy is found once instead
of |Aut(h)| times.  The plan is one row per level of the order, and
each condition is one mask cut on that level's candidates.

catalog_contains answers every catalog pattern in one pass.  Induced
containment is monotone: an induced copy of P6 holds an induced P5, so
a graph without an induced P5 has no P6, P7, C6 or C7 either.  The pass
searches a pattern only after the catalog patterns induced in it, and
only if all of them were found; otherwise it answers False without a
search.  Absent patterns are the costly searches, since they explore
every embedding.  The table _SUB_PATTERNS lists, for each pattern, the
catalog patterns induced in it that no other listed one already implies:
bull > {paw, P4}, net > {bull}, P5 > {P4}, P6 > {P5}, P7 > {P6},
C5 > {P4}, C6 > {P5}, C7 > {P6}.  claw, diamond, paw, P4 and C4 hold no
other catalog pattern.

A graph is chordal iff deleting simplicial vertices (those whose
neighbors are pairwise adjacent) one at a time empties it (Dirac 1961;
Fulkerson and Gross, "Incidence matrices and interval graphs", 1965):
every induced subgraph of a chordal graph is chordal and has a
simplicial vertex, and no vertex of a chordless cycle is simplicial.

A graph is bipartite iff no edge lies inside one of the breadth-first
layers of a component (graph.component_layers).

The twin clique partition groups, for a chosen root, the remaining
vertices by exact closed-neighborhood equality; each group induces a
clique, the root stays a singleton, and contracting every part to a
point gives the reduced graph used to transfer domination facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

from .graph import Graph, GraphError, _derived, bits, build_graph, component_layers, connected_components, mask_of

_PATTERN_EDGES: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "diamond": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (0, 3)]),
    "bull": (5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
    "net": (6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "P6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    "P7": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "C6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
    "C7": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]),
}

# Catalog patterns induced in each pattern; the other ones induced in it
# follow by chains.  A graph without one of them has no copy of the
# pattern.  The table is written out, since deriving it would build
# search plans at import; tests/test_recognize.py checks that it is
# sound and that every catalog containment follows from it.
_SUB_PATTERNS: dict[str, tuple[str, ...]] = {
    "bull": ("paw", "P4"),
    "net": ("bull",),
    "P5": ("P4",),
    "P6": ("P5",),
    "P7": ("P6",),
    "C5": ("P4",),
    "C6": ("P5",),
    "C7": ("P6",),
}

PATTERNS: dict[str, Graph] = {
    name: build_graph(n, edges) for name, (n, edges) in _PATTERN_EDGES.items()
}


@cache
def _search_plan(pattern: str) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Per level i of the embedding order: the pattern degree of its
    vertex, the earlier levels it is adjacent to, those it is not
    adjacent to, and those whose images its image must exceed.

    The order starts at a vertex of largest degree; each next vertex has
    the most placed neighbors, ties by degree.  Along it runs the
    stabilizer chain: the image of the vertex a at level i must lie below
    the image of every other vertex in a's orbit under the automorphisms
    that fix all earlier levels, and the group shrinks to a's stabilizer.
    The placed vertices are fixed, so each such vertex gets a later level.
    """
    h = PATTERNS[pattern]
    adj = h.adj
    # Aut(h) by brute force: every permutation p with p(N(v)) = N(p(v))
    group = [
        p
        for p in permutations(range(h.n))
        if all(adj[p[v]] == mask_of(p[u] for u in bits(adj[v])) for v in range(h.n))
    ]
    order: list[int] = []
    placed = 0
    above = [0] * h.n  # bit i of above[v]: v is in the orbit of level i's vertex
    for i in range(h.n):
        a = max(
            (v for v in range(h.n) if not (placed >> v) & 1),
            key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count()),
        )
        for p in group:
            above[p[a]] |= 1 << i
        group = [p for p in group if p[a] == a]
        order.append(a)
        placed |= 1 << a
    return tuple(
        (
            adj[v].bit_count(),
            tuple(j for j in range(i) if (adj[v] >> order[j]) & 1),
            tuple(j for j in range(i) if not (adj[v] >> order[j]) & 1),
            bits(above[v] & ((1 << i) - 1)),
        )
        for i, v in enumerate(order)
    )


def contains_induced(g: Graph, pattern: str) -> bool:
    """True if g has an induced subgraph isomorphic to the named pattern."""
    if type(pattern) is not str or pattern not in PATTERNS:
        raise GraphError(f"unknown pattern {pattern!r}")
    k = PATTERNS[pattern].n
    if k > g.n:
        return False
    plan = _search_plan(pattern)
    adj = g.adj
    images = [0] * k
    full = g.full_mask

    def rec(i: int, used: int) -> bool:
        if i == k:
            return True
        need, adjacent, apart, above = plan[i]
        cand = full & ~used
        for j in adjacent:
            cand &= adj[images[j]]
        for j in apart:
            cand &= ~adj[images[j]]
        for j in above:
            # only the bits above images[j]
            cand &= -(2 << images[j])
        for w in bits(cand):
            if adj[w].bit_count() < need:
                continue
            images[i] = w
            if rec(i + 1, used | 1 << w):
                return True
        return False

    return rec(0, 0)


def catalog_contains(g: Graph) -> dict[str, bool]:
    """contains_induced(g, name) for every catalog pattern, in PATTERNS order.

    A pattern is searched only after its sub-patterns (_SUB_PATTERNS),
    and only if g contains all of them; otherwise its answer is False.
    """
    found: dict[str, bool] = {}
    return {name: _contains_gated(g, name, found) for name in PATTERNS}


def _contains_gated(g: Graph, name: str, found: dict[str, bool]) -> bool:
    """found[name], searched first if missing, after name's sub-patterns."""
    if name not in found:
        subs = _SUB_PATTERNS.get(name, ())
        found[name] = all(_contains_gated(g, sub, found) for sub in subs) and contains_induced(g, name)
    return found[name]


def is_claw_free(g: Graph) -> bool:
    """No induced star on three leaves."""
    return not contains_induced(g, "claw")


def is_cograph(g: Graph) -> bool:
    """No induced path on four vertices."""
    return not contains_induced(g, "P4")


def is_bipartite(g: Graph) -> bool:
    """No edge inside any breadth-first layer of any component.

    Adjacent layers alternate colors; an edge inside a layer closes an
    odd cycle.
    """
    adj = g.adj
    for layers in component_layers(g):
        for layer in layers:
            for v in bits(layer):
                if adj[v] & layer:
                    return False
    return True


def is_tree(g: Graph) -> bool:
    """Connected and acyclic; the empty graph does not count."""
    return g.n >= 1 and g.edge_count() == g.n - 1 and len(connected_components(g)) == 1


def is_chordal(g: Graph) -> bool:
    """Every cycle of length at least four has a chord.

    While vertices are left, deletes the first one whose remaining
    neighbors are pairwise adjacent; g is chordal iff that empties it.
    """
    adj = g.adj
    left = g.full_mask
    while left:
        for v in bits(left):
            nbrs = adj[v] & left
            # u itself is the one neighbor in nbrs that adj[u] lacks
            if all(nbrs & ~adj[u] == 1 << u for u in bits(nbrs)):
                left ^= 1 << v
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class TwinCliquePartition:
    """Vertex partition around a root: the root alone, then twin cliques.

    cliques[0] is the root singleton; every later part collects vertices
    sharing one closed neighborhood (hence pairwise adjacent).  reduced
    is the graph on the parts, adjacent when their members are.
    """

    root: int
    cliques: tuple[int, ...]
    reduced: Graph


def twin_clique_partition(g: Graph, root: int) -> TwinCliquePartition:
    g._check_vertex(root)
    groups: dict[int, int] = {}
    for v in bits(g.full_mask ^ 1 << root):
        key = g.adj[v] | (1 << v)
        groups[key] = groups.get(key, 0) | (1 << v)
    # v ascends, so the groups come in order of their least member
    cliques = (1 << root, *groups.values())
    part = {(c & -c).bit_length() - 1: j for j, c in enumerate(cliques)}
    reps = mask_of(part)
    # the subgraph g induces on the representatives, relabeled by part:
    # well formed whenever g is (see graph._derived)
    adj = tuple(mask_of(part[u] for u in bits(g.adj[rep] & reps)) for rep in part)
    return TwinCliquePartition(root, cliques, _derived(len(part), adj))


def class_flags(g: Graph) -> dict:
    """Recognition summary of g as a JSON-ready dict.

    contains maps each catalog pattern name, in PATTERNS order, to
    whether g contains it as an induced subgraph (catalog_contains).
    """
    contains = catalog_contains(g)
    return {
        "chordal": is_chordal(g),
        "bipartite": is_bipartite(g),
        "tree": is_tree(g),
        "cograph": not contains["P4"],
        "claw_free": not contains["claw"],
        "contains": contains,
    }


__all__ = [
    "PATTERNS",
    "contains_induced",
    "catalog_contains",
    "is_claw_free",
    "is_cograph",
    "is_bipartite",
    "is_tree",
    "is_chordal",
    "TwinCliquePartition",
    "twin_clique_partition",
    "class_flags",
]

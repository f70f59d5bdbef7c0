"""Graph class recognizers and induced-pattern search.

The pattern catalog holds the small named graphs used as forbidden
induced subgraphs (claw, diamond, paw, bull, net, short paths and
cycles).  Induced containment is a backtracking embedding over bitmask
candidate sets: a partial map constrains the next image to be adjacent
to the images of mapped pattern-neighbors and non-adjacent to the rest,
so dead branches die on a couple of AND operations.

Chordality uses maximum cardinality search: take the produced order,
check that each vertex's earlier neighbors minus the latest one are all
adjacent to that latest one.  The order is a perfect elimination order
iff the graph is chordal, and the check is what certifies it.

The twin clique partition groups, for a chosen root, the remaining
vertices by exact closed-neighborhood equality; each group induces a
clique, the root stays a singleton, and contracting every part to a
point gives the reduced graph used to transfer domination facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, bits, build_graph, is_connected, mask_of

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

PATTERNS: dict[str, Graph] = {
    name: build_graph(n, edges) for name, (n, edges) in _PATTERN_EDGES.items()
}


def _embedding_order(h: Graph) -> list[int]:
    """Pattern vertices ordered so each new one touches the mapped part."""
    order = [max(range(h.n), key=lambda v: h.adj[v].bit_count())]
    placed = 1 << order[0]
    while len(order) < h.n:
        candidates = [v for v in range(h.n) if not (placed >> v) & 1]
        # prefer vertices constrained by many already-placed neighbors
        v = max(candidates, key=lambda v: ((h.adj[v] & placed).bit_count(), h.adj[v].bit_count()))
        order.append(v)
        placed |= 1 << v
    return order


_ORDERS: dict[str, list[int]] = {name: _embedding_order(h) for name, h in PATTERNS.items()}


def contains_induced(g: Graph, pattern: str) -> bool:
    """True if g has an induced subgraph isomorphic to the named pattern."""
    if pattern not in PATTERNS:
        raise GraphError(f"unknown pattern {pattern!r}")
    h = PATTERNS[pattern]
    if h.n > g.n:
        return False
    order = _ORDERS[pattern]
    degs = [h.adj[v].bit_count() for v in order]
    images = [0] * h.n
    full = g.full_mask

    def rec(i: int, used: int) -> bool:
        if i == len(order):
            return True
        hv = order[i]
        cand = full & ~used
        for j in range(i):
            if (h.adj[hv] >> order[j]) & 1:
                cand &= g.adj[images[j]]
            else:
                cand &= ~g.adj[images[j]]
        need = degs[i]
        for w in bits(cand):
            if g.adj[w].bit_count() < need:
                continue
            images[i] = w
            if rec(i + 1, used | (1 << w)):
                return True
        return False

    return rec(0, 0)


def is_claw_free(g: Graph) -> bool:
    """No induced star on three leaves."""
    return not contains_induced(g, "claw")


def is_cograph(g: Graph) -> bool:
    """No induced path on four vertices."""
    return not contains_induced(g, "P4")


def is_bipartite(g: Graph) -> bool:
    """Two-colorable by BFS over every component."""
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(g.adj[v]):
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_tree(g: Graph) -> bool:
    """Connected and acyclic; the empty graph does not count."""
    return g.n >= 1 and g.edge_count() == g.n - 1 and is_connected(g)


def max_cardinality_search(g: Graph) -> list[int]:
    """Visit order that greedily maximizes visited-neighbor counts.

    Ties break toward the smallest vertex index, so the order is
    deterministic.
    """
    weights = [0] * g.n
    visited = 0
    order = []
    for _ in range(g.n):
        best = -1
        best_w = -1
        for v in range(g.n):
            if not (visited >> v) & 1 and weights[v] > best_w:
                best = v
                best_w = weights[v]
        order.append(best)
        visited |= 1 << best
        for u in bits(g.adj[best] & ~visited):
            weights[u] += 1
    return order


def is_chordal(g: Graph) -> bool:
    """Every cycle of length at least four has a chord.

    Runs maximum cardinality search and certifies the reversed order as
    a perfect elimination order: for each vertex, its earlier-visited
    neighbors minus the most recent one must all be adjacent to that
    most recent one.
    """
    order = max_cardinality_search(g)
    position = {v: i for i, v in enumerate(order)}
    placed = 0
    for v in order:
        earlier = g.adj[v] & placed
        placed |= 1 << v
        if not earlier:
            continue
        latest = max(bits(earlier), key=position.__getitem__)
        rest = earlier & ~(1 << latest)
        if rest & ~g.adj[latest]:
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
    for v in range(g.n):
        if v == root:
            continue
        key = g.adj[v] | (1 << v)
        groups[key] = groups.get(key, 0) | (1 << v)
    cliques = [1 << root] + sorted(groups.values(), key=lambda m: (m & -m).bit_length())
    reps = [next(bits(c)) for c in cliques]
    edges = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if (g.adj[reps[i]] >> reps[j]) & 1:
                edges.append((i, j))
    return TwinCliquePartition(root, tuple(cliques), build_graph(len(reps), edges))


@dataclass(frozen=True)
class ClassFlags:
    """Recognition summary for one graph.

    patterns maps each catalog pattern name to whether the graph
    contains it as an induced subgraph.
    """

    chordal: bool
    bipartite: bool
    tree: bool
    cograph: bool
    claw_free: bool
    patterns: tuple[tuple[str, bool], ...]


def class_flags(g: Graph) -> ClassFlags:
    return ClassFlags(
        chordal=is_chordal(g),
        bipartite=is_bipartite(g),
        tree=is_tree(g),
        cograph=is_cograph(g),
        claw_free=is_claw_free(g),
        patterns=tuple((name, contains_induced(g, name)) for name in PATTERNS),
    )


def flags_to_dict(flags: ClassFlags) -> dict:
    return {
        "chordal": flags.chordal,
        "bipartite": flags.bipartite,
        "tree": flags.tree,
        "cograph": flags.cograph,
        "claw_free": flags.claw_free,
        "contains": {name: hit for name, hit in flags.patterns},
    }


__all__ = [
    "PATTERNS",
    "contains_induced",
    "is_claw_free",
    "is_cograph",
    "is_bipartite",
    "is_tree",
    "is_chordal",
    "max_cardinality_search",
    "TwinCliquePartition",
    "twin_clique_partition",
    "ClassFlags",
    "class_flags",
    "flags_to_dict",
]

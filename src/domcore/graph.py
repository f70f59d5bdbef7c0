"""Immutable bitset-backed simple graphs on at most 64 vertices.

Vertices are integers 0..n-1 and every vertex set in this package is a
plain Python int used as a bitmask (bit v set means vertex v is in the
set).  Adjacency is stored as one open-neighborhood mask per vertex,
which makes neighborhood unions, domination tests and subset filtering
single AND/OR operations regardless of degree.  Every loop over a
mask's vertices is `for v in bits(mask)`: bits returns the tuple of set
positions, one byte-table lookup per byte, with only the low byte's
table built at import and each wider one on first need; a negative
mask raises GraphError.

Every breadth-first traversal is bfs_layers, the distance layers of a
root's component as masks.  component_layers is the one walk over
components: it yields the layers of each component of an induced
subgraph, rooted at its least vertex.  connected_components,
recognize.is_bipartite and solve.gamma_tree read it; only
cut_vertices walks the components on its own, by depth-first search.

Graphs are frozen dataclasses and every operation returns a new graph;
nothing here mutates.  Validity (an int vertex count, a tuple of int
masks, symmetric adjacency, no self-loops, no bits outside the vertex
range) is enforced by the public constructors that take data from
outside the program: ``Graph(...)``, build_graph and parse_edge_list.
Graphs derived from a valid graph by add_vertex, delete_vertex and
add_pendant inherit its validity: those functions check their own
arguments (vertex, neighbor mask, capacity) and then build the result
through _derived, without validating it again.  So does the reduced
graph of recognize's twin_clique_partition, the subgraph a valid graph
induces on a set of its vertices, relabeled.  graph6's parse_graph6
builds through _derived too: it checks its input text, and sets each
edge in both directions, off the diagonal, for n <= 64 only.  So a
Graph that exists is always well formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphError(ValueError):
    """Raised for invalid construction data or out-of-range arguments."""


def _byte_table(k: int) -> list[tuple[int, ...]]:
    """Entry b is the tuple of set bit positions of b << 8k, increasing."""
    table = [()]
    for i in range(8 * k, 8 * k + 8):
        table += [t + (i,) for t in table]  # entry b + 2**(i - 8k) is entry b, then i
    return table


_BYTE_TABLES = [_byte_table(0)]  # table k is for the byte at offset 8k


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of a mask as a tuple, in increasing order.

    One table lookup per byte.  A byte's table above the low one is
    built the first time a mask reaches it.  A negative mask, which has
    infinitely many set bits, raises GraphError.
    """
    if 0 <= mask < 256:
        return _BYTE_TABLES[0][mask]
    if mask < 0:
        raise GraphError(f"mask {mask} is negative")
    tables = _BYTE_TABLES
    while len(tables) << 3 < mask.bit_length():
        k = len(tables)
        # slot k only ever holds _byte_table(k): a racing writer stores an equal table
        tables[k : k + 1] = [_byte_table(k)]
    out = ()
    k = 0
    while mask:
        out += tables[k][mask & 255]
        mask >>= 8
        k += 1
    return out


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the open neighborhood of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise GraphError(f"vertex count {self.n!r} is not an int")
        if type(self.adj) is not tuple or not all(type(a) is int for a in self.adj):
            raise GraphError("adjacency must be a tuple of int masks")
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, nbrs in enumerate(self.adj):
            if nbrs & ~full:
                raise GraphError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if (nbrs >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v, nbrs in enumerate(self.adj):
            for u in bits(nbrs):
                if not (self.adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if v > u:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise GraphError(f"vertex {v!r} is not an int")
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")

    def _check_mask(self, mask: int, what: str) -> None:
        # bool is an int subclass, but True is no vertex set
        if type(mask) is not int:
            raise GraphError(f"{what} mask {mask!r} is not an int")
        if mask & ~self.full_mask:
            raise GraphError(f"{what} mask has bits outside the vertex range")


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """Graph built from a valid graph's data, without validating it again.

    Only for add_vertex and delete_vertex (add_pendant builds through
    add_vertex), whose results are well formed whenever their input
    graph is and their own argument checks pass; for recognize's
    twin_clique_partition, whose reduced graph is the subgraph its
    valid input induces on one vertex per part, relabeled by part
    index, so symmetric and loop-free; and for graph6's parse_graph6,
    which checks its text and sets each edge in both directions, off
    the diagonal, for n <= 64.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse silently."""
    if type(n) is not int:
        raise GraphError(f"vertex count {n!r} is not an int")
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphError(f"edge {edge!r} is not a pair") from None
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def closed_masks(g: Graph) -> list[int]:
    """Closed neighborhood masks for all vertices, indexed by vertex."""
    return [a | (1 << v) for v, a in enumerate(g.adj)]


def bfs_layers(g: Graph, root: int, within: int | None = None) -> list[int]:
    """Breadth-first layers of the component of `root` in the subgraph
    induced by `within` (default: every vertex).

    Layer k is the mask of vertices at distance exactly k from root;
    layer 0 is {root}, and the last layer is the last nonempty one.
    A root outside `within` raises GraphError.
    """
    g._check_vertex(root)
    if within is None:
        within = g.full_mask
    else:
        g._check_mask(within, "vertex")
        if not (within >> root) & 1:
            raise GraphError(f"root {root} is not in the vertex mask")
    adj = g.adj
    layer = 1 << root
    seen = layer
    layers = []
    while layer:
        layers.append(layer)
        nxt = 0
        for v in bits(layer):
            nxt |= adj[v]
        layer = nxt & within & ~seen
        seen |= layer
    return layers


def component_layers(g: Graph, within: int | None = None) -> Iterator[list[int]]:
    """The bfs_layers of each component of the subgraph induced by
    `within` (default: every vertex), rooted at the component's least
    vertex, in increasing order of that vertex.
    """
    if within is None:
        within = g.full_mask
    else:
        g._check_mask(within, "vertex")
    while within:  # own bit loop: each pass takes out a whole component
        layers = bfs_layers(g, (within & -within).bit_length() - 1, within)
        yield layers
        for layer in layers:
            within ^= layer


def delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with v removed; vertices above v shift down by one."""
    g._check_vertex(v)
    low = (1 << v) - 1
    # bits above v shift down one; bit v lands at v - 1, inside low, and drops
    adj = tuple([(a & low) | ((a >> 1) & ~low) for a in g.adj[:v] + g.adj[v + 1 :]])
    return _derived(g.n - 1, adj)


def add_pendant(g: Graph, v: int) -> Graph:
    """Attach a new degree-1 vertex (index n) to v."""
    g._check_vertex(v)
    return add_vertex(g, 1 << v)


def add_vertex(g: Graph, neighbors: int) -> Graph:
    """Attach a new vertex (index n) adjacent to the masked vertices."""
    g._check_mask(neighbors, "neighbor")
    if g.n >= MAX_VERTICES:
        raise GraphError(f"cannot exceed {MAX_VERTICES} vertices")
    adj = [a | (1 << g.n) if (neighbors >> v) & 1 else a for v, a in enumerate(g.adj)]
    adj.append(neighbors)
    return _derived(g.n + 1, tuple(adj))


def is_dominating(g: Graph, s: int) -> bool:
    """True if every vertex is in s or adjacent to a vertex of s."""
    g._check_mask(s, "set")
    covered = s
    for v in bits(s):
        covered |= g.adj[v]
    return covered == g.full_mask


def private_neighbors(g: Graph, u: int, s: int) -> int:
    """Mask of vertices whose closed neighborhood meets s exactly in {u}.

    u must belong to s.  A vertex may be its own private neighbor.
    """
    g._check_vertex(u)
    g._check_mask(s, "set")
    if not (s >> u) & 1:
        raise GraphError(f"vertex {u} is not in the given set")
    others = s & ~(1 << u)
    blocked = others
    for w in bits(others):
        blocked |= g.adj[w]
    return (g.adj[u] | (1 << u)) & ~blocked


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component masks of the subgraph induced by `within`, by smallest vertex.

    `within` defaults to every vertex.
    """
    # a component's layers are disjoint, so their sum is their union
    return [sum(layers) for layers in component_layers(g, within)]


def cut_vertices(g: Graph) -> int:
    """Mask of vertices whose removal disconnects their component.

    One iterative depth-first search with low-points (Hopcroft and
    Tarjan, 1973).  low[v] is the earliest discovery time among v's DFS
    subtree and its neighbors; a non-root vertex p is a cut vertex iff
    some DFS child v has low[v] >= disc[p], and a root iff it has two or
    more children.
    """
    adj = g.adj
    disc = [0] * g.n  # discovery time, counted from 1
    low = [0] * g.n
    unvisited = g.full_mask
    clock = 0
    result = 0
    while unvisited:  # own bit loop: the search below also takes bits out of unvisited
        bit = unvisited & -unvisited
        unvisited ^= bit
        root = bit.bit_length() - 1
        clock += 1
        disc[root] = low[root] = clock
        root_children = 0
        stack = [root]
        while stack:
            v = stack[-1]
            fresh = adj[v] & unvisited
            if fresh:
                bit = fresh & -fresh
                unvisited ^= bit
                u = bit.bit_length() - 1
                clock += 1
                disc[u] = low[u] = clock
                stack.append(u)
                continue
            # v is finished: every neighbor is discovered and every
            # child's low-point is already folded into low[v]
            stack.pop()
            lv = low[v]
            for u in bits(adj[v]):
                if disc[u] < lv:
                    lv = disc[u]
            if not stack:
                break
            p = stack[-1]
            if lv < low[p]:
                low[p] = lv
            if p == root:
                root_children += 1
            elif lv >= disc[p]:
                result |= 1 << p
        if root_children > 1:
            result |= 1 << root
    return result


_INTEGER_TOKEN = re.compile(r"-?[0-9]+")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first "n m", then m lines "u v".

    Tokens may be split across lines arbitrarily; '#' starts a comment
    that runs to end of line.  Every token is ASCII decimal digits with
    an optional leading '-'.
    """
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if len(tokens) < 2:
        raise GraphError("edge list needs at least the 'n m' header")
    for t in tokens:
        # int() alone would also take '1_0', '+2' and non-ASCII digits
        if not _INTEGER_TOKEN.fullmatch(t):
            raise GraphError(f"non-integer token in edge list: {t!r}")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:  # more digits than int() converts
        raise GraphError(f"edge list token too long: {exc}") from exc
    n, m = numbers[0], numbers[1]
    if n < 0 or m < 0:
        raise GraphError("vertex and edge counts must be nonnegative")
    if len(numbers) != 2 + 2 * m:
        raise GraphError(
            f"expected {2 * m} endpoint tokens for {m} edges, got {len(numbers) - 2}"
        )
    pairs = [(numbers[2 + 2 * i], numbers[3 + 2 * i]) for i in range(m)]
    return build_graph(n, pairs)


def format_edge_list(g: Graph) -> str:
    """Render a graph in the same text format parse_edge_list accepts."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

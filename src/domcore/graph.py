"""Immutable bitset-backed simple graphs on at most 64 vertices.

Vertices are integers 0..n-1 and every vertex set in this package is a
plain Python int used as a bitmask (bit v set means vertex v is in the
set).  Adjacency is stored as one open-neighborhood mask per vertex,
which makes neighborhood unions, domination tests and subset filtering
single AND/OR operations regardless of degree.

Graphs are frozen dataclasses and every operation returns a new graph;
nothing here mutates.  Validity (symmetric adjacency, no self-loops, no
bits outside the vertex range) is enforced by the public constructors
that take data from outside the program: ``Graph(...)``, build_graph,
parse_edge_list and graph6's parse_graph6.  Graphs derived from a valid
graph by add_vertex, delete_vertex and add_pendant inherit its validity:
those functions check their own arguments (vertex, neighbor mask,
capacity) and then build the result without validating it again.  So a
Graph that exists is always well formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphError(ValueError):
    """Raised for invalid construction data or out-of-range arguments."""


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def vertices(self) -> range:
        return range(self.n)

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
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """Graph built from a valid graph's data, without validating it again.

    Only for add_vertex, delete_vertex and add_pendant, whose results are
    well formed whenever their input graph is and their own argument
    checks pass.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse silently."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def closed_neighborhood(g: Graph, v: int) -> int:
    """Return N[v] = N(v) plus v itself, as a mask."""
    g._check_vertex(v)
    return g.adj[v] | (1 << v)


def closed_masks(g: Graph) -> list[int]:
    """Closed neighborhood masks for all vertices, indexed by vertex."""
    return [a | (1 << v) for v, a in enumerate(g.adj)]


def distance_shell(g: Graph, v: int, k: int) -> int:
    """Mask of vertices at graph distance exactly k from v.

    Shell 0 is {v}; unreachable distances give the empty mask.
    """
    g._check_vertex(v)
    if k < 0:
        raise GraphError(f"negative distance {k}")
    current = 1 << v
    seen = current
    for _ in range(k):
        nxt = 0
        for u in bits(current):
            nxt |= g.adj[u]
        current = nxt & ~seen
        if not current:
            return 0
        seen |= current
    return current


def delete_vertex(g: Graph, v: int) -> Graph:
    """Graph with v removed; vertices above v shift down by one."""
    g._check_vertex(v)
    low = (1 << v) - 1
    adj = []
    for u in range(g.n):
        if u == v:
            continue
        a = g.adj[u] & ~(1 << v)
        adj.append((a & low) | ((a >> 1) & ~low))
    return _derived(g.n - 1, tuple(adj))


def index_after_delete(u: int, v: int) -> int:
    """Index of surviving vertex u in delete_vertex(g, v)."""
    if u == v:
        raise GraphError("deleted vertex has no surviving index")
    return u - 1 if u > v else u


def add_pendant(g: Graph, v: int) -> Graph:
    """Attach a new degree-1 vertex (index n) to v."""
    g._check_vertex(v)
    if g.n >= MAX_VERTICES:
        raise GraphError(f"cannot exceed {MAX_VERTICES} vertices")
    adj = list(g.adj)
    adj[v] |= 1 << g.n
    adj.append(1 << v)
    return _derived(g.n + 1, tuple(adj))


def add_vertex(g: Graph, neighbors: int) -> Graph:
    """Attach a new vertex (index n) adjacent to the masked vertices."""
    if neighbors & ~g.full_mask:
        raise GraphError("neighbor mask has bits outside the vertex range")
    if g.n >= MAX_VERTICES:
        raise GraphError(f"cannot exceed {MAX_VERTICES} vertices")
    adj = [a | (1 << g.n) if (neighbors >> v) & 1 else a for v, a in enumerate(g.adj)]
    adj.append(neighbors)
    return _derived(g.n + 1, tuple(adj))


def is_dominating(g: Graph, s: int) -> bool:
    """True if every vertex is in s or adjacent to a vertex of s."""
    if s & ~g.full_mask:
        raise GraphError("set mask has bits outside the vertex range")
    covered = s
    for v in bits(s):
        covered |= g.adj[v]
    return covered == g.full_mask


def private_neighbors(g: Graph, u: int, s: int) -> int:
    """Mask of vertices whose closed neighborhood meets s exactly in {u}.

    u must belong to s.  A vertex may be its own private neighbor.
    """
    g._check_vertex(u)
    if s & ~g.full_mask:
        raise GraphError("set mask has bits outside the vertex range")
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
    if within is None:
        within = g.full_mask
    elif within & ~g.full_mask:
        raise GraphError("vertex mask has bits outside the vertex range")
    remaining = within
    comps = []
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & within & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    """True for the empty graph and for graphs with one component."""
    return len(connected_components(g)) <= 1


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
    while unvisited:
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


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first "n m", then m lines "u v".

    Tokens may be split across lines arbitrarily; '#' starts a comment
    that runs to end of line.
    """
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if len(tokens) < 2:
        raise GraphError("edge list needs at least the 'n m' header")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphError(f"non-integer token in edge list: {exc}") from exc
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

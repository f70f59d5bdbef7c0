"""Small graph builders shared across the tests."""

from hypothesis import strategies as st

from domcore import Graph, build_graph
from domcore.graph import MAX_VERTICES, connected_components, delete_vertex, mask_of


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges)


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def relabel(g: Graph, perm) -> Graph:
    """The copy of g in which vertex v is called perm[v]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cut_vertices_bruteforce(g: Graph) -> int:
    """Vertices whose deletion leaves more components than g has."""
    count = len(connected_components(g))
    return mask_of(v for v in range(g.n) if len(connected_components(delete_vertex(g, v))) > count)


@st.composite
def graphs(draw, min_n=0, max_n=MAX_VERTICES):
    """Random graphs, sparse enough to be disconnected and have cut vertices."""
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Graph(n, (0,) * n)
    u = st.integers(0, n - 1)
    # the second endpoint skips the first, so no self-loops are drawn
    pairs = st.tuples(u, st.integers(0, n - 2)).map(lambda e: (e[0], e[1] + (e[1] >= e[0])))
    return build_graph(n, draw(st.lists(pairs, max_size=2 * n)))


@st.composite
def connected_graphs(draw, min_n=1, max_n=MAX_VERTICES):
    """Random connected graphs: a random spanning tree plus random extra edges."""
    extra = draw(graphs(min_n, max_n))
    tree = [(v, draw(st.integers(0, v - 1))) for v in range(1, extra.n)]
    return build_graph(extra.n, tree + list(extra.edges()))


@st.composite
def relabeled_graphs(draw, min_n=0, max_n=MAX_VERTICES):
    """(g, perm): a random graph and a random relabeling of its vertices."""
    g = draw(graphs(min_n, max_n))
    return g, tuple(draw(st.permutations(range(g.n))))


@st.composite
def forests(draw, min_n=0, max_n=MAX_VERTICES):
    """Random forests: the edges of a random graph that close no cycle."""
    g = draw(graphs(min_n, max_n))
    comp = list(range(g.n))  # component label per vertex
    kept = []
    for u, v in draw(st.permutations(list(g.edges()))):
        if comp[u] != comp[v]:
            old = comp[v]
            comp = [comp[u] if c == old else c for c in comp]
            kept.append((u, v))
    return build_graph(g.n, kept)

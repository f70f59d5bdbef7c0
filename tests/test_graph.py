import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from domcore import Graph, GraphError, add_pendant, add_vertex, build_graph, delete_vertex, parse_edge_list
from domcore.graph import (
    MAX_VERTICES,
    bfs_layers,
    bits,
    closed_masks,
    component_layers,
    connected_components,
    cut_vertices,
    format_edge_list,
    is_dominating,
    mask_of,
    private_neighbors,
)
from helpers import complete, cut_vertices_bruteforce, cycle, graphs, path, src_env, star


def _revalidated(g: Graph) -> Graph:
    assert type(g.adj) is tuple
    return Graph(g.n, g.adj)


def test_build_graph_basics():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edge_count() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError, match="not an int"):
        g.has_edge(0, 1.0)


def test_build_graph_deduplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        build_graph(-1, [])
    with pytest.raises(GraphError):
        build_graph(MAX_VERTICES + 1, [])
    # Graph's own rule: counts and endpoints are ints, and a bool is not one
    for n, edges in (("3", []), (3.0, []), (3, [(0, 1.0)]), (3, [(0, True)])):
        with pytest.raises(GraphError):
            build_graph(n, edges)
    # an edge is a pair
    for edges in ([(0, 1, 2)], [(0,)], [0]):
        with pytest.raises(GraphError):
            build_graph(3, edges)


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b00))  # self loop
    with pytest.raises(GraphError):
        Graph(1, (0b10,))  # bit out of range
    with pytest.raises(GraphError):
        Graph(2, [2, 1])  # a list, not a tuple
    with pytest.raises(GraphError):
        Graph(1, ("a",))
    with pytest.raises(GraphError):
        Graph(1, (1.0,))
    with pytest.raises(GraphError):
        Graph(2.0, (0b10, 0b01))


def test_capacity_boundary():
    g = build_graph(MAX_VERTICES, [(0, 63)])
    assert g.has_edge(0, 63)
    with pytest.raises(GraphError):
        add_vertex(g, 0b1)
    with pytest.raises(GraphError):
        add_pendant(g, 0)


def test_bits_and_mask_of():
    assert bits(0b10110) == (1, 2, 4)
    assert mask_of([0, 3]) == 0b1001
    assert mask_of([]) == 0


def _positions(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(64) if mask >> i & 1)


@given(st.integers(0, 64).flatmap(lambda width: st.integers(0, (1 << width) - 1)))
def test_bits_lists_the_set_positions(mask):
    assert bits(mask) == _positions(mask)


@pytest.mark.parametrize(
    "mask", [(1 << 8 * k) - 1 for k in range(9)] + [1 << 8 * k for k in range(8)] + [1 << 63]
)
def test_bits_at_byte_boundaries(mask):
    assert bits(mask) == _positions(mask)


@pytest.mark.parametrize("first", [(1 << 64) - 1, 1 << 56, 1 << 8])
def test_bits_builds_the_tables_up_to_the_first_wide_mask(first):
    # a fresh process, so `first` is the first mask to need a wide table
    masks = [first, (1 << 64) - 1, 1 << 63, 0x1FF00, 0xFF_0000_0000_00FF]
    code = f"from domcore.graph import bits; print([bits(m) for m in {masks}])"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == f"{[_positions(m) for m in masks]}\n"


@pytest.mark.parametrize("mask", [-1, -2, -255, -256, -257, -(1 << 63), -(1 << 64)])
def test_bits_rejects_negative_masks(mask):
    with pytest.raises(GraphError, match="negative"):
        bits(mask)


def test_closed_neighborhood():
    g = path(3)
    assert closed_masks(g) == [0b011, 0b111, 0b110]
    assert closed_masks(build_graph(2, [])) == [0b01, 0b10]
    assert closed_masks(build_graph(0, [])) == []


def _distances(g: Graph, within: int) -> list[list[float]]:
    """All-pairs distances in the subgraph induced by `within` (Floyd-Warshall)."""
    inf = float("inf")
    d = [[0 if u == v else 1 if g.adj[u] >> v & 1 else inf for v in range(g.n)] for u in range(g.n)]
    for w in bits(within):
        for u in bits(within):
            for v in bits(within):
                d[u][v] = min(d[u][v], d[u][w] + d[w][v])
    return d


@given(graphs(0, 12), st.data())
def test_layers_match_bruteforce_distances(g, data):
    within = data.draw(st.integers(0, g.full_mask))
    full = _distances(g, g.full_mask)
    part = _distances(g, within)
    for root in range(g.n):
        shells = [mask_of(v for v in range(g.n) if full[root][v] == k) for k in range(g.n + 1)]
        assert bfs_layers(g, root) == [s for s in shells if s]
        if (within >> root) & 1:
            want = [mask_of(v for v in bits(within) if part[root][v] == k) for k in range(g.n)]
            assert bfs_layers(g, root, within) == [s for s in want if s]


def test_bfs_layers_rejects_bad_roots():
    with pytest.raises(GraphError, match="not an int"):
        bfs_layers(path(3), 0.0)
    # the root's component must lie inside the induced subgraph
    with pytest.raises(GraphError, match="not in the vertex mask"):
        bfs_layers(path(3), 0, within=0b110)
    with pytest.raises(GraphError, match="vertex mask has bits outside the vertex range"):
        bfs_layers(path(3), 0, within=0b1111)
    with pytest.raises(GraphError, match="vertex mask 7.0 is not an int"):
        bfs_layers(path(3), 0, within=7.0)
    with pytest.raises(GraphError, match="vertex mask True is not an int"):
        bfs_layers(path(3), 0, within=True)


def test_delete_vertex_compacts():
    g = cycle(5)
    h = delete_vertex(g, 2)
    assert h.n == 4
    # survivors 0,1,3,4 renumber to 0,1,2,3 leaving the path 1-0-3-2
    assert sorted(h.edges()) == [(0, 1), (0, 3), (2, 3)]
    with pytest.raises(GraphError):
        delete_vertex(g, 5)
    with pytest.raises(GraphError, match="not an int"):
        delete_vertex(g, True)


def test_add_pendant_and_add_vertex():
    g = path(2)
    p = add_pendant(g, 1)
    assert p.n == 3
    assert p.has_edge(2, 1)
    assert not p.has_edge(2, 0)
    h = add_vertex(g, 0b11)
    assert h.n == 3
    assert h.degree(2) == 2
    with pytest.raises(GraphError):
        add_vertex(g, 0b100)  # vertex 2 does not exist yet
    with pytest.raises(GraphError, match="neighbor mask 1.0 is not an int"):
        add_vertex(g, 1.0)
    with pytest.raises(GraphError, match="neighbor mask True is not an int"):
        add_vertex(g, True)
    with pytest.raises(GraphError):
        add_pendant(g, -1)
    with pytest.raises(GraphError, match="not an int"):
        add_pendant(g, True)


def test_is_dominating():
    g = star(3)
    assert is_dominating(g, 0b0001)
    assert not is_dominating(g, 0b0010)
    assert is_dominating(g, g.full_mask)
    with pytest.raises(GraphError):
        is_dominating(g, 1 << g.n)
    # True would otherwise read as the mask 1, which dominates the star
    with pytest.raises(GraphError, match="set mask 1.0 is not an int"):
        is_dominating(g, 1.0)
    with pytest.raises(GraphError, match="set mask True is not an int"):
        is_dominating(g, True)


def test_private_neighbors():
    g = path(3)
    # {1} dominates; every vertex sees S only through 1
    assert private_neighbors(g, 1, 0b010) == 0b111
    # in S = {0, 2} vertex 1 sees both members
    assert private_neighbors(g, 0, 0b101) == 0b001
    with pytest.raises(GraphError):
        private_neighbors(g, 1, 0b101)  # u not in S
    with pytest.raises(GraphError, match="not an int"):
        private_neighbors(g, 1.0, 0b010)
    with pytest.raises(GraphError, match="set mask 2.0 is not an int"):
        private_neighbors(g, 1, 2.0)
    with pytest.raises(GraphError, match="set mask True is not an int"):
        private_neighbors(g, 0, True)


def test_connected_components_ordering():
    g = build_graph(5, [(3, 4), (0, 1)])
    comps = connected_components(g)
    assert comps == [0b00011, 0b00100, 0b11000]
    assert len(connected_components(path(4))) == 1
    assert connected_components(build_graph(0, [])) == []
    # within: components of the induced subgraph, still by smallest vertex
    assert connected_components(path(5), within=0b11011) == [0b00011, 0b11000]
    assert connected_components(cycle(6), within=0b110110) == [0b000110, 0b110000]
    assert connected_components(g, within=0) == []
    with pytest.raises(GraphError):
        connected_components(g, within=1 << 5)
    with pytest.raises(GraphError, match="vertex mask 3.0 is not an int"):
        connected_components(g, within=3.0)
    with pytest.raises(GraphError, match="vertex mask True is not an int"):
        connected_components(g, within=True)


@given(graphs(0, 16), st.data())
def test_components_within_match_induced_subgraph(g, data):
    within = data.draw(st.integers(0, g.full_mask))
    kept = list(bits(within))
    edges = [(kept.index(u), kept.index(v)) for u, v in g.edges() if u in kept and v in kept]
    induced = build_graph(len(kept), edges)
    want = [mask_of(kept[i] for i in bits(c)) for c in connected_components(induced)]
    assert connected_components(g, within) == want


@given(graphs(0, 16), st.data())
def test_component_layers_partition_within(g, data):
    within = data.draw(st.integers(0, g.full_mask))
    comps = list(component_layers(g, within))
    roots = [layers[0].bit_length() - 1 for layers in comps]
    assert all(a < b for a, b in zip(roots, roots[1:]))
    union = 0
    for root, layers in zip(roots, comps):
        assert layers == bfs_layers(g, root, within)
        comp = sum(layers)
        assert comp & -comp == 1 << root  # rooted at the least vertex
        for layer in layers:
            assert not union & layer
            union |= layer
    assert union == within
    with pytest.raises(GraphError):
        list(component_layers(g, within | 1 << data.draw(st.integers(g.n, MAX_VERTICES))))


def test_cut_vertices():
    assert cut_vertices(path(4)) == 0b0110
    assert cut_vertices(star(4)) == 0b00001
    assert cut_vertices(cycle(4)) == 0
    assert cut_vertices(complete(3)) == 0
    # disconnected, with an isolated vertex: a path 0-1-2, vertex 3, an edge 4-5
    assert cut_vertices(build_graph(6, [(0, 1), (1, 2), (4, 5)])) == 0b10
    assert cut_vertices(build_graph(0, [])) == 0


@given(graphs())
def test_cut_vertices_match_definition(g):
    assert cut_vertices(g) == cut_vertices_bruteforce(g)


@given(st.data())
def test_derived_graphs_equal_validated_rebuild(data):
    g = data.draw(graphs(max_n=MAX_VERTICES - 1))
    h = add_vertex(g, data.draw(st.integers(0, g.full_mask)))
    assert _revalidated(h) == h
    if g.n:
        v = data.draw(st.integers(0, g.n - 1))
        for h in (delete_vertex(g, v), add_pendant(g, v)):
            assert _revalidated(h) == h


def test_parse_edge_list():
    text = "# a path\n3 2\n0 1\n1 2\n"
    g = parse_edge_list(text)
    assert g == path(3)
    # tokens may be split across lines arbitrarily
    assert parse_edge_list("3 2 0 1 1 2") == path(3)


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("3 2\n0 1\n")  # missing an edge
    with pytest.raises(GraphError):
        parse_edge_list("3 1\n0 3\n")  # endpoint out of range
    with pytest.raises(GraphError):
        parse_edge_list("two 1\n0 1\n")
    # int() takes these; the format does not
    for bad in ("1_0 0", "\u0663 1\n0 1", "3 +1\n0 1", "3 1\n0 \uff12", "3 1\n0 2.0"):
        with pytest.raises(GraphError):
            parse_edge_list(bad)
    with pytest.raises(GraphError, match="nonnegative"):
        parse_edge_list("-3 0")
    with pytest.raises(GraphError):
        parse_edge_list("3 1\n0 " + "1" * 5000)  # beyond int()'s digit limit


# tokens close to valid input, so that parses succeed as well as fail
_EDGE_LIST_TOKENS = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["#", "1_0", "+2", "\u0663", "-", "--1", "0x1", "1e3", "\ufeff", "99999999999999999999"]),
    st.text(max_size=4),
)


@given(st.lists(st.tuples(_EDGE_LIST_TOKENS, st.sampled_from([" ", "\n", "\t", "\r\n", "  # note\n"])), max_size=12))
@example([("3", " "), ("1", "\n"), ("0", " "), ("2", "  # note\n")])
def test_parse_edge_list_returns_a_graph_or_raises_graph_error(tokens):
    text = "".join(token + sep for token, sep in tokens)
    try:
        g = parse_edge_list(text)
    except GraphError:
        return
    assert isinstance(g, Graph)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_roundtrip():
    g = cycle(6)
    assert parse_edge_list(format_edge_list(g)) == g

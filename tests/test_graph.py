import pytest
from hypothesis import given, strategies as st

from domcore import Graph, GraphError, add_pendant, add_vertex, build_graph, delete_vertex, parse_edge_list
from domcore.graph import (
    MAX_VERTICES,
    bits,
    closed_neighborhood,
    connected_components,
    cut_vertices,
    distance_shell,
    format_edge_list,
    index_after_delete,
    is_connected,
    is_dominating,
    mask_of,
    private_neighbors,
)
from helpers import complete, cut_vertices_bruteforce, cycle, graphs, path, star


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


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b00))  # self loop
    with pytest.raises(GraphError):
        Graph(1, (0b10,))  # bit out of range


def test_capacity_boundary():
    g = build_graph(MAX_VERTICES, [(0, 63)])
    assert g.has_edge(0, 63)
    with pytest.raises(GraphError):
        add_vertex(g, 0b1)
    with pytest.raises(GraphError):
        add_pendant(g, 0)


def test_bits_and_mask_of():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert mask_of([]) == 0


def test_closed_neighborhood():
    g = path(3)
    assert closed_neighborhood(g, 0) == 0b011
    assert closed_neighborhood(g, 1) == 0b111


def test_distance_shell():
    g = path(4)
    assert distance_shell(g, 0, 0) == 0b0001
    assert distance_shell(g, 0, 1) == 0b0010
    assert distance_shell(g, 0, 2) == 0b0100
    assert distance_shell(g, 0, 3) == 0b1000
    assert distance_shell(g, 0, 4) == 0


def test_delete_vertex_compacts():
    g = cycle(5)
    h = delete_vertex(g, 2)
    assert h.n == 4
    # survivors 0,1,3,4 renumber to 0,1,2,3 leaving the path 1-0-3-2
    assert sorted(h.edges()) == [(0, 1), (0, 3), (2, 3)]
    with pytest.raises(GraphError):
        delete_vertex(g, 5)


def test_index_after_delete():
    assert index_after_delete(0, 3) == 0
    assert index_after_delete(5, 3) == 4
    assert index_after_delete(3, 0) == 2


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
    with pytest.raises(GraphError):
        add_pendant(g, -1)


def test_is_dominating():
    g = star(3)
    assert is_dominating(g, 0b0001)
    assert not is_dominating(g, 0b0010)
    assert is_dominating(g, g.full_mask)
    with pytest.raises(GraphError):
        is_dominating(g, 1 << g.n)


def test_private_neighbors():
    g = path(3)
    # {1} dominates; every vertex sees S only through 1
    assert private_neighbors(g, 1, 0b010) == 0b111
    # in S = {0, 2} vertex 1 sees both members
    assert private_neighbors(g, 0, 0b101) == 0b001
    with pytest.raises(GraphError):
        private_neighbors(g, 1, 0b101)  # u not in S


def test_connected_components_ordering():
    g = build_graph(5, [(3, 4), (0, 1)])
    comps = connected_components(g)
    assert comps == [0b00011, 0b00100, 0b11000]
    assert not is_connected(g)
    assert is_connected(path(4))
    assert is_connected(build_graph(0, []))
    # within: components of the induced subgraph, still by smallest vertex
    assert connected_components(path(5), within=0b11011) == [0b00011, 0b11000]
    assert connected_components(cycle(6), within=0b110110) == [0b000110, 0b110000]
    assert connected_components(g, within=0) == []
    with pytest.raises(GraphError):
        connected_components(g, within=1 << 5)


@given(graphs(0, 16), st.data())
def test_components_within_match_induced_subgraph(g, data):
    within = data.draw(st.integers(0, g.full_mask))
    kept = list(bits(within))
    edges = [(kept.index(u), kept.index(v)) for u, v in g.edges() if u in kept and v in kept]
    induced = build_graph(len(kept), edges)
    want = [mask_of(kept[i] for i in bits(c)) for c in connected_components(induced)]
    assert connected_components(g, within) == want


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


def test_edge_list_roundtrip():
    g = cycle(6)
    assert parse_edge_list(format_edge_list(g)) == g

"""Small graph builders shared across the tests.

Run as a script, ``python tests/helpers.py COUNT LO HI dense|sparse``
prints seeded_graphs(COUNT, LO, HI, ...) as graph6, one per line: the
inputs of CI's stdout-digest rows.
"""

import os
import random
import sys
from pathlib import Path
from typing import Iterator

from hypothesis import strategies as st

from domcore import Graph, build_graph, parse_graph6, write_graph6
from domcore.classify import classification_masks, classify_all, classify_by_enumeration
from domcore.graph import MAX_VERTICES, connected_components, delete_vertex, mask_of
from domcore.search import SIGNATURES, evaluate_signatures

# SHA-256 of the newline-terminated graph6 stream of enumerate_connected(n);
# any change to which graphs the enumerator yields, or in what order,
# changes these digests
STREAM_DIGESTS = {
    7: "6871917ed31b2469a9efc4807444af8d654a8af5b5af571b6c7c8e46f98235f8",
    8: "4275e461cf113a1d545d21d268aebbc4859f64c13f6e7abb4e951b312b5462b1",
    9: "8aee77ac3f6d44e9a74a14987ac33289e19b990f1017f5d83afe08be27250cca",
}
# the same digest of the stream of enumerate_trees(n)
TREE_STREAM_DIGESTS = {
    10: "c28defe1c8dc43b378ba735fc598e70833cdcfc8e3989fa45bc5235dd92ad4e2",
    12: "394a821d58733cbbef0a4126b9c462d6ef6f99d618df5d51916366c0c1d0c564",
}
# connected graphs per order, OEIS A001349
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# trees per order, OEIS A000055
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


def src_env() -> dict[str, str]:
    """The environment for a subprocess that imports domcore from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


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


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): each pair an edge with probability p, drawn from rng in pair order."""
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def seeded_graphs(count: int, lo: int, hi: int, dense: bool) -> Iterator[Graph]:
    """count graphs from one random.Random(27): each draws n in lo..hi,
    then p (uniform in [0.1, 0.9] if dense, else 2.5 / n), then its pairs
    through random_graph."""
    rng = random.Random(27)
    for _ in range(count):
        n = rng.randint(lo, hi)
        yield random_graph(rng, n, rng.uniform(0.1, 0.9) if dense else 2.5 / n)


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


def routes_agree(g: Graph) -> bool:
    """Whether the structural and the definitional classification of g
    agree; a module-level function, so a process pool can run it."""
    return classify_all(g) == classify_by_enumeration(g)


# the every-class signature (criterion 5) first, then the cut-vertex one (criterion 6)
_SWEEP_SIGS = (
    SIGNATURES["min-plus-zero-minus-empty-anticore"],
    SIGNATURES["cut-vertex-in-core-zero"],
)


def nine_sweep_step(g: Graph):
    """The nine-vertex sweep's work on one graph: (graph6, whether the
    graph6 round trip gives g back, the (plus, zero, minus) class sizes
    if g witnesses min-plus-zero-minus-empty-anticore else None, whether
    g witnesses cut-vertex-in-core-zero).

    Both verdicts come from the package's one step,
    search.evaluate_signatures, which solves g at most once.  Only an
    every-class witness has its masks computed again, for the sizes; no
    graph with n <= 8 is one.  A module-level function, so a process pool
    can run it.
    """
    text = write_graph6(g)
    every_class, cut_witness = evaluate_signatures(g, _SWEEP_SIGS)
    sizes = None
    if every_class:
        masks = classification_masks(g)
        sizes = (masks["plus"].bit_count(), masks["zero"].bit_count(), masks["minus"].bit_count())
    return text, parse_graph6(text) == g, sizes, cut_witness


if __name__ == "__main__":
    count, lo, hi, density = sys.argv[1:]
    for g in seeded_graphs(int(count), int(lo), int(hi), {"dense": True, "sparse": False}[density]):
        print(write_graph6(g))

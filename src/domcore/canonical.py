"""Canonical forms for small graphs via individualization-refinement.

The canonical form of a graph is the lexicographically smallest byte
string over all relabelings: one byte for the vertex count, then the
upper triangle of the relabeled adjacency matrix packed row by row.
Instead of trying all n! labelings, the search refines an ordered
partition of the vertices to equitability (every cell sees every cell
with a uniform neighbor count), then branches only on the vertices of
the first non-singleton cell.  Cell splitting and cell ordering depend
only on neighbor-count keys, never on vertex labels, so isomorphic
graphs explore identical partition trees and reach identical minima.

One shortcut keeps highly symmetric graphs cheap: when the partition is
stable and every non-singleton cell is internally complete or empty and
uniform toward every other cell, any within-cell order yields the same
byte string, so cells are serialized in index order without branching.

The same search also yields generators of the automorphism group
(automorphism_generators): two leaves with equal labeling value differ
by an automorphism (McKay & Piperno, "Practical graph isomorphism, II",
2014), and every adjacent transposition inside a non-singleton cell of
an unbranched leaf is one.  Taking the first leaf as the base, one
equal-valued leaf per branch off the first path is enough.

Intended for the enumeration sizes (n <= 16); beyond that the search
may be slow, so larger inputs are rejected.
"""

from __future__ import annotations

from .graph import Graph, GraphError, bits

CANONICAL_MAX = 16


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Refine an ordered partition to equitability.

    Each round splits every cell by the vector of neighbor counts into
    the current round's cells; fragments are ordered by their key, so
    the outcome is independent of vertex labels.
    """
    while True:
        changed = False
        new_cells: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            m = cell
            while m:
                low = m & -m
                a = adj[low.bit_length() - 1]
                m ^= low
                key = tuple([(a & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
        cells = new_cells
        if not changed:
            return cells


def _uniform_cells(adj: tuple[int, ...], cells: list[int]) -> bool:
    """True if every non-singleton cell is interchangeable vertex-wise.

    Requires each such cell to induce a clique or an independent set and
    to see identical neighbor sets in every other cell; transposing two
    vertices of such a cell is then an automorphism.
    """
    for cell in cells:
        if cell & (cell - 1) == 0:
            continue
        seen_inside = None
        seen_outside = None
        m = cell
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            inside = adj[v] & cell
            inside_kind = 0 if inside == 0 else (1 if inside == cell ^ low else 2)
            outside = adj[v] & ~cell
            if seen_inside is None:
                seen_inside = inside_kind
                seen_outside = outside
            elif inside_kind != seen_inside or outside != seen_outside:
                return False
            if inside_kind == 2:
                return False
    return True


def _labeling_bits(adj: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle bits of the relabeled adjacency, row-major, as int."""
    n = len(order)
    value = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            value = (value << 1) | ((ai >> order[j]) & 1)
    return value


def _cells_to_order(cells: list[int]) -> list[int]:
    order = []
    for cell in cells:
        for v in bits(cell):
            order.append(v)
    return order


class _Leaves:
    """What the search keeps of the leaves it visits, first to last.

    best is the least labeling value.  When generators is a list, the
    first leaf's order is the base: its non-singleton cells add their
    adjacent transpositions, and a later leaf whose value equals the
    base value adds the map base order -> that leaf's order if open is
    set.  The search sets open on entering a branch off the first path,
    and the first such leaf clears it, so each branch adds one map.
    """

    __slots__ = ("best", "base_value", "base_order", "generators", "open")

    def __init__(self, generators: bool) -> None:
        self.best: int | None = None
        self.base_value: int | None = None
        self.base_order: list[int] = []
        self.generators: list[tuple[int, ...]] | None = [] if generators else None
        self.open = False

    def visit(self, cells: list[int], order: list[int], value: int) -> None:
        if self.best is None:
            self.best = self.base_value = value
            self.base_order = order
            if self.generators is not None:
                self.generators.extend(_cell_transpositions(cells, len(order)))
            return
        if value < self.best:
            self.best = value
        if self.open and self.generators is not None and value == self.base_value:
            self.open = False
            perm = [0] * len(order)
            for v, w in zip(self.base_order, order):
                perm[v] = w
            self.generators.append(tuple(perm))


def _cell_transpositions(cells: list[int], n: int):
    """Adjacent transpositions inside each non-singleton cell.

    A leaf's non-singleton cells passed _uniform_cells, so each of these
    transpositions is an automorphism.
    """
    for cell in cells:
        members = list(bits(cell))
        for v, w in zip(members, members[1:]):
            perm = list(range(n))
            perm[v], perm[w] = w, v
            yield tuple(perm)


def _search(adj: tuple[int, ...], cells: list[int], leaves: _Leaves, first_path: bool) -> None:
    """Visit every leaf below cells; first_path marks the leftmost path.

    Each child of a first-path node after the first opens a branch, in
    which the first leaf of base value yields one automorphism.
    """
    cells = _refine(adj, cells)
    non_singleton = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
    if non_singleton is None or _uniform_cells(adj, cells):
        order = _cells_to_order(cells)
        leaves.visit(cells, order, _labeling_bits(adj, order))
        return
    target = cells[non_singleton]
    for i, v in enumerate(bits(target)):
        child = (
            cells[:non_singleton]
            + [1 << v, target ^ (1 << v)]
            + cells[non_singleton + 1 :]
        )
        if first_path and i:
            leaves.open = True
        _search(adj, child, leaves, first_path and not i)


def _run(g: Graph, cells: list[int], generators: bool) -> _Leaves:
    if g.n > CANONICAL_MAX:
        raise GraphError(f"canonical forms are limited to {CANONICAL_MAX} vertices")
    leaves = _Leaves(generators)
    if g.n == 0:
        leaves.best = 0
        return leaves
    _search(g.adj, cells, leaves, True)
    return leaves


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations p (v -> p[v]) that generate the automorphism group.

    Read off the same search that computes the canonical form.  Let
    b_0, b_1, ... be the vertices individualized on the first path and
    G_d the automorphisms fixing b_0..b_{d-1}.  Every sigma in G_d maps
    the first leaf to a leaf of equal value below the child sigma(b_d)
    of the depth-d first-path node, so the one map recorded in that
    child's branch carries b_d where sigma does; the maps recorded below
    b_d generate G_{d+1}, and at the first leaf G_{d+1} only permutes
    vertices inside cells, which the cell transpositions generate.  So
    the list generates the whole group, and it is empty exactly when the
    group is trivial.
    """
    return _run(g, [g.full_mask], generators=True).generators


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: count byte, then packed triangle bits."""
    value = _run(g, [g.full_mask], generators=False).best
    nbits = g.n * (g.n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([g.n]) + (value << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def rooted_canonical_bits(g: Graph, v: int) -> int:
    """Canonical bits among labelings that place v first."""
    g._check_vertex(v)
    rest = g.full_mask & ~(1 << v)
    cells = [1 << v] + ([rest] if rest else [])
    return _run(g, cells, generators=False).best

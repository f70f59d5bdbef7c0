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
an unbranched leaf is one.  The search yields its leaves in order, each
with the id of the branch off the first path that it lies in.  Taking
the first leaf as the base, one map per branch, to the branch's first
leaf of base value, is enough.

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
            for v in bits(cell):
                a = adj[v]
                key = tuple([(a & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | 1 << v
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
        first = adj[(cell & -cell).bit_length() - 1]
        outside = first & ~cell
        # a clique if the first member sees into the cell, else independent
        rest = cell if first & cell else 0
        for v in bits(cell):
            if adj[v] != outside | (rest & ~(1 << v)):
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


def _leaves(adj: tuple[int, ...], cells: list[int], branch: int | tuple[int, int] = 0):
    """Yield (branch, cells, order, value) for every leaf below cells.

    Leaves come in search order.  branch is 0 on the first (leftmost)
    path; each child after the first of a first-path node starts a
    branch, named by the index of the cell it splits and its vertex, and
    every leaf below that child carries the name.
    """
    cells = _refine(adj, cells)
    non_singleton = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
    if non_singleton is None or _uniform_cells(adj, cells):
        order = [v for cell in cells for v in bits(cell)]
        yield branch, cells, order, _labeling_bits(adj, order)
        return
    target = cells[non_singleton]
    for i, v in enumerate(bits(target)):
        child = (
            cells[:non_singleton]
            + [1 << v, target ^ (1 << v)]
            + cells[non_singleton + 1 :]
        )
        yield from _leaves(adj, child, branch or (i and (non_singleton, v)))


def _checked_leaves(g: Graph, cells: list[int]):
    if g.n > CANONICAL_MAX:
        raise GraphError(f"canonical forms are limited to {CANONICAL_MAX} vertices")
    return _leaves(g.adj, cells)


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations p (v -> p[v]) that generate the automorphism group.

    Read off the same search that computes the canonical form.  The
    first leaf is the base: every adjacent transposition inside one of
    its non-singleton cells is an automorphism (those cells passed
    _uniform_cells), and each branch records one map, base order -> the
    order of its first leaf whose value equals the base value.  Let
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
    leaves = _checked_leaves(g, [g.full_mask])
    _, cells, base_order, base_value = next(leaves)
    generators = []
    for cell in cells:
        members = bits(cell)
        for v, w in zip(members, members[1:]):
            perm = list(range(g.n))
            perm[v], perm[w] = w, v
            generators.append(tuple(perm))
    recorded = 0  # a branch's leaves are consecutive
    for branch, _, order, value in leaves:
        if value == base_value and branch != recorded:
            recorded = branch
            perm = [0] * g.n
            for v, w in zip(base_order, order):
                perm[v] = w
            generators.append(tuple(perm))
    return generators


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: count byte, then packed triangle bits."""
    value = min(leaf[3] for leaf in _checked_leaves(g, [g.full_mask]))
    nbits = g.n * (g.n - 1) // 2
    nbytes = (nbits + 7) // 8
    return bytes([g.n]) + (value << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def rooted_canonical_bits(g: Graph, v: int) -> int:
    """Canonical bits among labelings that place v first."""
    g._check_vertex(v)
    # at n = 1 the second cell is empty, which _refine keeps as it is
    return min(leaf[3] for leaf in _checked_leaves(g, [1 << v, g.full_mask ^ (1 << v)]))

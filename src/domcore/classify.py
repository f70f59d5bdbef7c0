"""Vertex classification relative to minimum dominating sets.

Every vertex lands in exactly one membership class: CORE (in every
minimum dominating set), ANTICORE (in none), or CORONA_ONLY (in some
but not all).  Orthogonally, removing a vertex moves the domination
number up (PLUS), not at all (ZERO), or down (MINUS).

Two routes compute the same classification.  The definitional route
enumerates every minimum dominating set and reads membership off the
intersection and union; it is the reference.  The structural route
never enumerates and never builds a graph: it runs feasibility probes
on closed-neighborhood masks.  Deleting v clears bit v from every mask
and from the vertex set, so no index shifts.  The removal class needs
only the sign of the change, so two probes on the deleted masks (at
budgets gamma and gamma - 1) give it.  A vertex u lies in no minimum
set exactly when no set of gamma - 1 vertices dominates what N[u]
leaves undominated (the pendant argument: a pendant at u raises gamma
iff u is in no minimum set).  Core membership reduces to the removal
class plus that anticore probe on each neighbor in the deleted masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    add_pendant,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    bits,
    closed_masks,
    delete_vertex,
)
from .solve import (
    ALL_SETS_MAX,
    _exists_dominating,
    all_minimum_dominating_sets,
    core_and_corona,
    exists_dominating_within,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    gamma_value,
)


class RemovalClass(enum.Enum):
    PLUS = "PLUS"
    ZERO = "ZERO"
    MINUS = "MINUS"


class MembershipClass(enum.Enum):
    CORE = "CORE"
    CORONA_ONLY = "CORONA_ONLY"
    ANTICORE = "ANTICORE"


@dataclass(frozen=True)
class VertexClassification:
    vertex: int
    removal: RemovalClass
    membership: MembershipClass


@dataclass(frozen=True)
class ClassificationReport:
    gamma: int
    vertices: tuple[VertexClassification, ...]

    def mask_of_removal(self, cls: RemovalClass) -> int:
        m = 0
        for vc in self.vertices:
            if vc.removal is cls:
                m |= 1 << vc.vertex
        return m

    def mask_of_membership(self, cls: MembershipClass) -> int:
        m = 0
        for vc in self.vertices:
            if vc.membership is cls:
                m |= 1 << vc.vertex
        return m

    @property
    def core_mask(self) -> int:
        return self.mask_of_membership(MembershipClass.CORE)

    @property
    def anticore_mask(self) -> int:
        return self.mask_of_membership(MembershipClass.ANTICORE)

    @property
    def corona_mask(self) -> int:
        return self.core_mask | self.mask_of_membership(MembershipClass.CORONA_ONLY)

    def summary(self) -> dict[str, int]:
        return {
            "plus": self.mask_of_removal(RemovalClass.PLUS).bit_count(),
            "zero": self.mask_of_removal(RemovalClass.ZERO).bit_count(),
            "minus": self.mask_of_removal(RemovalClass.MINUS).bit_count(),
            "core": self.core_mask.bit_count(),
            "corona_only": self.mask_of_membership(MembershipClass.CORONA_ONLY).bit_count(),
            "anticore": self.anticore_mask.bit_count(),
        }


def _delete(closed: list[int], full: int, v: int) -> tuple[list[int], int]:
    """Closed masks and vertex set of the graph with v deleted, indices kept."""
    keep = ~(1 << v)
    return [c & keep for c in closed], full & keep


def _removal(h: list[int], h_full: int, gamma: int) -> RemovalClass:
    """Removal class from two probes on the masks of the deleted graph."""
    if not _exists_dominating(h, h_full, gamma):
        return RemovalClass.PLUS
    if _exists_dominating(h, h_full, gamma - 1):
        return RemovalClass.MINUS
    return RemovalClass.ZERO


def _in_no_minimum_set(closed: list[int], full: int, u: int, gamma: int) -> bool:
    """True if u is in no dominating set of size gamma, the domination number.

    Such a set would be u plus at most gamma - 1 vertices dominating
    everything outside N[u].
    """
    return not _exists_dominating(closed, full, gamma - 1, closed[u])


def _classify_vertex(closed: list[int], full: int, v: int, gamma: int) -> VertexClassification:
    """Removal and membership class of v by the structural route.

    v is in the core exactly when it is isolated, or deleting it raises
    gamma, or deleting it keeps gamma while every neighbor is in the
    anticore of the deleted graph (no surviving minimum set dominates v).
    """
    h, h_full = _delete(closed, full, v)
    removal = _removal(h, h_full, gamma)
    neighbors = closed[v] & h_full
    if removal is RemovalClass.PLUS or not neighbors:
        membership = MembershipClass.CORE
    elif removal is RemovalClass.ZERO and all(
        _in_no_minimum_set(h, h_full, u, gamma) for u in bits(neighbors)
    ):
        membership = MembershipClass.CORE
    elif _in_no_minimum_set(closed, full, v, gamma):
        membership = MembershipClass.ANTICORE
    else:
        membership = MembershipClass.CORONA_ONLY
    return VertexClassification(v, removal, membership)


def _vertex(g: Graph, v: int, gamma: int | None) -> VertexClassification:
    """Structural classification of one vertex; gamma, if given, must be gamma(g)."""
    g._check_vertex(v)
    if gamma is None:
        gamma = gamma_value(g)
    return _classify_vertex(closed_masks(g), g.full_mask, v, gamma)


def removal_class(g: Graph, v: int, gamma: int | None = None) -> RemovalClass:
    """How gamma changes when v is deleted: PLUS up, MINUS down, ZERO same."""
    return _vertex(g, v, gamma).removal


def in_anticore(g: Graph, v: int, gamma: int | None = None) -> bool:
    """True if no minimum dominating set contains v."""
    return _vertex(g, v, gamma).membership is MembershipClass.ANTICORE


def in_core(g: Graph, v: int, gamma: int | None = None) -> bool:
    """True if every minimum dominating set contains v."""
    return _vertex(g, v, gamma).membership is MembershipClass.CORE


def membership_class(g: Graph, v: int, gamma: int | None = None) -> MembershipClass:
    return _vertex(g, v, gamma).membership


def classify_all(g: Graph) -> ClassificationReport:
    """Classify every vertex by the structural route (no set enumeration)."""
    gamma = gamma_value(g)
    closed = closed_masks(g)
    full = g.full_mask
    rows = tuple(_classify_vertex(closed, full, v, gamma) for v in range(g.n))
    return ClassificationReport(gamma, rows)


def classify_by_enumeration(g: Graph) -> ClassificationReport:
    """Classify every vertex straight from the set of all minimum sets.

    The reference implementation: membership is literal intersection
    and union over the enumerated minimum dominating sets, and removal
    classes recompute gamma on each deleted graph.
    """
    if g.n > ALL_SETS_MAX:
        raise GraphError(f"enumeration route is limited to {ALL_SETS_MAX} vertices")
    report = all_minimum_dominating_sets(g)
    core = g.full_mask
    corona = 0
    for s in report.all_sets or ():
        core &= s
        corona |= s
    rows = []
    for v in range(g.n):
        delta = gamma_value(delete_vertex(g, v)) - report.gamma
        removal = (
            RemovalClass.PLUS
            if delta > 0
            else RemovalClass.MINUS if delta < 0 else RemovalClass.ZERO
        )
        if (core >> v) & 1:
            membership = MembershipClass.CORE
        elif not (corona >> v) & 1:
            membership = MembershipClass.ANTICORE
        else:
            membership = MembershipClass.CORONA_ONLY
        rows.append(VertexClassification(v, removal, membership))
    return ClassificationReport(report.gamma, tuple(rows))


def classification_masks(
    g: Graph, gamma: int | None = None, core_corona: tuple[int, int] | None = None
) -> dict[str, int]:
    """Class bitmasks for signature evaluation, by the definitional route.

    Keys: plus, zero, minus, core, corona_only, anticore.  Membership
    masks come from folding the minimum-set stream (or the precomputed
    core_corona pair); removal masks from budget probes per vertex.
    """
    if gamma is None:
        gamma = gamma_value(g)
    core, corona = core_corona if core_corona is not None else core_and_corona(g)
    closed = closed_masks(g)
    removal = dict.fromkeys(RemovalClass, 0)
    for v in range(g.n):
        removal[_removal(*_delete(closed, g.full_mask, v), gamma)] |= 1 << v
    return {
        "plus": removal[RemovalClass.PLUS],
        "zero": removal[RemovalClass.ZERO],
        "minus": removal[RemovalClass.MINUS],
        "core": core,
        "corona_only": corona & ~core,
        "anticore": g.full_mask & ~corona,
    }


def report_to_dict(report: ClassificationReport) -> dict:
    """JSON-ready dict with a fixed key order."""
    return {
        "gamma": report.gamma,
        "vertices": [
            {
                "id": vc.vertex,
                "removal": vc.removal.value,
                "membership": vc.membership.value,
            }
            for vc in report.vertices
        ],
        "summary": report.summary(),
    }

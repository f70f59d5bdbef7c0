"""Vertex classification relative to minimum dominating sets.

Every vertex lands in exactly one membership class: CORE (in every
minimum dominating set), ANTICORE (in none), or CORONA_ONLY (in some
but not all).  Orthogonally, removing a vertex moves the domination
number up (PLUS), not at all (ZERO), or down (MINUS).

Two routes compute the same classification on every graph.  The
definitional route, the reference, folds every minimum dominating set
into their intersection and union (core_and_corona, which lists none)
and reads membership off them.  The structural route never builds a
graph: it runs feasibility probes on closed-neighborhood masks.
Deleting v takes only v out of the vertex set: the probes run on G's
own masks, where a vertex outside the vertex set is never undominated
and never picked, so no mask is copied and no index shifts.  The
removal class needs only the sign of the change, so two probes on
G - v (at budgets gamma and gamma - 1) give it.  A vertex u lies in no
minimum set exactly when no set of gamma - 1 vertices dominates what
N[u] leaves undominated (the pendant argument: a pendant at u raises
gamma iff u is in no minimum set).  Core membership reduces to the
removal class plus that anticore probe on each neighbor in G - v.

The structural route probes in this order: an isolated vertex is
(MINUS, CORE) with no probe; otherwise the anticore probe runs first,
and only a vertex it does not settle gets the two removal probes, then,
if ZERO, the anticore probes of its neighbors in G - v.  Two facts make
that order sound (Bauer, Harary, Nieminen and Suffel, "Domination
alteration sets in graphs", 1983):

- A vertex v in no minimum set is ZERO.  A minimum set avoids v, so it
  dominates G - v; and a dominating set of G - v of size gamma - 1 plus
  v would be a minimum set containing v.
- A non-isolated MINUS vertex v is in some but not every minimum set.
  A dominating set D of G - v of size gamma - 1 gives the minimum sets
  D + v and D + u, for any neighbor u of v.

A probe that succeeds returns its picks, and each such answer names
minimum sets of G: anticore picks P for v give P + v; MINUS picks D
for v give D + v and D + u over the neighbors u; neighbor picks P for
u in G - v give P + u, which dominates v through u.  classify_all
folds them, over all vertices, into two masks: inside, the union of
the sets found, and avoided, the union of their complements.  A probe
that a found set already answers is skipped:

- v in inside is in some minimum set, so not ANTICORE: no anticore
  probe.
- v in avoided is avoided by a minimum set, which dominates G - v, so
  gamma(G - v) <= gamma: no PLUS probe.
- a ZERO v in avoided is not in the core, so CORONA_ONLY: no neighbor
  probes.

The definitional route, classification_masks included, uses neither
fact, so verify's membership-remarks check tests both against it.
classification_masks skips the PLUS probe outside the core by the
core's own definition (the intersection of all minimum sets): a vertex
outside it is avoided by some minimum set, which dominates G - v.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph import (
    Graph,
    add_pendant,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    bits,
    closed_masks,
    delete_vertex,
)
from .solve import (
    _exists_dominating,
    all_minimum_dominating_sets,  # noqa: F401 -- not called here; bench/tracing.py binds this name
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


# a class's name in CLASSES, masks() and signatures is its value in lower case
_NAME = {cls: cls.value.lower() for cls in (*RemovalClass, *MembershipClass)}
CLASSES = tuple(_NAME.values())  # plus, zero, minus, core, corona_only, anticore


@dataclass(frozen=True)
class ClassificationReport:
    gamma: int
    vertices: tuple[VertexClassification, ...]

    def masks(self) -> dict[str, int]:
        """The vertex mask of each class, keyed by CLASSES."""
        out = dict.fromkeys(CLASSES, 0)
        for vc in self.vertices:
            out[_NAME[vc.removal]] |= 1 << vc.vertex
            out[_NAME[vc.membership]] |= 1 << vc.vertex
        return out

    def summary(self) -> dict[str, int]:
        return {name: m.bit_count() for name, m in self.masks().items()}


def _structural_rows(
    closed: list[int], full: int, gamma: int, vertices: Iterable[int]
) -> Iterator[VertexClassification]:
    """Removal and membership class of each vertex by the structural route.

    In the probe order of the module docstring.  A ZERO vertex is in
    the core exactly when every neighbor u is in the anticore of G - v,
    so that no minimum set of G - v dominates v.  inside and avoided
    start empty and fold every minimum set a probe finds, for the
    vertices still to come.
    """
    inside = avoided = 0
    for v in vertices:
        bit = 1 << v
        neighbors = closed[v] & ~bit
        if not neighbors:
            yield VertexClassification(v, RemovalClass.MINUS, MembershipClass.CORE)
            continue
        rest = full & ~bit
        if not inside & bit:
            picks = _exists_dominating(closed, full, gamma - 1, closed[v])
            if picks is None:
                yield VertexClassification(v, RemovalClass.ZERO, MembershipClass.ANTICORE)
                continue
            inside |= picks | bit
            avoided |= rest & ~picks
        if not avoided & bit and _exists_dominating(closed, rest, gamma) is None:
            yield VertexClassification(v, RemovalClass.PLUS, MembershipClass.CORE)
            continue
        picks = _exists_dominating(closed, rest, gamma - 1)
        if picks is not None:
            # the sets D + v and D + u over the neighbors u
            inside |= picks | closed[v]
            avoided |= full & ~picks
            yield VertexClassification(v, RemovalClass.MINUS, MembershipClass.CORONA_ONLY)
            continue
        membership = MembershipClass.CORONA_ONLY
        if not avoided & bit:
            for u in bits(neighbors):
                picks = _exists_dominating(closed, rest, gamma - 1, closed[u])
                if picks is not None:
                    inside |= picks | (1 << u)
                    avoided |= full & ~(picks | (1 << u))
                    break
            else:
                membership = MembershipClass.CORE
        yield VertexClassification(v, RemovalClass.ZERO, membership)


def classify_vertex(g: Graph, v: int) -> VertexClassification:
    """Structural classification of one vertex."""
    g._check_vertex(v)
    return next(_structural_rows(closed_masks(g), g.full_mask, gamma_value(g), (v,)))


def classify_all(g: Graph) -> ClassificationReport:
    """Classify every vertex by the structural route (no set enumeration)."""
    gamma = gamma_value(g)
    rows = tuple(_structural_rows(closed_masks(g), g.full_mask, gamma, range(g.n)))
    return ClassificationReport(gamma, rows)


def classify_by_enumeration(g: Graph) -> ClassificationReport:
    """Classify every vertex by the definitional route.

    The reference implementation: membership is the intersection and
    union over every minimum dominating set, folded by core_and_corona,
    and removal classes recompute gamma on each deleted graph.
    """
    gamma = gamma_value(g)
    core, corona = core_and_corona(g, gamma)
    rows = []
    for v in range(g.n):
        delta = gamma_value(delete_vertex(g, v)) - gamma
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
    return ClassificationReport(gamma, tuple(rows))


def classification_masks(
    g: Graph, gamma: int | None = None, core_corona: tuple[int, int] | None = None
) -> dict[str, int]:
    """Class bitmasks for signature evaluation, by the definitional route.

    Keyed by CLASSES, as ClassificationReport.masks().  Membership
    masks come from folding every minimum set; core_corona, if
    given, must be core_and_corona(g).  Removal masks come from budget
    probes on G - v, and the budget-gamma (PLUS) probe runs
    on core vertices only: a vertex outside the core is avoided by some
    minimum set, which dominates G - v, so gamma(G - v) <= gamma.
    """
    if gamma is None:
        gamma = gamma_value(g)
    core, corona = core_corona if core_corona is not None else core_and_corona(g, gamma)
    closed = closed_masks(g)
    full = g.full_mask
    plus = minus = 0
    for v in range(g.n):
        rest = full & ~(1 << v)
        if (core >> v) & 1 and _exists_dominating(closed, rest, gamma) is None:
            plus |= 1 << v
        elif _exists_dominating(closed, rest, gamma - 1) is not None:
            minus |= 1 << v
    return {
        "plus": plus,
        "zero": full & ~(plus | minus),
        "minus": minus,
        **membership_masks(g, core, corona),
    }


def membership_masks(g: Graph, core: int, corona: int) -> dict[str, int]:
    """Membership class masks (core, corona_only, anticore) from core_and_corona(g)."""
    return {"core": core, "corona_only": corona & ~core, "anticore": g.full_mask & ~corona}


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

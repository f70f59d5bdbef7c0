"""Declarative vertex-partition signatures and exhaustive witness search.

A PartitionSignature states requirements on the class masks of one
graph: certain classes (or intersections like "core&zero") must be
nonempty or empty, have an exact size, cover the vertex set, or contain
a cut vertex.  A signature may also name a graph class (graph_class, a
membership test); it then holds only on graphs of that class.
Signatures evaluate against the definitional classification masks
(minimum-set enumeration for membership, budget probes for removal, the
PLUS probe on core vertices only), never against the structural
theorems, so search results stay independent of the theorems the
package verifies.

One step, evaluate_signatures(g, sigs), judges a graph against several
signatures at once; search_signature runs it with one signature on each
graph of the connected-graph stream, order by order, and the nine-vertex
sweep with two.  Each signature's graph class is tested first, before
gamma.  Then, for the signatures left, gamma, core and corona are solved
once, and each signature's cheap necessary test on the membership masks
alone (feasible_by_membership) runs before any removal probes.  The
classification masks are computed at most once, only when some
signature passes that test.

The prefilter is sound: replacing each removal atom by the full vertex
set relaxes every expression to a superset, and the monotone
requirements (nonempty, exact as a lower bound, cover, cut_vertex_in)
can only gain from larger masks, so one of them failing on the relaxed
masks is a sound rejection.  evaluate runs the same monotone walk on the
true masks, then the empty requirements and the exact sizes.  The
prefilter does not test empty requirements, so how much it rejects
depends on the signature: min-plus-zero-minus-empty-anticore, whose
nonempty atoms are all removal classes, passes every graph (all 11117 at
n = 8).  Budgets (graph-count caps) are reported in the result, and a
scan that reaches its ceiling without a witness is an explicit
"exhausted" outcome rather than a silent pass.

The search grows the stream order by order, and the caller holds the
parents: the graphs of order n, read back with their verdicts, are the
parents of order n + 1 (enumeration.map_children), so each graph is
expanded once per call and the main process never enumerates.  It holds
one order's graphs at a time: the graphs of the last order come back
only when they are witnesses.  With jobs > 1 one process pool serves
the whole call.  The parent sends the parents to the workers in chunks,
at most two per worker unread, cancelling those not started when the
scan stops; the workers build and judge the children, whose results are
read in stream order, so the result does not depend on jobs.  The
signature is pickled with each chunk, so its graph_class must then be a
module-level function.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice

from .classify import CLASSES, classification_masks, membership_masks
from .enumeration import (
    ENUMERATION_MAX,
    NULL_GRAPH,
    _ordered_map,
    enumerate_connected,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    map_children,
)
from .graph import Graph, GraphError, bits, cut_vertices
from .graph6 import (
    parse_graph6,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    write_graph6,
)
from .recognize import contains_induced, is_bipartite
from .solve import core_and_corona, gamma_value


@dataclass(frozen=True)
class PartitionSignature:
    """Requirements on one graph's class masks.

    Expressions are names from classify.CLASSES joined by '&'
    (intersection); construction checks them, and the exact sizes, once.
    nonempty / empty: expressions that must / must not have vertices.
    exact: expression -> required exact cardinality.
    cover: expressions whose union must be the whole vertex set.
    cut_vertex_in: expression that must contain a cut vertex.
    graph_class: membership test of the graph class the signature ranges
    over, or None for every graph.
    """

    name: str
    description: str
    nonempty: tuple[str, ...] = ()
    empty: tuple[str, ...] = ()
    exact: tuple[tuple[str, int], ...] = ()
    cover: tuple[str, ...] = ()
    cut_vertex_in: str | None = None
    graph_class: Callable[[Graph], bool] | None = None

    def __post_init__(self) -> None:
        if self.graph_class is not None and not callable(self.graph_class):
            raise GraphError(f"graph_class of signature {self.name} must be callable")
        cut = () if self.cut_vertex_in is None else (self.cut_vertex_in,)
        for expr in (*self.nonempty, *self.empty, *(e for e, _ in self.exact), *self.cover, *cut):
            if not isinstance(expr, str) or not set(expr.split("&")).issubset(CLASSES):
                raise GraphError(f"bad class expression {expr!r} in signature {self.name}")
        for expr, size in self.exact:
            if type(size) is not int or size < 0:
                raise GraphError(f"bad size {size!r} for {expr!r} in signature {self.name}")

    @staticmethod
    def _mask(expr: str, masks: dict[str, int], full: int) -> int:
        value = full
        for atom in expr.split("&"):
            value &= masks[atom]
        return value

    def _monotone(self, g: Graph, masks: dict[str, int]) -> bool:
        """The requirements that larger masks can only help: nonempty,
        exact as a lower bound, cover and cut_vertex_in."""
        full = g.full_mask
        for expr in self.nonempty:
            if not self._mask(expr, masks, full):
                return False
        for expr, size in self.exact:
            if self._mask(expr, masks, full).bit_count() < size:
                return False
        if self.cover:
            union = 0
            for expr in self.cover:
                union |= self._mask(expr, masks, full)
            if union != full:
                return False
        if self.cut_vertex_in is None:
            return True
        # an empty mask fails without the cut-vertex DFS
        cut = self._mask(self.cut_vertex_in, masks, full)
        return bool(cut) and bool(cut & cut_vertices(g))

    def evaluate(self, g: Graph, masks: dict[str, int]) -> bool:
        if self.graph_class is not None and not self.graph_class(g):
            return False
        full = g.full_mask
        return (
            self._monotone(g, masks)
            and not any(self._mask(expr, masks, full) for expr in self.empty)
            and all(self._mask(expr, masks, full).bit_count() == size for expr, size in self.exact)
        )

    def feasible_by_membership(self, g: Graph, membership: dict[str, int]) -> bool:
        """Sound rejection test using membership masks only.

        Removal atoms relax to the full set, making every expression a
        superset of its true value; monotone requirements that fail even
        then cannot be met.
        """
        full = g.full_mask
        return self._monotone(g, dict(membership, plus=full, zero=full, minus=full))


def has_k4(g: Graph) -> bool:
    """True if g contains four pairwise adjacent vertices."""
    for u in range(g.n):
        for v in bits(g.adj[u]):
            if v <= u:
                continue
            common = g.adj[u] & g.adj[v]
            for w in bits(common):
                if common & g.adj[w] & ~((1 << (w + 1)) - 1):
                    return True
    return False


def line_graph_family_filter(g: Graph) -> bool:
    """(claw, K4, net, diamond)-free membership test."""
    return (
        not contains_induced(g, "claw")
        and not has_k4(g)
        and not contains_induced(g, "diamond")
        and not contains_induced(g, "net")
    )


def cubic_bipartite_filter(g: Graph) -> bool:
    """Connected 3-regular bipartite membership test."""
    return all(a.bit_count() == 3 for a in g.adj) and is_bipartite(g)


SIGNATURES: dict[str, PartitionSignature] = {
    sig.name: sig
    for sig in (
        PartitionSignature(
            name="min-plus-zero-minus-empty-anticore",
            description="every removal class occupied while every vertex lies in some minimum set",
            nonempty=("plus", "zero", "minus"),
            empty=("anticore",),
        ),
        PartitionSignature(
            name="all-zero-nonempty-core",
            description="deleting any vertex keeps gamma, yet some vertex is in every minimum set",
            nonempty=("core",),
            empty=("plus", "minus"),
        ),
        PartitionSignature(
            name="one-plus-rest-zero-nonempty-core-zero",
            description="exactly one vertex raises gamma on deletion, the rest keep it, and the core reaches into the zero class",
            nonempty=("core&zero",),
            empty=("minus",),
            exact=(("plus", 1),),
        ),
        PartitionSignature(
            name="cut-vertex-in-core-zero",
            description="a cut vertex lies in every minimum set although deleting it keeps gamma",
            cut_vertex_in="core&zero",
        ),
        PartitionSignature(
            name="cover-core-zero-anticore",
            description="every vertex is either in all minimum sets without affecting gamma, or in none",
            cover=("core&zero", "anticore"),
        ),
        PartitionSignature(
            name="claw-k4-net-diamond-free-core-zero",
            description="a graph in the (claw,K4,net,diamond)-free family whose core reaches into the zero class",
            nonempty=("core&zero",),
            graph_class=line_graph_family_filter,
        ),
        PartitionSignature(
            name="cubic-bipartite-core-zero",
            description="a 3-regular bipartite graph whose core reaches into the zero class",
            nonempty=("core&zero",),
            graph_class=cubic_bipartite_filter,
        ),
    )
}

@dataclass(frozen=True)
class OrderScan:
    """Outcome of scanning every connected graph on one vertex count; the
    fields, in order, are a scan's keys in SearchResult.to_dict."""

    n: int
    graphs_scanned: int
    witness_count: int
    complete: bool


@dataclass(frozen=True)
class SearchResult:
    signature: str
    n_max: int
    scans: tuple[OrderScan, ...]
    witnesses: tuple[tuple[int, Graph], ...]
    budget_exceeded: bool

    @property
    def exhausted(self) -> bool:
        """True when every order up to n_max was fully scanned, no witness."""
        return (
            not self.witnesses
            and not self.budget_exceeded
            and len(self.scans) == self.n_max
            and all(s.complete for s in self.scans)
        )

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "n_max": self.n_max,
            "scans": [asdict(s) for s in self.scans],
            "witnesses": [
                {"n": n, "graph6": write_graph6(g)} for n, g in self.witnesses
            ],
            "exhausted": self.exhausted,
            "budget_exceeded": self.budget_exceeded,
        }


def evaluate_signatures(g: Graph, sigs: tuple[PartitionSignature, ...]) -> tuple[bool, ...]:
    """Each signature's verdict on g, in order, solving g at most once.

    Graph classes first; then, if a signature is left, one gamma and one
    core and corona, and each survivor's membership prefilter on one
    membership dict; then, if one is still left, one classification_masks
    call for every survivor's evaluate.  A signature dropped on the way
    is False.
    """
    verdicts = [sig.graph_class is None or sig.graph_class(g) for sig in sigs]
    if any(verdicts):
        gamma = gamma_value(g)
        core, corona = core_and_corona(g, gamma)
        membership = membership_masks(g, core, corona)
        verdicts = [ok and sig.feasible_by_membership(g, membership) for ok, sig in zip(verdicts, sigs)]
        if any(verdicts):
            masks = classification_masks(g, gamma, (core, corona))
            verdicts = [ok and sig.evaluate(g, masks) for ok, sig in zip(verdicts, sigs)]
    return tuple(verdicts)


def _judged(sig: PartitionSignature, keep: bool, g: Graph) -> tuple[Graph | None, bool]:
    """(g, whether g satisfies sig), with None for a g that fails sig
    unless keep: a worker sends back only the graphs its caller keeps."""
    hit = evaluate_signatures(g, (sig,))[0]
    return (g if keep or hit else None), hit


def search_signature(
    n_max: int,
    sig: PartitionSignature,
    stop_at_first_order: bool = True,
    max_graphs: int | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Scan connected graphs by order for signature witnesses.

    Orders run 1..n_max; with stop_at_first_order the scan finishes the
    first order containing a witness and stops (smallest-order witnesses
    are always complete).  max_graphs caps the total number of graphs
    examined; hitting the cap marks the result budget_exceeded.  jobs > 1
    opens one pool of that many workers, at most the CPU count, for the
    call, and results do not change.  The graphs of each order below
    n_max come back from the map and are the parents of the next order,
    so no process enumerates them twice and the caller holds one order
    at a time (at n_max = 10 the 261080 graphs of order 9, about 72 MB).
    The signature goes to the workers pickled, so with jobs > 1 its
    graph_class must be a module-level function; a lambda raises.

    The count of examined graphs is exact, but the work is not: past the
    cap, one parent's children (jobs = 1) or 2 * workers chunks of parents
    (jobs > 1; unstarted ones are cancelled) may be evaluated and discarded.
    """
    if not 1 <= n_max <= ENUMERATION_MAX:
        raise GraphError(f"search covers n_max 1..{ENUMERATION_MAX}")
    scans: list[OrderScan] = []
    witnesses: list[tuple[int, Graph]] = []
    examined = 0
    budget_exceeded = False
    parents = [NULL_GRAPH]
    with _ordered_map(jobs) as ordered_map:
        for n in range(1, n_max + 1):
            keep = n < n_max
            judged = map_children(ordered_map, partial(_judged, sig, keep), parents)
            budget = None if max_graphs is None else max(max_graphs - examined, 0)
            scanned = 0
            kept: list[Graph] = []
            found: list[Graph] = []
            for g, hit in islice(judged, budget):
                scanned += 1
                if keep:
                    kept.append(g)
                if hit:
                    found.append(g)
            examined += scanned
            # an order that used up the budget is cut short only if a graph is left
            complete = scanned != budget or next(judged, None) is None
            budget_exceeded = not complete
            scans.append(OrderScan(n, scanned, len(found), complete))
            witnesses.extend((n, g) for g in found)
            if budget_exceeded or (found and stop_at_first_order):
                break
            parents = kept
    return SearchResult(sig.name, n_max, tuple(scans), tuple(witnesses), budget_exceeded)


def write_witness_file(result: SearchResult, directory: str) -> str:
    """Persist witnesses as graph6 lines; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.signature}.g6")
    with open(path, "w") as fh:
        fh.write(f"# signature: {result.signature}\n")
        fh.write(f"# n_max: {result.n_max}\n")
        for n, g in result.witnesses:
            fh.write(write_graph6(g) + "\n")
    return path


def witness_directory() -> str:
    """Target directory for witness files; the env var overrides."""
    return os.environ.get("DOMCORE_WITNESS_DIR", "witnesses")

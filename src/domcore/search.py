"""Declarative vertex-partition signatures and exhaustive witness search.

A PartitionSignature states requirements on the class masks of one
graph: certain classes (or intersections like "core&zero") must be
nonempty or empty, have an exact size, cover the vertex set, or contain
a cut vertex.  Signatures evaluate against the definitional
classification masks (minimum-set enumeration for membership, budget
probes for removal), never against the structural theorems, so search
results stay independent of the theorems the package verifies.

search_signature scans the connected-graph stream order by order.  A
cheap necessary test using membership masks alone runs before any
removal probes: replacing each removal atom by the full vertex set
relaxes every expression to a superset, so a failed nonempty/cover/size
requirement on the relaxed masks is a sound rejection.  Empty
requirements are not tested, so how much it rejects depends on the
signature: min-plus-zero-minus-empty-anticore, whose nonempty atoms are
all removal classes, passes every graph (all 11117 at n = 8).  Budgets
(graph-count caps) are reported in the result, and a scan that reaches
its ceiling without a witness is an explicit "exhausted" outcome rather
than a silent pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import Pool

from .classify import classification_masks
from .enumeration import _batched, enumerate_connected
from .graph import Graph, GraphError, bits, cut_vertices
from .graph6 import parse_graph6, write_graph6
from .recognize import contains_induced, is_bipartite
from .solve import core_and_corona, gamma_value

ATOMS = ("plus", "zero", "minus", "core", "corona_only", "anticore")
_MEMBERSHIP_ATOMS = frozenset({"core", "corona_only", "anticore"})


@dataclass(frozen=True)
class PartitionSignature:
    """Requirements on one graph's class masks.

    Expressions are atoms from ATOMS joined by '&' (intersection).
    nonempty / empty: expressions that must / must not have vertices.
    exact: expression -> required exact cardinality.
    cover: expressions whose union must be the whole vertex set.
    cut_vertex_in: expression that must contain a cut vertex.
    """

    name: str
    description: str
    nonempty: tuple[str, ...] = ()
    empty: tuple[str, ...] = ()
    exact: tuple[tuple[str, int], ...] = ()
    cover: tuple[str, ...] = ()
    cut_vertex_in: str | None = None

    def _mask(self, expr: str, masks: dict[str, int], full: int) -> int:
        value = full
        for atom in expr.split("&"):
            if atom not in ATOMS:
                raise GraphError(f"unknown class atom {atom!r} in signature {self.name}")
            value &= masks[atom]
        return value

    def evaluate(self, g: Graph, masks: dict[str, int]) -> bool:
        full = g.full_mask
        for expr in self.nonempty:
            if not self._mask(expr, masks, full):
                return False
        for expr in self.empty:
            if self._mask(expr, masks, full):
                return False
        for expr, size in self.exact:
            if self._mask(expr, masks, full).bit_count() != size:
                return False
        if self.cover:
            union = 0
            for expr in self.cover:
                union |= self._mask(expr, masks, full)
            if union != full:
                return False
        if self.cut_vertex_in is not None:
            if not self._mask(self.cut_vertex_in, masks, full) & cut_vertices(g):
                return False
        return True

    def feasible_by_membership(self, g: Graph, membership: dict[str, int]) -> bool:
        """Sound rejection test using membership masks only.

        Removal atoms relax to the full set, making every expression a
        superset of its true value; requirements that fail even then
        cannot be met.
        """
        full = g.full_mask

        def relaxed(expr: str) -> int:
            value = full
            for atom in expr.split("&"):
                if atom in _MEMBERSHIP_ATOMS:
                    value &= membership[atom]
            return value

        for expr in self.nonempty:
            if not relaxed(expr):
                return False
        for expr, size in self.exact:
            if relaxed(expr).bit_count() < size:
                return False
        if self.cover:
            union = 0
            for expr in self.cover:
                union |= relaxed(expr)
            if union != full:
                return False
        if self.cut_vertex_in is not None:
            if not relaxed(self.cut_vertex_in) & cut_vertices(g):
                return False
        return True


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
        ),
        PartitionSignature(
            name="cubic-bipartite-core-zero",
            description="a 3-regular bipartite graph whose core reaches into the zero class",
            nonempty=("core&zero",),
        ),
    )
}

# filters tied to registered signatures (searches pass them explicitly)
SIGNATURE_FILTERS = {
    "claw-k4-net-diamond-free-core-zero": line_graph_family_filter,
    "cubic-bipartite-core-zero": cubic_bipartite_filter,
}

# registry entries the default search commands expose; the cubic
# bipartite scan is heavy and stays opt-in
DEFAULT_SIGNATURE_NAMES = (
    "min-plus-zero-minus-empty-anticore",
    "all-zero-nonempty-core",
    "one-plus-rest-zero-nonempty-core-zero",
    "cut-vertex-in-core-zero",
    "cover-core-zero-anticore",
    "claw-k4-net-diamond-free-core-zero",
)

SEARCH_MAX = 10


@dataclass(frozen=True)
class OrderScan:
    """Outcome of scanning every connected graph on one vertex count."""

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
            "scans": [
                {
                    "n": s.n,
                    "graphs_scanned": s.graphs_scanned,
                    "witness_count": s.witness_count,
                    "complete": s.complete,
                }
                for s in self.scans
            ],
            "witnesses": [
                {"n": n, "graph6": write_graph6(g)} for n, g in self.witnesses
            ],
            "exhausted": self.exhausted,
            "budget_exceeded": self.budget_exceeded,
        }


def evaluate_signature(sig: PartitionSignature, g: Graph) -> bool:
    """Full evaluation: membership prefilter, then classification masks."""
    gamma = gamma_value(g)
    core, corona = core_and_corona(g)
    membership = {
        "core": core,
        "corona_only": corona & ~core,
        "anticore": g.full_mask & ~corona,
    }
    if not sig.feasible_by_membership(g, membership):
        return False
    masks = classification_masks(g, gamma, (core, corona))
    return sig.evaluate(g, masks)


_WORKER_STATE: dict = {}


def _search_worker_init(sig: PartitionSignature, filter_name: str | None) -> None:
    _WORKER_STATE["sig"] = sig
    _WORKER_STATE["filter"] = SIGNATURE_FILTERS.get(filter_name) if filter_name else None


def _search_worker(batch: list[str]) -> list[str]:
    sig = _WORKER_STATE["sig"]
    class_filter = _WORKER_STATE["filter"]
    hits = []
    for text in batch:
        g = parse_graph6(text)
        if class_filter is not None and not class_filter(g):
            continue
        if evaluate_signature(sig, g):
            hits.append(text)
    return hits


def search_signature(
    n_max: int,
    sig: PartitionSignature,
    class_filter=None,
    stop_at_first_order: bool = True,
    max_graphs: int | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Scan connected graphs by order for signature witnesses.

    Orders run 1..n_max; with stop_at_first_order the scan finishes the
    first order containing a witness and stops (smallest-order witnesses
    are always complete).  max_graphs caps the total number of graphs
    examined; hitting the cap marks the result budget_exceeded.  jobs
    parallelizes evaluation within each order without changing results.
    """
    if not 1 <= n_max <= SEARCH_MAX:
        raise GraphError(f"search covers n_max 1..{SEARCH_MAX}")
    if class_filter is not None and not callable(class_filter):
        raise GraphError("class_filter must be callable")
    scans: list[OrderScan] = []
    witnesses: list[tuple[int, Graph]] = []
    examined = 0
    budget_exceeded = False
    filter_name = None
    if class_filter is not None:
        for name, fn in SIGNATURE_FILTERS.items():
            if fn is class_filter:
                filter_name = name
                break
    # workers receive filters by registry name; an ad-hoc callable
    # cannot cross the process boundary, so it forces sequential mode
    use_pool = jobs > 1 and (class_filter is None or filter_name is not None)
    for n in range(1, n_max + 1):
        scanned = 0
        found: list[Graph] = []
        complete = True

        def capped_stream():
            nonlocal examined, budget_exceeded, complete, scanned
            for g in enumerate_connected(n):
                if max_graphs is not None and examined >= max_graphs:
                    budget_exceeded = True
                    complete = False
                    return
                examined += 1
                scanned += 1
                yield g

        if use_pool:
            batches = _batched((write_graph6(g) for g in capped_stream()), 256)
            with Pool(jobs, _search_worker_init, (sig, filter_name)) as pool:
                for hits in pool.imap(_search_worker, batches):
                    found.extend(parse_graph6(text) for text in hits)
        else:
            for g in capped_stream():
                if class_filter is not None and not class_filter(g):
                    continue
                if evaluate_signature(sig, g):
                    found.append(g)
        scans.append(OrderScan(n, scanned, len(found), complete))
        witnesses.extend((n, g) for g in found)
        if budget_exceeded:
            break
        if found and stop_at_first_order:
            break
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

"""Exhaustive invariant verification over the enumerated corpus.

verify_corpus(n_max) enumerates every connected graph up to n_max and
runs the package's full battery of cross-checks on each: solver against
brute force, structural classification against definitional, the
characterization theorems for removal and membership classes, the
class-specific results (chordal, cograph, claw-free variants,
bipartite claw-free, twin clique partitions), pattern search against a
subset-isomorphism oracle, and the plumbing invariants (graph surgery
round-trips, graph6, canonical relabeling).  Corpus-level checks
compare the stream's counts with two independent oracles.

Every per-graph check runs on every graph up to n_max.  Each check
reports the graphs it ran on and how many violations it found, and
keeps the first few as graph6 strings with messages.  For a per-graph
check that is the corpus total, whether or not the check's premise
held on a graph; the labeled oracle reports the labeled graphs it
covered.  A report passes only if every check has zero violations.

No oracle calls the code it checks.  The pattern oracle looks each
k-subset's induced edge mask up in a table of every labeled copy of
every order-k pattern, and graph surgery must give back exactly g with
the re-added vertex relabeled last.  The graphs these checks expect (g
with a vertex moved last, g with a leaf added, and the three relabeled
copies of the canonical-form check) are built by shifting, extending or
permuting g's adjacency masks, never through add_vertex, delete_vertex
or add_pendant, and surgery compares n and adj field by field.

At a root where every twin-clique part is a singleton, the reduced graph
h should be g with the root moved to vertex 0 and the vertices below it
shifted up, and neither twin-clique check solves h again.  The partition
check's blow-up identity proves that h is this relabeling, so h has g's
gamma.  The core correspondence compares h.adj exactly with g's masks so
shifted, one shift per mask: when they are equal it takes h's core and
anticore from g's own, shifted, and otherwise it folds h's minimum sets
from scratch (core_and_corona, the membership half of the definitional
route), so a forged partition gets the same verdict as a full solve.
_Ctx computes what several checks share once per graph: the minimum
sets, both classifications, the class tests is_tree, is_chordal,
is_bipartite, is_claw_free and is_cograph, and the answers of the whole
pattern catalog, from one catalog_contains pass that skips a pattern
once a pattern induced in it is absent.  The pattern oracle checks all
of those answers against its own table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations, permutations

from .canonical import canonical_form
from .classify import classify_all, classify_by_enumeration
from .enumeration import (
    LABELED_MAX,
    NULL_GRAPH,
    _ordered_map,
    count_connected_graphs,
    enumerate_connected,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    labeled_connected_bitmap,
    map_children,
    relabeling_closure_bitmap,
)
from .graph import (
    Graph,
    GraphError,
    add_pendant,
    add_vertex,
    bfs_layers,
    bits,
    closed_masks,
    connected_components,
    cut_vertices,
    delete_vertex,
    format_edge_list,
    is_dominating,
    mask_of,
    parse_edge_list,
    private_neighbors,
)
from .graph6 import parse_graph6, write_graph6
from .recognize import (
    PATTERNS,
    catalog_contains,
    contains_induced,  # noqa: F401 -- not called here; bench/tracing.py binds this name
    is_bipartite,
    is_chordal,
    is_claw_free,
    is_cograph,
    is_tree,
    twin_clique_partition,
)
from .solve import (
    all_minimum_dominating_sets,
    core_and_corona,
    gamma_bruteforce,
    gamma_exact,
    gamma_tree,
    independence_number,
    independent_domination_number,
)

VERIFY_MAX = 8
_VIOLATIONS_KEPT = 5


class _Ctx:
    """Per-graph scratchpad with lazily shared expensive artifacts."""

    def __init__(self, g: Graph):
        self.g = g
        self._once: dict = {}

    @cached_property
    def g6(self) -> str:
        return write_graph6(self.g)

    @cached_property
    def report(self):
        return all_minimum_dominating_sets(self.g)

    @cached_property
    def thm(self):
        return classify_all(self.g)

    @cached_property
    def enum(self):
        return classify_by_enumeration(self.g)

    @cached_property
    def masks(self) -> dict[str, int]:
        """The class masks of the definitional classification."""
        return self.enum.masks()

    @cached_property
    def ind(self):
        return independent_domination_number(self.g)

    @cached_property
    def closed(self) -> list[int]:
        return closed_masks(self.g)

    @cached_property
    def tcps(self) -> tuple:
        """twin_clique_partition at every root, in root order."""
        return tuple(twin_clique_partition(self.g, root) for root in range(self.g.n))

    def once(self, fn, *args):
        """fn(*args), computed at most once for this graph (a class test
        that several checks ask, a reduced graph that roots share); the
        memo dies with the graph."""
        key = (fn, args)
        if key not in self._once:
            self._once[key] = fn(*args)
        return self._once[key]

    @cached_property
    def catalog(self) -> dict[str, bool]:
        """catalog_contains(g): every pattern's answer, from one pass."""
        return catalog_contains(self.g)


def _check_graph_surgery(ctx: _Ctx):
    g = ctx.g
    for v in range(g.n):
        shells = bfs_layers(g, v) + [0]  # an isolated vertex has no layer 1
        if shells[0] != 1 << v:
            yield f"distance shell 0 of {v} is not the vertex itself"
        if shells[1] != g.adj[v]:
            yield f"distance shell 1 of {v} differs from its neighborhood"
    if not is_dominating(g, g.full_mask):
        yield "full vertex set fails to dominate"
    if g.n and is_dominating(g, 0):
        yield "empty set dominates a nonempty graph"
    comps = connected_components(g)
    if sum(comps) != g.full_mask or len(comps) != 1:
        yield "connected corpus graph does not have one full component"
    full = g.full_mask
    for u in range(g.n):
        pn = private_neighbors(g, u, full)
        if pn & ~ctx.closed[u]:
            yield f"private neighbors of {u} leak outside its closed neighborhood"
    leaf = 1 << g.n
    for v in range(g.n):
        back = mask_of(u - (u > v) for u in bits(g.adj[v]))
        h = add_vertex(delete_vertex(g, v), back)
        # g relabeled so that v is last and the vertices above it shift down
        last = [u - (u > v) for u in range(g.n)]
        last[v] = g.n - 1
        if h.n != g.n or h.adj != _relabeled(g, last):
            yield f"delete/re-add of {v} is not g with {v} moved last"
        h = add_pendant(g, v)
        if h.n != g.n + 1 or h.adj != (*g.adj[:v], g.adj[v] | leaf, *g.adj[v + 1 :], 1 << v):
            yield f"pendant on {v} is not g with a new leaf at {v}"
    if parse_edge_list(format_edge_list(g)) != g:
        yield "edge-list text round-trip changes the graph"


def _relabeled(g: Graph, perm) -> tuple[int, ...]:
    """Adjacency masks of the copy of g in which vertex u is perm[u]."""
    adj = [0] * g.n
    for u, a in enumerate(g.adj):
        mask = 0
        for w in bits(a):
            mask |= 1 << perm[w]
        adj[perm[u]] = mask
    return tuple(adj)


def _check_solver_oracle(ctx: _Ctx):
    fast = gamma_exact(ctx.g)
    slow = gamma_bruteforce(ctx.g)
    if fast.gamma != slow.gamma:
        yield f"gamma {fast.gamma} != brute-force {slow.gamma}"
    elif fast.witness != slow.witness:
        yield f"witness {fast.witness:b} != brute-force {slow.witness:b}"


def _check_gamma_chain(ctx: _Ctx):
    gamma = ctx.report.gamma
    ind = ctx.ind
    alpha = independence_number(ctx.g)
    if not gamma <= ind.gamma <= alpha:
        yield f"chain gamma={gamma} i={ind.gamma} alpha={alpha} broken"
    w = ind.witness
    if not is_dominating(ctx.g, w):
        yield "independent domination witness does not dominate"
    for v in bits(w):
        if ctx.g.adj[v] & w:
            yield "independent domination witness is not independent"
            break
    if w.bit_count() != ind.gamma:
        yield "independent domination witness size mismatch"


def _check_private_neighbors_in_sets(ctx: _Ctx):
    for s in ctx.report.all_sets:
        for u in bits(s):
            if not private_neighbors(ctx.g, u, s):
                yield f"member {u} of minimum set {s:b} has no private neighbor"
                return


def _check_tree_gamma(ctx: _Ctx):
    if ctx.once(is_tree, ctx.g):
        if gamma_tree(ctx.g) != ctx.report.gamma:
            yield "tree greedy disagrees with exact solver"


def _check_classifier_equivalence(ctx: _Ctx):
    if ctx.thm != ctx.enum:
        yield "structural classification differs from definitional"


def _check_membership_remarks(ctx: _Ctx):
    m = ctx.masks
    isolated = mask_of(v for v in range(ctx.g.n) if ctx.g.adj[v] == 0)
    if m["anticore"] & m["minus"]:
        yield "anticore vertex lowers gamma on deletion"
    if m["core"] & m["minus"] != isolated:
        yield "core vertices lowering gamma are not exactly the isolated ones"
    for kind, names in (
        ("membership", ("core", "corona_only", "anticore")),
        ("removal", ("plus", "zero", "minus")),
    ):
        if sum(m[name].bit_count() for name in names) != ctx.g.n:
            yield f"{kind} counts do not sum to n"


def _check_theorem_plus(ctx: _Ctx):
    g = ctx.g
    gamma = ctx.enum.gamma
    core, plus = ctx.masks["core"], ctx.masks["plus"]
    for v in range(g.n):
        outside = g.full_mask & ~ctx.closed[v]
        exists_avoiding = False
        for combo in combinations(bits(outside), gamma):
            s = mask_of(combo)
            covered = s
            for u in combo:
                covered |= g.adj[u]
            if covered | (1 << v) == g.full_mask:
                exists_avoiding = True
                break
        lhs = bool((plus >> v) & 1)
        rhs = g.adj[v] != 0 and bool((core >> v) & 1) and not exists_avoiding
        if lhs != rhs:
            yield f"removal-raises characterization fails at {v}"


def _check_theorem_minus(ctx: _Ctx):
    g = ctx.g
    minus = ctx.masks["minus"]
    for v in range(g.n):
        witness = False
        for s in ctx.report.all_sets:
            if (s >> v) & 1 and private_neighbors(g, v, s) == 1 << v:
                witness = True
                break
        if bool((minus >> v) & 1) != witness:
            yield f"removal-lowers characterization fails at {v}"


def _check_pendant_remark(ctx: _Ctx):
    g = ctx.g
    for v in range(g.n):
        h = add_pendant(g, v)
        u = g.n
        sets = all_minimum_dominating_sets(h).all_sets
        has_u = False
        has_v = False
        for s in sets:
            if not (s >> u) & 1 and not (s >> v) & 1:
                yield f"minimum set of pendant graph at {v} avoids both ends"
                return
            has_u = has_u or bool((s >> u) & 1)
            has_v = has_v or bool((s >> v) & 1)
        if has_u and not has_v:
            yield f"pendant graph at {v} has a set with the leaf but none with {v}"
            return


def _check_simplicial(ctx: _Ctx):
    g = ctx.g
    if g.n < 2:
        return
    core = ctx.masks["core"]
    for v in range(g.n):
        nv = ctx.closed[v]
        if all(nv & ~ctx.closed[u] == 0 for u in bits(nv)):
            if (core >> v) & 1:
                yield f"simplicial vertex {v} sits in the core"


def _is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        if s & ~(g.adj[v] | (1 << v)):
            return False
    return True


def _check_cut_vertex_lemma(ctx: _Ctx):
    g = ctx.g
    m = ctx.masks
    candidates = m["core"] & ~m["plus"]
    if not candidates:
        return
    for v in bits(candidates & cut_vertices(g)):
        rest = g.full_mask & ~(1 << v)
        if all(
            _is_clique(g, comp & g.adj[v]) for comp in connected_components(g, rest)
        ):
            yield f"clique-attachment cut vertex {v} in core does not raise gamma"


def _check_attachment_lemma(ctx: _Ctx):
    g = ctx.g
    if g.n < 2:
        return
    m = ctx.masks
    for v in bits(m["core"] & ~m["plus"]):
        outside = g.full_mask & ~ctx.closed[v]
        attachments = [
            g.adj[v] & _neighbors_of_mask(g, comp)
            for comp in connected_components(g, outside)
        ]
        if all(_is_clique(g, a) for a in attachments):
            yield f"clique attachment sets at core vertex {v} without gamma raise"


def _neighbors_of_mask(g: Graph, s: int) -> int:
    out = 0
    for v in bits(s):
        out |= g.adj[v]
    return out & ~s


def _check_core_is_plus(in_class, message: str, ctx: _Ctx):
    """Yield message if the graph has two or more vertices, passes
    in_class(ctx) and has a core other than its gamma-raising set."""
    if ctx.g.n < 2 or not in_class(ctx):
        return
    if ctx.masks["core"] != ctx.masks["plus"]:
        yield message


# the class tests look the recognizers up when called, so tests can patch them
_check_chordal_core = partial(
    _check_core_is_plus,
    lambda ctx: ctx.once(is_chordal, ctx.g),
    "chordal graph with core different from the gamma-raising set",
)


def _check_cograph_core(ctx: _Ctx):
    if ctx.g.n < 2 or not ctx.once(is_cograph, ctx.g):
        return
    core = ctx.masks["core"]
    if core.bit_count() > 1:
        yield "cograph with more than one core vertex"
    if core & ~ctx.masks["plus"]:
        yield "cograph core vertex that does not raise gamma"


_check_claw_p6_free_core = partial(
    _check_core_is_plus,
    lambda ctx: ctx.once(is_claw_free, ctx.g) and not ctx.catalog["P6"],
    "(claw,P6)-free graph whose core is not the gamma-raising set",
)

_check_claw_bull_free_core = partial(
    _check_core_is_plus,
    lambda ctx: ctx.once(is_claw_free, ctx.g) and not ctx.catalog["bull"],
    "(claw,bull)-free graph whose core is not the gamma-raising set",
)


def _check_claw_free_gamma_i(ctx: _Ctx):
    if not ctx.once(is_claw_free, ctx.g):
        return
    if ctx.ind.gamma != ctx.report.gamma:
        yield "claw-free graph with gamma below independent domination number"


def _check_bipartite_claw_free_shape(ctx: _Ctx):
    g = ctx.g
    if g.n < 2 or not ctx.once(is_bipartite, g) or not ctx.once(is_claw_free, g):
        return
    degrees = sorted(a.bit_count() for a in g.adj)
    path = ctx.once(is_tree, g) and degrees[-1] <= 2
    even_cycle = g.n % 2 == 0 and degrees[0] == degrees[-1] == 2
    if not (path or even_cycle):
        yield "bipartite claw-free graph that is neither path nor even cycle"


def _check_tcp(ctx: _Ctx):
    g = ctx.g
    gamma = ctx.report.gamma
    for root, tcp in enumerate(ctx.tcps):
        cliques, h = tcp.cliques, tcp.reduced
        # a sum adds popcounts only without carries, i.e. over disjoint parts
        if (
            h.n != len(cliques)
            or 0 in cliques
            or sum(cliques) != g.full_mask
            or sum(c.bit_count() for c in cliques) != g.n
        ):
            yield f"twin clique partition at {root} does not partition"
            return
        if cliques[0] != 1 << root:
            yield f"twin clique partition at {root} moves the root"
            return
        # g must be h with each part blown up to its clique, and the parts
        # besides the root must be whole twin classes: clique | around is
        # the closed neighborhood of each member, so no two parts share it
        seen = set()
        for i, clique in enumerate(cliques):
            around = 0
            for j in bits(h.adj[i]):
                around |= cliques[j]
            if any(g.adj[u] != clique & ~(1 << u) | around for u in bits(clique)):
                yield f"part {i} at root {root} is not a twin clique of the reduced graph"
                return
            if i:
                if (clique | around) in seen:
                    yield f"twin clique partition at {root} splits a twin class"
                    return
                seen.add(clique | around)
        # with as many parts as vertices every part is a singleton, and the
        # identity above says that h is g relabeled by the part map
        if h.n != g.n and ctx.once(gamma_exact, h).gamma != gamma:
            yield f"reduced graph at root {root} changes gamma"
            return


def _root_first(mask: int, root: int) -> int:
    """mask with root moved to vertex 0 and the vertices below it shifted up."""
    below = (1 << root) - 1
    return (mask & below) << 1 | (mask >> root) & 1 | mask & ~(below | 1 << root)


def _check_tcp_core_correspondence(ctx: _Ctx):
    g = ctx.g
    sets = ctx.report.all_sets
    # (always_one, never) by part mask: roots share most of their parts
    verdicts: dict[int, tuple[bool, bool]] = {}
    for root, tcp in enumerate(ctx.tcps):
        h = tcp.reduced
        # the vertices in part order, when the parts are singletons, root first
        order = (root, *range(root), *range(root + 1, g.n))
        if tcp.cliques == tuple(1 << v for v in order) and h.adj == tuple(
            _root_first(g.adj[v], root) for v in order
        ):
            # h is g with the root moved first, so its classes are g's, moved
            core_h, anticore_h = (_root_first(ctx.masks[c], root) for c in ("core", "anticore"))
        else:
            core_h, corona_h = ctx.once(core_and_corona, h)
            anticore_h = h.full_mask & ~corona_h
        for i, clique in enumerate(tcp.cliques):
            if clique not in verdicts:
                verdicts[clique] = (
                    all((s & clique).bit_count() == 1 for s in sets),
                    all(s & clique == 0 for s in sets),
                )
            always_one, never = verdicts[clique]
            if always_one != bool((core_h >> i) & 1):
                yield f"core correspondence fails for part {i} at root {root}"
                return
            if never != bool((anticore_h >> i) & 1):
                yield f"anticore correspondence fails for part {i} at root {root}"
                return


@cache
def _pattern_table(k: int) -> dict[int, tuple[str, ...]]:
    """Names by edge mask of every labeled copy of every order-k pattern;
    bit b of a mask is the b-th pair of combinations(range(k), 2)."""
    bit = {pair: b for b, pair in enumerate(combinations(range(k), 2))}
    table: dict[int, tuple[str, ...]] = {}
    for name, h in PATTERNS.items():
        if h.n != k:
            continue
        edges = list(h.edges())
        copies = {
            mask_of(bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
            for p in permutations(range(k))
        }
        for mask in copies:
            table[mask] = table.get(mask, ()) + (name,)
    return table


def _check_pattern_oracle(ctx: _Ctx):
    g = ctx.g
    found: set[str] = set()
    for k in {h.n for h in PATTERNS.values() if h.n <= g.n}:
        table = _pattern_table(k)
        pairs = list(combinations(range(k), 2))
        for vs in combinations(range(g.n), k):
            mask = 0
            for b, (i, j) in enumerate(pairs):
                if (g.adj[vs[i]] >> vs[j]) & 1:
                    mask |= 1 << b
            found.update(table.get(mask, ()))
    for name in PATTERNS:
        if ctx.catalog[name] != (name in found):
            yield f"pattern search disagrees with oracle on {name}"


def _check_recognizer_consistency(ctx: _Ctx):
    g = ctx.g
    if ctx.once(is_tree, g) and not (ctx.once(is_bipartite, g) and ctx.once(is_chordal, g)):
        yield "tree flagged non-bipartite or non-chordal"
    if ctx.once(is_cograph, g) == ctx.catalog["P4"]:
        yield "cograph flag disagrees with induced P4 search"
    chordal = ctx.once(is_chordal, g)
    holes = [c for c in ("C4", "C5", "C6", "C7") if ctx.catalog[c]]
    if chordal and holes:
        yield f"chordal graph contains induced {holes[0]}"
    if g.n <= 7 and not chordal and not holes:
        yield "non-chordal small graph without any induced hole"


def _check_canonical_relabeling(ctx: _Ctx):
    g = ctx.g
    base = canonical_form(g)
    rng = random.Random(ctx.g6)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        if canonical_form(Graph(g.n, _relabeled(g, perm))) != base:
            yield "canonical form changes under relabeling"
            return


def _check_graph6_roundtrip(ctx: _Ctx):
    if parse_graph6(ctx.g6) != ctx.g:
        yield "graph6 round-trip changes the graph"


# (name, per-graph generator)
PER_GRAPH_CHECKS = (
    ("graph-surgery", _check_graph_surgery),
    ("solver-oracle-equivalence", _check_solver_oracle),
    ("gamma-i-alpha-chain", _check_gamma_chain),
    ("minimum-set-private-neighbors", _check_private_neighbors_in_sets),
    ("tree-gamma-agreement", _check_tree_gamma),
    ("classifier-equivalence", _check_classifier_equivalence),
    ("membership-remarks", _check_membership_remarks),
    ("removal-raises-characterization", _check_theorem_plus),
    ("removal-lowers-characterization", _check_theorem_minus),
    ("pendant-minimum-sets", _check_pendant_remark),
    ("simplicial-exclusion", _check_simplicial),
    ("cut-vertex-clique-lemma", _check_cut_vertex_lemma),
    ("attachment-clique-lemma", _check_attachment_lemma),
    ("chordal-core-equals-plus", _check_chordal_core),
    ("cograph-core-bound", _check_cograph_core),
    ("claw-p6-free-core-in-plus", _check_claw_p6_free_core),
    ("claw-bull-free-core-in-plus", _check_claw_bull_free_core),
    ("claw-free-gamma-equals-i", _check_claw_free_gamma_i),
    ("bipartite-claw-free-shape", _check_bipartite_claw_free_shape),
    ("twin-clique-partition", _check_tcp),
    ("twin-clique-core-correspondence", _check_tcp_core_correspondence),
    ("pattern-search-oracle", _check_pattern_oracle),
    ("recognizer-consistency", _check_recognizer_consistency),
    ("canonical-relabeling-invariance", _check_canonical_relabeling),
    ("graph6-roundtrip", _check_graph6_roundtrip),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    graphs_checked: int
    violation_count: int
    violations: tuple[tuple[str, str], ...]  # (graph6, message), the first few

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


@dataclass(frozen=True)
class VerifyReport:
    n_max: int
    graphs_total: int
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "graphs_total": self.graphs_total,
            "all_pass": self.all_pass,
            "checks": [
                {
                    "name": c.name,
                    "graphs_checked": c.graphs_checked,
                    "violations": c.violation_count,
                    "examples": [
                        {"graph6": g6, "message": msg} for g6, msg in c.violations
                    ],
                }
                for c in self.checks
            ],
        }


def _run_checks_on_graph(keep: bool, g: Graph) -> tuple[Graph | None, list]:
    """Run every check of PER_GRAPH_CHECKS on g; returns (g if keep else
    None, violations as (check, graph6, message))."""
    ctx = _Ctx(g)
    violations = [(name, ctx.g6, message) for name, fn in PER_GRAPH_CHECKS for message in fn(ctx)]
    return g if keep else None, violations


def verify_corpus(n_max: int, jobs: int = 1, progress=None) -> VerifyReport:
    """Run every invariant over all connected graphs with n <= n_max.

    The graphs of order n come back from the checks and are the parents
    of order n + 1 (enumeration.map_children), so each graph is expanded
    once and the main process never enumerates; it holds one order's
    graphs at a time, and those of the orders the labeled oracles cover.
    jobs > 1 runs the per-graph checks on one pool of that many workers,
    at most the CPU count, for the whole call, without changing the
    report: the workers get the parents, build their children and check
    them.  progress(n, count) is called after each order.
    """
    if type(n_max) is not int or not 1 <= n_max <= VERIFY_MAX:
        raise GraphError(f"verification covers n_max 1..{VERIFY_MAX}")
    counts: dict[int, int] = {}
    bad: dict[str, list[tuple[str, str]]] = {name: [] for name, _ in PER_GRAPH_CHECKS}
    # the labeled oracles need the graphs of the orders they cover
    labeled: dict[int, list[Graph]] = {}
    parents = [NULL_GRAPH]
    with _ordered_map(jobs) as ordered_map:
        for n in range(1, n_max + 1):
            keep = n < n_max or n <= LABELED_MAX
            graphs = []
            for g, viols in map_children(ordered_map, partial(_run_checks_on_graph, keep), parents):
                graphs.append(g)
                for name, g6, message in viols:
                    bad[name].append((g6, message))
            counts[n] = len(graphs)
            if n <= LABELED_MAX:
                labeled[n] = graphs
            parents = graphs
            if progress is not None:
                progress(n, counts[n])

    total = sum(counts.values())
    checks = [_result(name, total, bad[name]) for name, _ in PER_GRAPH_CHECKS]
    checks.extend(_corpus_level_checks(counts, labeled))
    return VerifyReport(n_max, total, tuple(checks))


def _result(name: str, checked: int, bad: list[tuple[str, str]]) -> CheckResult:
    return CheckResult(name, checked, len(bad), tuple(bad[:_VIOLATIONS_KEPT]))


def _corpus_level_checks(
    counts: dict[int, int], labeled: dict[int, list[Graph]]
) -> list[CheckResult]:
    bad = []
    for n, got in counts.items():
        want = count_connected_graphs(n)
        if got != want:
            bad.append(("", f"n={n}: stream has {got} classes, oracle says {want}"))
    results = [_result("enumeration-count-analytic", sum(counts.values()), bad)]
    bad = []
    checked = 0
    for n, graphs in labeled.items():
        oracle_bitmap, oracle_count = labeled_connected_bitmap(n)
        closure, closure_count = relabeling_closure_bitmap(graphs, n)
        checked += closure_count
        if oracle_bitmap != closure or oracle_count != closure_count:
            bad.append(("", f"n={n}: relabeling closure misses labeled graphs"))
    results.append(_result("enumeration-completeness-labeled", checked, bad))
    return results

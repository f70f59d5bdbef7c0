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

Each check caps its own vertex count (brute-force oracles get smaller
caps), reports how many graphs it examined, and collects the first few
violations as graph6 strings with messages.  A report passes only if
every check has zero violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from multiprocessing import Pool

from .canonical import canonical_form
from .classify import (
    MembershipClass,
    RemovalClass,
    classify_all,
    classify_by_enumeration,
)
from .enumeration import (
    _batched,
    count_connected_graphs,
    enumerate_connected,
    labeled_connected_bitmap,
    relabeling_closure_bitmap,
)
from .graph import (
    Graph,
    GraphError,
    add_pendant,
    add_vertex,
    bits,
    build_graph,
    closed_masks,
    connected_components,
    cut_vertices,
    delete_vertex,
    distance_shell,
    format_edge_list,
    index_after_delete,
    is_connected,
    is_dominating,
    mask_of,
    parse_edge_list,
    private_neighbors,
)
from .graph6 import parse_graph6, write_graph6
from .recognize import (
    PATTERNS,
    contains_induced,
    is_bipartite,
    is_chordal,
    is_claw_free,
    is_cograph,
    is_tree,
    twin_clique_partition,
)
from .solve import (
    all_minimum_dominating_sets,
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
    def closed(self) -> list[int]:
        return closed_masks(self.g)


def _check_graph_surgery(ctx: _Ctx):
    g = ctx.g
    for v in range(g.n):
        if distance_shell(g, v, 0) != 1 << v:
            yield f"distance shell 0 of {v} is not the vertex itself"
        if distance_shell(g, v, 1) != g.adj[v]:
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
    for v in range(g.n):
        h = delete_vertex(g, v)
        back = mask_of(index_after_delete(u, v) for u in bits(g.adj[v]))
        if canonical_form(add_vertex(h, back)) != canonical_form(g):
            yield f"delete/re-add of {v} changes the isomorphism class"
        p = add_pendant(g, v)
        if p.n != g.n + 1 or p.adj[g.n] != 1 << v:
            yield f"pendant on {v} malformed"
    if parse_edge_list(format_edge_list(g)) != g:
        yield "edge-list text round-trip changes the graph"


def _check_solver_oracle(ctx: _Ctx):
    fast = gamma_exact(ctx.g)
    slow = gamma_bruteforce(ctx.g)
    if fast.gamma != slow.gamma:
        yield f"gamma {fast.gamma} != brute-force {slow.gamma}"
    elif fast.witness != slow.witness:
        yield f"witness {fast.witness:b} != brute-force {slow.witness:b}"


def _check_gamma_chain(ctx: _Ctx):
    gamma = ctx.report.gamma
    ind = independent_domination_number(ctx.g)
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
    if is_tree(ctx.g):
        if gamma_tree(ctx.g).gamma != ctx.report.gamma:
            yield "tree dynamic program disagrees with exact solver"


def _check_classifier_equivalence(ctx: _Ctx):
    if ctx.thm.vertices != ctx.enum.vertices or ctx.thm.gamma != ctx.enum.gamma:
        yield "structural classification differs from definitional"


def _check_membership_remarks(ctx: _Ctx):
    rep = ctx.enum
    minus = rep.mask_of_removal(RemovalClass.MINUS)
    anticore = rep.anticore_mask
    core = rep.core_mask
    isolated = mask_of(v for v in range(ctx.g.n) if ctx.g.adj[v] == 0)
    if anticore & minus:
        yield "anticore vertex lowers gamma on deletion"
    if core & minus != isolated:
        yield "core vertices lowering gamma are not exactly the isolated ones"
    if core & ~rep.corona_mask:
        yield "core outside corona"
    counts = rep.summary()
    if counts["core"] + counts["corona_only"] + counts["anticore"] != ctx.g.n:
        yield "membership counts do not sum to n"
    if counts["plus"] + counts["zero"] + counts["minus"] != ctx.g.n:
        yield "removal counts do not sum to n"


def _check_theorem_plus(ctx: _Ctx):
    g = ctx.g
    rep = ctx.enum
    gamma = rep.gamma
    core = rep.core_mask
    for v in range(g.n):
        outside = g.full_mask & ~ctx.closed[v]
        exists_avoiding = False
        for combo in combinations(list(bits(outside)), gamma):
            s = mask_of(combo)
            covered = s
            for u in combo:
                covered |= g.adj[u]
            if covered | (1 << v) == g.full_mask:
                exists_avoiding = True
                break
        lhs = rep.vertices[v].removal is RemovalClass.PLUS
        rhs = g.adj[v] != 0 and bool((core >> v) & 1) and not exists_avoiding
        if lhs != rhs:
            yield f"removal-raises characterization fails at {v}"


def _check_theorem_minus(ctx: _Ctx):
    g = ctx.g
    rep = ctx.enum
    for v in range(g.n):
        witness = False
        for s in ctx.report.all_sets:
            if (s >> v) & 1 and private_neighbors(g, v, s) == 1 << v:
                witness = True
                break
        lhs = rep.vertices[v].removal is RemovalClass.MINUS
        if lhs != witness:
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
    core = ctx.enum.core_mask
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
    rep = ctx.enum
    core = rep.core_mask
    cuts = cut_vertices(g)
    for v in bits(core & cuts):
        rest = g.full_mask & ~(1 << v)
        if all(
            _is_clique(g, comp & g.adj[v]) for comp in connected_components(g, rest)
        ):
            if rep.vertices[v].removal is not RemovalClass.PLUS:
                yield f"clique-attachment cut vertex {v} in core does not raise gamma"


def _check_attachment_lemma(ctx: _Ctx):
    g = ctx.g
    if g.n < 2:
        return
    rep = ctx.enum
    for v in bits(rep.core_mask):
        outside = g.full_mask & ~ctx.closed[v]
        attachments = [
            g.adj[v] & _neighbors_of_mask(g, comp)
            for comp in connected_components(g, outside)
        ]
        if all(_is_clique(g, a) for a in attachments):
            if rep.vertices[v].removal is not RemovalClass.PLUS:
                yield f"clique attachment sets at core vertex {v} without gamma raise"


def _neighbors_of_mask(g: Graph, s: int) -> int:
    out = 0
    for v in bits(s):
        out |= g.adj[v]
    return out & ~s


def _check_chordal_core(ctx: _Ctx):
    if ctx.g.n < 2 or not is_chordal(ctx.g):
        return
    rep = ctx.enum
    if rep.core_mask != rep.mask_of_removal(RemovalClass.PLUS):
        yield "chordal graph with core different from the gamma-raising set"


def _check_cograph_core(ctx: _Ctx):
    if ctx.g.n < 2 or not is_cograph(ctx.g):
        return
    rep = ctx.enum
    core = rep.core_mask
    if core.bit_count() > 1:
        yield "cograph with more than one core vertex"
    if core & ~rep.mask_of_removal(RemovalClass.PLUS):
        yield "cograph core vertex that does not raise gamma"


def _check_claw_p6_free_core(ctx: _Ctx):
    if ctx.g.n < 2 or not is_claw_free(ctx.g) or contains_induced(ctx.g, "P6"):
        return
    rep = ctx.enum
    if rep.core_mask != rep.mask_of_removal(RemovalClass.PLUS):
        yield "(claw,P6)-free graph whose core is not the gamma-raising set"


def _check_claw_bull_free_core(ctx: _Ctx):
    if ctx.g.n < 2 or not is_claw_free(ctx.g) or contains_induced(ctx.g, "bull"):
        return
    rep = ctx.enum
    if rep.core_mask != rep.mask_of_removal(RemovalClass.PLUS):
        yield "(claw,bull)-free graph whose core is not the gamma-raising set"


def _check_claw_free_gamma_i(ctx: _Ctx):
    if not is_claw_free(ctx.g):
        return
    if independent_domination_number(ctx.g).gamma != ctx.report.gamma:
        yield "claw-free graph with gamma below independent domination number"


def _check_bipartite_claw_free_shape(ctx: _Ctx):
    g = ctx.g
    if g.n < 2 or not is_bipartite(g) or not is_claw_free(g):
        return
    degrees = sorted(a.bit_count() for a in g.adj)
    path = is_tree(g) and degrees[-1] <= 2
    even_cycle = g.n % 2 == 0 and degrees[0] == degrees[-1] == 2
    if not (path or even_cycle):
        yield "bipartite claw-free graph that is neither path nor even cycle"


def _check_tcp(ctx: _Ctx):
    g = ctx.g
    gamma = ctx.report.gamma
    for root in range(g.n):
        tcp = twin_clique_partition(g, root)
        if sum(tcp.cliques) != g.full_mask:
            yield f"twin clique partition at {root} does not partition"
            return
        if tcp.cliques[0] != 1 << root:
            yield f"twin clique partition at {root} moves the root"
            return
        for idx, clique in enumerate(tcp.cliques):
            if not _is_clique(g, clique):
                yield f"part {idx} at root {root} is not a clique"
                return
            vs = list(bits(clique))
            if idx > 0 and any(ctx.closed[u] != ctx.closed[vs[0]] for u in vs[1:]):
                yield f"part {idx} at root {root} mixes closed neighborhoods"
                return
        for i in range(len(tcp.cliques)):
            for j in range(i + 1, len(tcp.cliques)):
                a, b = tcp.cliques[i], tcp.cliques[j]
                links = sum(
                    1 for u in bits(a) for w in bits(b) if (g.adj[u] >> w) & 1
                )
                if links not in (0, a.bit_count() * b.bit_count()):
                    yield f"parts {i},{j} at root {root} partially adjacent"
                    return
                reduced_edge = (tcp.reduced.adj[i] >> j) & 1
                if bool(links) != bool(reduced_edge):
                    yield f"reduced adjacency wrong for parts {i},{j} at root {root}"
                    return
        if gamma_exact(tcp.reduced).gamma != gamma:
            yield f"reduced graph at root {root} changes gamma"
            return


def _check_tcp_core_correspondence(ctx: _Ctx):
    g = ctx.g
    sets = ctx.report.all_sets
    for root in range(g.n):
        tcp = twin_clique_partition(g, root)
        hrep = classify_by_enumeration(tcp.reduced)
        core_h = hrep.core_mask
        anticore_h = hrep.anticore_mask
        for i, clique in enumerate(tcp.cliques):
            always_one = all((s & clique).bit_count() == 1 for s in sets)
            never = all(s & clique == 0 for s in sets)
            if always_one != bool((core_h >> i) & 1):
                yield f"core correspondence fails for part {i} at root {root}"
                return
            if never != bool((anticore_h >> i) & 1):
                yield f"anticore correspondence fails for part {i} at root {root}"
                return


def _induced_subgraph(g: Graph, vs: tuple[int, ...]) -> Graph:
    pos = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for v in vs:
        for u in bits(g.adj[v]):
            if u in pos:
                adj[pos[v]] |= 1 << pos[u]
    return Graph(len(vs), tuple(adj))


def _bruteforce_contains(g: Graph, h: Graph) -> bool:
    if h.n > g.n:
        return False
    target_degs = sorted(a.bit_count() for a in h.adj)
    for vs in combinations(range(g.n), h.n):
        sub = _induced_subgraph(g, vs)
        if sub.edge_count() != h.edge_count():
            continue
        if sorted(a.bit_count() for a in sub.adj) != target_degs:
            continue
        for perm in permutations(range(h.n)):
            if all(
                ((sub.adj[i] >> j) & 1) == ((h.adj[perm[i]] >> perm[j]) & 1)
                for i in range(h.n)
                for j in range(i + 1, h.n)
            ):
                return True
    return False


def _check_pattern_oracle(ctx: _Ctx):
    for name, pattern in PATTERNS.items():
        if contains_induced(ctx.g, name) != _bruteforce_contains(ctx.g, pattern):
            yield f"pattern search disagrees with oracle on {name}"


def _check_recognizer_consistency(ctx: _Ctx):
    g = ctx.g
    if is_tree(g) and not (is_bipartite(g) and is_chordal(g)):
        yield "tree flagged non-bipartite or non-chordal"
    if is_cograph(g) != (not contains_induced(g, "P4")):
        yield "cograph flag disagrees with induced P4 search"
    chordal = is_chordal(g)
    holes = [c for c in ("C4", "C5", "C6", "C7") if contains_induced(g, c)]
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
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        if canonical_form(h) != base:
            yield "canonical form changes under relabeling"
            return


def _check_graph6_roundtrip(ctx: _Ctx):
    text = write_graph6(ctx.g)
    if parse_graph6(text) != ctx.g:
        yield "graph6 round-trip changes the graph"


# (name, per-graph generator, max n this check runs at)
PER_GRAPH_CHECKS = (
    ("graph-surgery", _check_graph_surgery, 8),
    ("solver-oracle-equivalence", _check_solver_oracle, 8),
    ("gamma-i-alpha-chain", _check_gamma_chain, 8),
    ("minimum-set-private-neighbors", _check_private_neighbors_in_sets, 8),
    ("tree-gamma-agreement", _check_tree_gamma, 8),
    ("classifier-equivalence", _check_classifier_equivalence, 8),
    ("membership-remarks", _check_membership_remarks, 8),
    ("removal-raises-characterization", _check_theorem_plus, 7),
    ("removal-lowers-characterization", _check_theorem_minus, 7),
    ("pendant-minimum-sets", _check_pendant_remark, 7),
    ("simplicial-exclusion", _check_simplicial, 8),
    ("cut-vertex-clique-lemma", _check_cut_vertex_lemma, 8),
    ("attachment-clique-lemma", _check_attachment_lemma, 8),
    ("chordal-core-equals-plus", _check_chordal_core, 8),
    ("cograph-core-bound", _check_cograph_core, 8),
    ("claw-p6-free-core-in-plus", _check_claw_p6_free_core, 8),
    ("claw-bull-free-core-in-plus", _check_claw_bull_free_core, 8),
    ("claw-free-gamma-equals-i", _check_claw_free_gamma_i, 8),
    ("bipartite-claw-free-shape", _check_bipartite_claw_free_shape, 8),
    ("twin-clique-partition", _check_tcp, 8),
    ("twin-clique-core-correspondence", _check_tcp_core_correspondence, 7),
    ("pattern-search-oracle", _check_pattern_oracle, 7),
    ("recognizer-consistency", _check_recognizer_consistency, 8),
    ("canonical-relabeling-invariance", _check_canonical_relabeling, 8),
    ("graph6-roundtrip", _check_graph6_roundtrip, 8),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    graphs_checked: int
    violation_count: int
    violations: tuple[tuple[str, str], ...]  # (graph6, message), capped

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


def _run_checks_on_graph(g6: str, n_max: int) -> tuple[int, list[tuple[str, str, str]]]:
    """Returns (checks-run bitmask, violations as (check, graph6, message))."""
    g = parse_graph6(g6)
    ctx = _Ctx(g)
    ran = 0
    violations = []
    for idx, (name, fn, cap) in enumerate(PER_GRAPH_CHECKS):
        if g.n > min(cap, n_max):
            continue
        ran |= 1 << idx
        for message in fn(ctx):
            violations.append((name, g6, message))
    return ran, violations


_POOL_NMAX = 0


def _verify_worker_init(n_max: int) -> None:
    global _POOL_NMAX
    _POOL_NMAX = n_max


def _verify_worker(batch: list[str]):
    return [_run_checks_on_graph(g6, _POOL_NMAX) for g6 in batch]


def verify_corpus(n_max: int, jobs: int = 1, progress=None) -> VerifyReport:
    """Run every invariant over all connected graphs with n <= n_max."""
    if not 1 <= n_max <= VERIFY_MAX:
        raise GraphError(f"verification covers n_max 1..{VERIFY_MAX}")
    checked = [0] * len(PER_GRAPH_CHECKS)
    counts: dict[int, int] = {}
    violations: dict[str, list[tuple[str, str]]] = {
        name: [] for name, _, _ in PER_GRAPH_CHECKS
    }
    totals: dict[str, int] = {name: 0 for name, _, _ in PER_GRAPH_CHECKS}
    graphs_total = 0

    def absorb(result):
        nonlocal graphs_total
        graphs_total += 1
        ran, viols = result
        for idx in bits(ran):
            checked[idx] += 1
        for name, g6, message in viols:
            totals[name] += 1
            if len(violations[name]) < _VIOLATIONS_KEPT:
                violations[name].append((g6, message))

    for n in range(1, n_max + 1):
        counts[n] = 0
        stream = (write_graph6(g) for g in enumerate_connected(n))
        if jobs > 1:
            batches = _batched(stream, 64)
            with Pool(jobs, _verify_worker_init, (n_max,)) as pool:
                for results in pool.imap(_verify_worker, batches):
                    for result in results:
                        counts[n] += 1
                        absorb(result)
        else:
            for g6 in stream:
                counts[n] += 1
                absorb(_run_checks_on_graph(g6, n_max))
        if progress is not None:
            progress(n, counts[n])

    checks = [
        CheckResult(name, checked[idx], totals[name], tuple(violations[name]))
        for idx, (name, _, _) in enumerate(PER_GRAPH_CHECKS)
    ]
    checks.extend(_corpus_level_checks(counts, n_max))
    return VerifyReport(n_max, graphs_total, tuple(checks))


def _corpus_level_checks(counts: dict[int, int], n_max: int) -> list[CheckResult]:
    results = []
    bad = []
    for n, got in counts.items():
        want = count_connected_graphs(n)
        if got != want:
            bad.append(("", f"n={n}: stream has {got} classes, oracle says {want}"))
    results.append(
        CheckResult(
            "enumeration-count-analytic",
            sum(counts.values()),
            len(bad),
            tuple(bad[:_VIOLATIONS_KEPT]),
        )
    )
    bad = []
    checked = 0
    for n in range(1, min(n_max, 7) + 1):
        oracle_bitmap, oracle_count = labeled_connected_bitmap(n)
        closure, closure_count = relabeling_closure_bitmap(enumerate_connected(n), n)
        checked += closure_count
        if oracle_bitmap != closure or oracle_count != closure_count:
            bad.append(("", f"n={n}: relabeling closure misses labeled graphs"))
    results.append(
        CheckResult(
            "enumeration-completeness-labeled",
            checked,
            len(bad),
            tuple(bad[:_VIOLATIONS_KEPT]),
        )
    )
    return results


"""The four benchmark workloads and their correctness gates.

Every workload is a closed loop with one caller in one process; only
search-n8-jobs2 starts workers (two).  A workload prepares its inputs
and warms up in ``prepare`` (timed as set-up), then ``run`` repeats its
unit of work -- a whole pass for the three exhaustive corpora, a block
of sixteen graphs for classify-random -- until the timed seconds reach
the requested duration, or exactly ``units`` times.

Outputs are checked by oracles and against SHA-256 digests pinned from
the seed commit in ``golden.json``, so byte-identical results are part
of the gate.  A graph counts as failed when its own check fails; when a
check can only be made over a chunk or a whole pass (a stream digest,
a verify or search report), every graph of that chunk or pass counts.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())

MODULES = (
    "graph",
    "graph6",
    "canonical",
    "enumeration",
    "solve",
    "classify",
    "recognize",
    "search",
    "verify",
)

# public functions the benchmark calls itself: attribute -> defining module
BENCH_CALLS = {
    "enumerate_connected": "enumeration",
    "write_graph6": "graph6",
    "parse_graph6": "graph6",
    "gamma_value": "solve",
    "gamma_exact": "solve",
    "core_and_corona": "solve",
    "classification_masks": "classify",
    "classify_all": "classify",
    "classify_by_enumeration": "classify",
    "search_signature": "search",
    "verify_corpus": "verify",
}

CHUNK = 64  # graphs per sweep digest chunk
FIG_SIG = "min-plus-zero-minus-empty-anticore"
CUT_SIG = "cut-vertex-in-core-zero"


class SourceError(RuntimeError):
    """The domcore sources next to the benchmark are missing or foreign."""


def import_domcore() -> dict:
    """Import every domcore module afresh from ../src; returns {name: module}."""
    if not (SRC_DIR / "domcore" / "__init__.py").is_file():
        raise SourceError(f"no domcore package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "domcore" or m.startswith("domcore.")]:
        del sys.modules[name]
    package = importlib.import_module("domcore")
    if Path(package.__file__).resolve().parent != SRC_DIR / "domcore":
        raise SourceError(f"domcore imported from {package.__file__}, not {SRC_DIR}")
    return {name: importlib.import_module(f"domcore.{name}") for name in MODULES}


class Api:
    """The calls a workload makes; in the traced run each one records a span."""

    def __init__(self, mods: dict, tracer=None):
        self.mods = mods
        self.tracer = tracer
        sig_cls = mods["search"].PartitionSignature
        calls = {name: getattr(mods[layer], name) for name, layer in BENCH_CALLS.items()}
        calls["feasible_by_membership"] = sig_cls.feasible_by_membership
        calls["evaluate"] = sig_cls.evaluate
        for name, fn in calls.items():
            if tracer is not None:
                layer = BENCH_CALLS.get(name, "search")
                if name == "enumerate_connected":
                    fn = tracer.wrap_generator(
                        "enumeration.next@bench", "enumeration.yields@bench", fn
                    )
                else:
                    fn = tracer.wrap(f"{layer}.{name}@bench", fn)
            setattr(self, name, fn)
        self.signatures = mods["search"].SIGNATURES

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


@dataclass
class Outcome:
    """What one run of a workload did and whether its outputs held."""

    units: int = 0
    graphs: int = 0
    failed: int = 0
    timed_s: float = 0.0
    # timed windows (perf_counter_ns start, end, whether it times one graph)
    windows: list[tuple[int, int, bool]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def timed(self, start_ns: int, end_ns: int, one_graph: bool = False) -> None:
        self.windows.append((start_ns, end_ns, one_graph))
        self.timed_s += (end_ns - start_ns) / 1e9

    def fail(self, graphs: int, message: str) -> None:
        self.failed += graphs
        if len(self.problems) < 10:
            self.problems.append(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden(key: str, outcome: Outcome) -> dict | None:
    entry = GOLDEN.get(key)
    if entry is None:
        outcome.problems.append(f"no pinned digest for {key}")
    return entry


def _rusage_cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class SweepN8:
    """enumerate_connected(8) streamed through the nine-vertex-sweep step."""

    name = "sweep-n8"
    tail_percentile = 99  # 11117 latency samples per pass

    def __init__(self, seed: int, smoke: bool = False):
        self.order = 5 if smoke else 8

    def prepare(self, api: Api) -> None:
        for n in range(1, 6):
            for g in api.enumerate_connected(n):
                self._step(api, g, {})

    def _step(self, api: Api, g, prefilter: dict):
        text = api.write_graph6(g)
        same = api.parse_graph6(text) == g
        gamma = api.gamma_value(g)
        core, corona = api.core_and_corona(g)
        membership = {
            "core": core,
            "corona_only": corona & ~core,
            "anticore": g.full_mask & ~corona,
        }
        passed = []
        for name in (FIG_SIG, CUT_SIG):
            ok = api.feasible_by_membership(api.signatures[name], g, membership)
            prefilter[name] = prefilter.get(name, 0) + ok
            passed.append(ok)
        masks = hits = "-"
        if any(passed):
            m = api.classification_masks(g, gamma, (core, corona))
            masks = f"{m['plus']:x},{m['zero']:x},{m['minus']:x}"
            hits = "".join(
                str(int(ok and api.evaluate(api.signatures[name], g, m)))
                for name, ok in zip((FIG_SIG, CUT_SIG), passed)
            )
        flags = "".join(str(int(ok)) for ok in passed)
        record = f"{text} {gamma} {core:x} {corona:x} {flags} {masks} {hits}\n"
        return same, record

    def run(self, api: Api, seconds: float | None = None, units: int | None = None) -> Outcome:
        out = Outcome()
        golden = _golden(f"sweep/{self.order}", out)
        want = api.mods["enumeration"].count_connected_graphs(self.order)
        prefilter: dict[str, int] = {}
        while True:
            records = []
            bad = set()
            it = iter(api.enumerate_connected(self.order))
            while True:
                t0 = perf_counter_ns()
                with api.span("bench.graph@bench"):
                    g = next(it, None)
                    if g is not None:
                        same, record = self._step(api, g, prefilter)
                t1 = perf_counter_ns()
                out.timed(t0, t1, one_graph=g is not None)
                if g is None:
                    break
                if not same:
                    bad.add(len(records))
                records.append(record)
            graphs = len(records)
            chunks = [
                _digest("".join(records[i : i + CHUNK]))[:16] for i in range(0, graphs, CHUNK)
            ]
            digest = _digest("".join(records))
            if graphs != want or golden is None:
                bad.update(range(graphs))
            elif digest != golden["sha256"]:
                for i, (got, pinned) in enumerate(zip(chunks, golden["chunks"])):
                    if got != pinned:
                        bad.update(range(i * CHUNK, min(graphs, (i + 1) * CHUNK)))
            if bad:
                out.fail(len(bad), f"{len(bad)} of {graphs} graphs fail (oracle count {want})")
            out.units += 1
            out.graphs += graphs
            out.extras["sha256"] = digest
            out.extras["chunks"] = chunks
            if _done(out, seconds, units):
                break
        out.extras["prefilter_pass"] = {k: v / out.graphs for k, v in prefilter.items()}
        return out


class ClassifyRandom:
    """Seeded random graphs through gamma_exact and both classification routes."""

    name = "classify-random"
    tail_percentile = 98  # 800-1100 samples in 10 s: the highest with ten beyond it
    orders = range(9, 25)  # up to ALL_SETS_MAX

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def blocks(self):
        """The reference block (pinned outputs), then seeded blocks for ever.

        A block holds one graph per order; the sixteen edge-probability
        strata of 0.1..0.9 are dealt to the orders at random, so every
        block spans both ranges evenly and runs differ little by seed.
        """
        yield self._block(random.Random("classify-random/reference"))
        rng = random.Random(self.seed)
        while True:
            yield self._block(rng)

    def _block(self, rng: random.Random) -> list[str]:
        graph = self.mods["graph"]
        write = self.mods["graph6"].write_graph6
        strata = list(range(len(self.orders)))
        rng.shuffle(strata)
        texts = []
        for n, stratum in zip(self.orders, strata):
            p = 0.1 + 0.8 * (stratum + rng.random()) / len(strata)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            texts.append(write(graph.build_graph(n, edges)))
        return texts

    def prepare(self, api: Api) -> None:
        self.mods = api.mods
        warm = self._block(random.Random("classify-random/warm-up"))
        for text in warm[:4]:
            self._classify(api, text)

    def _classify(self, api: Api, text: str):
        g = api.parse_graph6(text)
        return api.gamma_exact(g), api.classify_all(g), api.classify_by_enumeration(g)

    def run(self, api: Api, seconds: float | None = None, units: int | None = None) -> Outcome:
        out = Outcome()
        golden = _golden("classify/reference", out)
        to_dict = self.mods["classify"].report_to_dict
        stream = hashlib.sha256()
        reference: list[str] = []
        for index, block in enumerate(self.blocks()):
            for text in block:
                t0 = perf_counter_ns()
                with api.span("bench.graph@bench"):
                    exact, thm, enum = self._classify(api, text)
                out.timed(t0, perf_counter_ns(), one_graph=True)
                record = json.dumps(
                    [text, exact.gamma, exact.witness, to_dict(thm), to_dict(enum)],
                    separators=(",", ":"),
                )
                stream.update(record.encode() + b"\n")
                if index == 0:
                    reference.append(_digest(record)[:16])
                if thm != enum or exact.gamma != thm.gamma:
                    out.fail(1, f"routes disagree on {text}")
                elif index == 0:
                    pinned = golden["records"][len(reference) - 1] if golden else None
                    if reference[-1] != pinned:
                        out.fail(1, f"reference graph {text} output differs from pinned")
                out.graphs += 1
            if index > 0:
                out.units += 1
                if _done(out, seconds, units):
                    break
        out.extras["sha256"] = stream.hexdigest()
        out.extras["reference_records"] = reference
        return out


class VerifyN7:
    """verify_corpus(7, jobs=1) with the public progress hook."""

    name = "verify-n7"

    def __init__(self, seed: int, smoke: bool = False):
        self.order = 4 if smoke else 7

    def prepare(self, api: Api) -> None:
        api.verify_corpus(3)

    def run(self, api: Api, seconds: float | None = None, units: int | None = None) -> Outcome:
        out = Outcome()
        golden = _golden(f"verify/{self.order}", out)
        count = api.mods["enumeration"].count_connected_graphs
        want = sum(count(n) for n in range(1, self.order + 1))
        per_graph = corpus = 0.0
        while True:
            marks = []
            t0 = perf_counter_ns()
            report = api.verify_corpus(
                self.order, jobs=1, progress=lambda n, c: marks.append(perf_counter_ns())
            )
            t1 = perf_counter_ns()
            out.timed(t0, t1)
            per_graph += (marks[-1] - t0) / 1e9
            corpus += (t1 - marks[-1]) / 1e9
            out.units += 1
            out.graphs += report.graphs_total
            digest = _digest(json.dumps(report.to_dict(), separators=(",", ":")))
            out.extras["sha256"] = digest
            if not report.all_pass:
                out.fail(report.graphs_total, "verify report does not pass")
            elif report.graphs_total != want:
                out.fail(report.graphs_total, f"{report.graphs_total} graphs, want {want}")
            elif golden is None or digest != golden["sha256"]:
                out.fail(report.graphs_total, "verify report differs from pinned")
            if _done(out, seconds, units):
                break
        out.extras["per_graph_s"] = per_graph
        out.extras["corpus_checks_s"] = corpus
        return out


class SearchN8Jobs2:
    """search_signature(8, cut-vertex-in-core-zero, all orders, jobs=2)."""

    name = "search-n8-jobs2"
    jobs = 2

    def __init__(self, seed: int, smoke: bool = False):
        self.order = 5 if smoke else 8

    def prepare(self, api: Api) -> None:
        api.search_signature(4, api.signatures[CUT_SIG], stop_at_first_order=False)

    def run(self, api: Api, seconds: float | None = None, units: int | None = None) -> Outcome:
        out = Outcome()
        golden = _golden(f"search/{self.order}", out)
        count = api.mods["enumeration"].count_connected_graphs
        want = [count(n) for n in range(1, self.order + 1)]
        worker_cpu = 0.0
        while True:
            cpu0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
            t0 = perf_counter_ns()
            result = api.search_signature(
                self.order, api.signatures[CUT_SIG], stop_at_first_order=False, jobs=self.jobs
            )
            out.timed(t0, perf_counter_ns())
            worker_cpu += _rusage_cpu(resource.RUSAGE_CHILDREN) - cpu0
            out.units += 1
            scanned = [s.graphs_scanned for s in result.scans]
            out.graphs += sum(scanned)
            digest = _digest(json.dumps(result.to_dict(), separators=(",", ":")))
            out.extras["sha256"] = digest
            if scanned != want or not all(s.complete for s in result.scans):
                out.fail(sum(scanned), f"scanned {scanned}, oracle says {want}")
            elif golden is None or digest != golden["sha256"]:
                out.fail(sum(scanned), "search result differs from pinned")
            if _done(out, seconds, units):
                break
        out.extras["worker_cpu_s"] = worker_cpu
        return out


def _done(out: Outcome, seconds: float | None, units: int | None) -> bool:
    if units is not None:
        return out.units >= units
    return out.timed_s >= (seconds or 0.0)


WORKLOADS = {cls.name: cls for cls in (SweepN8, ClassifyRandom, VerifyN7, SearchN8Jobs2)}

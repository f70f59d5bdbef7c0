#!/usr/bin/env python3
"""domcore benchmark: four workloads timed end to end and per module.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-n8 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

With ``--trace 0`` the run measures untraced and reports the end-to-end
metrics.  With ``--trace 1`` it first repeats the untraced measurement,
then runs exactly the same work again with span wrappers bound into the
domcore modules, and reports the per-layer metrics and the tracing
overhead; spans are written to ``bench/out/``.  The ``# record`` line
carries the machine record and the full result as JSON; the last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import SpanStats, Tracer
from workloads import WORKLOADS, Api, Outcome, SourceError, import_domcore

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7

# (name, unit) of the metrics BENCHMARK.json names; everything else the
# run prints is reported alongside but carries no bound.  Per-layer
# metrics are measured on every workload: one a workload never enters
# reads 0 there, counts, shares and seconds alike.
END_TO_END = (("graphs_per_s", "graphs/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("graph", "graph6", "canonical", "enumeration", "solve", "classify", "recognize", "search", "verify")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name == "enumeration.candidates":
        return "count"
    return "ratio"


PER_LAYER = tuple(
    (name, _layer_unit(name))
    for name in (
        "enumeration.next_s", "enumeration.self_s", "enumeration.candidates",
        "enumeration.accept_ratio", "enumeration.keep_ratio",
        "graph.cut_vertices_calls", "graph.cut_vertices_s", "graph.add_vertex_s",
        "graph.delete_vertex_calls", "graph.delete_vertex_s",
        "graph.add_pendant_calls", "graph.add_pendant_s",
        "canonical.form_calls", "canonical.form_s", "canonical.rooted_calls", "canonical.rooted_s",
        "graph6.write_s", "graph6.parse_s", "graph6.parent_write_s",
        "solve.gamma_value_s", "solve.core_and_corona_s", "solve.gamma_exact_s",
        "solve.probe_calls", "solve.probe_s", "solve.all_sets_s",
        "classify.structural_s", "classify.structural_self_s", "classify.definitional_s",
        "classify.masks_s", "classify.masks_self_s",
        "search.prefilter_s",
        "search.prefilter_pass_ratio.min-plus-zero-minus-empty-anticore",
        "search.prefilter_pass_ratio.cut-vertex-in-core-zero",
        "search.parent_enum_s", "search.parent_busy_share",
        "search.worker_cpu_s", "search.worker_utilization",
        "verify.per_graph_s", "verify.corpus_checks_s",
        "verify.labeled_oracle_s", "verify.closure_oracle_s",
        "recognize.contains_induced_calls", "recognize.contains_induced_s",
        "trace.overhead_ratio",
        *(f"{layer}.self_share" for layer in LAYERS),
    )
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    index = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


def _peak_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def busy_ns(out: Outcome, probe: SpeedProbe) -> tuple[int, list[int]]:
    """Timed nanoseconds less the probe's kernel runs, and the per-graph latencies."""
    total, latencies = 0, []
    for start, end, one_graph in out.windows:
        ns = end - start - probe.probe_ns(start, end)
        total += ns
        if one_graph:
            latencies.append(ns)
    return total, latencies


def end_to_end_metrics(
    out: Outcome, probe: SpeedProbe, setup_s: float, setup_wall_s: float, speed: float,
    rss_kb: int, tail: int,
) -> dict:
    """Gated figures in reference seconds (see speed.py), wall figures beside them."""
    busy, latencies = busy_ns(out, probe)
    metrics = {
        "graphs_per_s": (_ratio(out.graphs, busy / 1e9 * speed), "graphs/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "fail_ratio": (_ratio(out.failed, out.graphs), "failed/attempted"),
        "graphs_per_wall_s": (_ratio(out.graphs, busy / 1e9), "graphs/s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "cpu_speed": (speed, "ratio"),
    }
    if latencies:
        lat = sorted(latencies)
        metrics["graph_p50_ms"] = (_percentile(lat, 0.50) * speed / 1e6, "ms")
        metrics[f"graph_p{tail}_ms"] = (_percentile(lat, tail / 100) * speed / 1e6, "ms")
        metrics["graph_latency_samples"] = (len(lat), "count")
    return metrics


def layer_metrics(st: SpanStats, tracer: Tracer, traced: Outcome, jobs: int) -> dict:
    """Per-layer metrics of the traced pass (see the map in README.md)."""
    counters = tracer.counters
    candidates = st.calls_of("graph.add_vertex@enumeration")
    forms = st.calls_of("canonical.canonical_form@enumeration")
    yields = sum(v for k, v in counters.items() if k.startswith("enumeration.yields@"))
    wall = traced.timed_s
    parent_enum = st.busy_s("enumeration.next@search")
    parent_write = st.busy_s("graph6.write_graph6@search")
    search_wall = st.busy_s("search.search_signature@bench")
    worker_cpu = traced.extras.get("worker_cpu_s", 0.0)
    prefilter = traced.extras.get("prefilter_pass", {})
    m = {
        "enumeration.next_s": (st.busy_s("enumeration.next"), "s"),
        "enumeration.self_s": (st.self_s("enumeration.next"), "s"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.accept_ratio": (_ratio(forms, candidates), "ratio"),
        "enumeration.keep_ratio": (_ratio(yields, forms), "ratio"),
        "graph.cut_vertices_calls": (st.calls_of("graph.cut_vertices"), "count"),
        "graph.cut_vertices_s": (st.busy_s("graph.cut_vertices"), "s"),
        "graph.add_vertex_s": (st.busy_s("graph.add_vertex"), "s"),
        "graph.delete_vertex_calls": (st.calls_of("graph.delete_vertex@classify"), "count"),
        "graph.delete_vertex_s": (st.busy_s("graph.delete_vertex@classify"), "s"),
        "graph.add_pendant_calls": (st.calls_of("graph.add_pendant@classify"), "count"),
        "graph.add_pendant_s": (st.busy_s("graph.add_pendant@classify"), "s"),
        "canonical.form_calls": (st.calls_of("canonical.canonical_form"), "count"),
        "canonical.form_s": (st.busy_s("canonical.canonical_form"), "s"),
        "canonical.rooted_calls": (st.calls_of("canonical.rooted_canonical_bits"), "count"),
        "canonical.rooted_s": (st.busy_s("canonical.rooted_canonical_bits"), "s"),
        "graph6.write_s": (st.busy_s("graph6.write_graph6") - parent_write, "s"),
        "graph6.parse_s": (st.busy_s("graph6.parse_graph6"), "s"),
        "graph6.parent_write_s": (parent_write, "s"),
        "solve.gamma_value_s": (st.busy_s("solve.gamma_value"), "s"),
        "solve.core_and_corona_s": (st.busy_s("solve.core_and_corona"), "s"),
        "solve.gamma_exact_s": (st.busy_s("solve.gamma_exact"), "s"),
        "solve.probe_calls": (st.calls_of("solve.exists_dominating_within"), "count"),
        "solve.probe_s": (st.busy_s("solve.exists_dominating_within"), "s"),
        "solve.all_sets_s": (st.busy_s("solve.all_minimum_dominating_sets"), "s"),
        "classify.structural_s": (st.busy_s("classify.classify_all"), "s"),
        "classify.structural_self_s": (st.self_s("classify.classify_all"), "s"),
        "classify.definitional_s": (st.busy_s("classify.classify_by_enumeration"), "s"),
        "classify.masks_s": (st.busy_s("classify.classification_masks"), "s"),
        "classify.masks_self_s": (st.self_s("classify.classification_masks"), "s"),
        "search.prefilter_s": (st.busy_s("search.feasible_by_membership"), "s"),
    }
    for name in ("min-plus-zero-minus-empty-anticore", "cut-vertex-in-core-zero"):
        m[f"search.prefilter_pass_ratio.{name}"] = (prefilter.get(name, 0.0), "ratio")
    m.update(
        {
            "search.parent_enum_s": (parent_enum, "s"),
            "search.parent_busy_share": (_ratio(parent_enum + parent_write, search_wall), "ratio"),
            "search.worker_cpu_s": (worker_cpu, "s"),
            "search.worker_utilization": (_ratio(worker_cpu, jobs * search_wall), "ratio"),
            "verify.per_graph_s": (traced.extras.get("per_graph_s", 0.0), "s"),
            "verify.corpus_checks_s": (traced.extras.get("corpus_checks_s", 0.0), "s"),
            "verify.labeled_oracle_s": (st.busy_s("enumeration.labeled_connected_bitmap@verify"), "s"),
            "verify.closure_oracle_s": (st.busy_s("enumeration.relabeling_closure_bitmap@verify"), "s"),
            "recognize.contains_induced_calls": (st.calls_of("recognize.contains_induced"), "count"),
            "recognize.contains_induced_s": (st.busy_s("recognize.contains_induced"), "s"),
            "trace.spans": (len(tracer.rows) // 5, "count"),
            "trace.traced_s": (wall, "s"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_ratio(st.layer_self_s(layer), wall), "ratio")
    return m


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 setup_repeats: int = SETUP_REPEATS, trace_path: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    setup_marks = []  # (start ns, end ns, speed measured right after)
    traced = None
    with SpeedProbe() as probe:
        for _ in range(setup_repeats):
            start = time.perf_counter_ns()
            mods = import_domcore()
            api = Api(mods)
            workload = WORKLOADS[name](seed, smoke)
            workload.prepare(api)
            setup_marks.append((start, time.perf_counter_ns(), probe.speed_now()))
        marks = [time.perf_counter_ns()]
        untraced = workload.run(api, seconds=seconds)
        marks.append(time.perf_counter_ns())
        rss_kb = _peak_rss_kb()  # before the traced pass fills its span arrays
        if trace:
            tracer = Tracer()
            tracer.bind(mods)
            try:
                traced = workload.run(Api(mods, tracer), units=untraced.units)
            finally:
                tracer.unbind()
            marks.append(time.perf_counter_ns())
    speeds = [probe.speed(a, b) for a, b in zip(marks, marks[1:])]
    setups = [((end - start - probe.probe_ns(start, end)) / 1e9, speed)
              for start, end, speed in setup_marks]
    metrics = end_to_end_metrics(
        untraced,
        probe,
        statistics.median(wall * speed for wall, speed in setups),
        statistics.median(wall for wall, _ in setups),
        speeds[0],
        rss_kb,
        getattr(workload, "tail_percentile", 99),
    )
    outcomes = [untraced]
    layers = {}
    if traced is not None:
        outcomes.append(traced)
        layers = layer_metrics(SpanStats(tracer), tracer, traced, getattr(workload, "jobs", 1))
        layers["trace.overhead_ratio"] = (
            _ratio(busy_ns(traced, probe)[0] * speeds[1], busy_ns(untraced, probe)[0] * speeds[0]),
            "ratio",
        )
        if trace_path is not None:
            tracer.dump(str(trace_path))
    attempted = sum(o.graphs for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": name,
        "correct": failed == 0 and not any(o.problems for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "units": untraced.units,
        "end_to_end": metrics,
        "per_layer": layers,
        "setup_samples": setups,
        "speed_samples": len(probe.samples),
        "problems": [p for o in outcomes for p in o.problems],
        "sha256": untraced.extras.get("sha256"),
    }


def _line(record: dict, trace: bool) -> dict:
    """The contract line: every end-to-end (trace 0) or per-layer (trace 1) metric."""
    source, names = (record["per_layer"], PER_LAYER) if trace else (record["end_to_end"], END_TO_END)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name][0], "unit": unit} for name, unit in names},
    }


def _print_record(record: dict) -> None:
    name = record["workload"]
    for section in ("end_to_end", "per_layer"):
        for metric, (value, unit) in record[section].items():
            print(f"{name:16s} {metric:66s} {value:>14.6g} {unit}")
    for problem in record["problems"]:
        print(f"{name:16s} PROBLEM {problem}")


def _run_all(args) -> int:
    """Run each workload in its own process, so set-up and peak RSS stay per workload."""
    records, lines = [], []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]))
        lines.append(json.loads(out[-1]))
        records.extend(json.loads(l[len("# record "):]) for l in out if l.startswith("# record "))
    print(json.dumps({
        "correct": all(l["correct"] for l in lines),
        "attempted": sum(l["attempted"] for l in lines),
        "failed": sum(l["failed"] for l in lines),
        "metrics": {f"{r['workload']}/{k}": v for r, l in zip(records, lines) for k, v in l["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    record = {"provenance": provenance(args)}
    try:
        record.update(run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            trace_path=BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz",
        ))
    except SourceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    _print_record(record)
    print("# record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps(_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

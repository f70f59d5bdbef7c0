"""Tests of the benchmark itself: metric coverage, output format, failing gates.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END_ALL = {
    "graphs_per_s", "setup_s", "peak_rss_mb", "fail_ratio",
    "graphs_per_wall_s", "setup_wall_s", "cpu_speed",
}
LATENCY = {
    "sweep-n8": {"graph_p50_ms", "graph_p99_ms", "graph_latency_samples"},
    "classify-random": {"graph_p50_ms", "graph_p98_ms", "graph_latency_samples"},
}
PER_LAYER_NAMED = {
    "enumeration.next_s", "enumeration.self_s", "enumeration.candidates",
    "enumeration.accept_ratio", "enumeration.keep_ratio",
    "graph.cut_vertices_calls", "graph.cut_vertices_s", "graph.add_vertex_s",
    "graph.delete_vertex_calls", "graph.delete_vertex_s", "graph.add_pendant_calls",
    "graph.add_pendant_s",
    "canonical.form_calls", "canonical.form_s", "canonical.rooted_calls", "canonical.rooted_s",
    "graph6.write_s", "graph6.parse_s", "graph6.parent_write_s",
    "solve.gamma_value_s", "solve.core_and_corona_s", "solve.gamma_exact_s",
    "solve.probe_calls", "solve.probe_s", "solve.all_sets_s",
    "classify.structural_s", "classify.structural_self_s", "classify.definitional_s",
    "classify.masks_s", "classify.masks_self_s",
    "search.prefilter_s",
    "search.prefilter_pass_ratio.min-plus-zero-minus-empty-anticore",
    "search.prefilter_pass_ratio.cut-vertex-in-core-zero",
    "search.parent_enum_s", "search.parent_busy_share", "search.worker_cpu_s",
    "search.worker_utilization",
    "verify.per_graph_s", "verify.corpus_checks_s", "verify.labeled_oracle_s",
    "verify.closure_oracle_s",
    "recognize.contains_induced_calls", "recognize.contains_induced_s",
    "trace.overhead_ratio",
}
UNITS = {"s", "ms", "MB", "graphs/s", "count", "ratio", "failed/attempted"}


def _smoke(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0, trace=trace, smoke=True, setup_repeats=1)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_unit(name):
    record = _smoke(name, trace=True)
    assert record["correct"], record["problems"]
    assert record["attempted"] > 0 and record["failed"] == 0
    e2e = record["end_to_end"]
    expected = END_TO_END_ALL | LATENCY.get(name, set())
    assert set(e2e) == expected
    assert PER_LAYER_NAMED <= set(record["per_layer"])
    for value, unit in [*e2e.values(), *record["per_layer"].values()]:
        assert isinstance(value, (int, float)) and unit in UNITS
    assert e2e["graphs_per_s"][0] > 0 and e2e["setup_s"][0] > 0
    assert record["per_layer"]["trace.overhead_ratio"][0] > 0
    line = run._line(record, trace=True)
    assert set(line["metrics"]) == {name for name, _ in run.PER_LAYER}
    for name, unit in run.PER_LAYER:
        assert record["per_layer"][name][1] == unit, name


def test_traced_spans_nest_across_modules():
    record = _smoke("sweep-n8", trace=True)
    layers = record["per_layer"]
    # cut_vertices and canonical forms are only reachable through
    # enumeration's namespace, so nonzero counts prove the bindings work
    assert layers["enumeration.candidates"][0] > 0
    assert layers["graph.cut_vertices_calls"][0] >= layers["enumeration.candidates"][0]
    assert 0 < layers["enumeration.self_s"][0] < layers["enumeration.next_s"][0]
    assert layers["search.prefilter_pass_ratio.min-plus-zero-minus-empty-anticore"][0] == 1.0


def test_bindings_are_undone_after_the_traced_pass():
    _smoke("classify-random", trace=True)
    classify = sys.modules["domcore.classify"]
    solve = sys.modules["domcore.solve"]
    assert classify.exists_dominating_within is solve.exists_dominating_within


def test_probe_kernel_time_is_taken_out_of_timed_windows():
    probe = run.SpeedProbe()
    probe.samples = [(100, 150, 50), (300, 360, 60)]
    assert probe.probe_ns(0, 90) == 0
    assert probe.probe_ns(120, 330) == 30 + 30
    assert probe.probe_ns(150, 300) == 0
    out = workloads.Outcome()
    out.timed(90, 200, one_graph=True)
    out.timed(200, 400)
    assert run.busy_ns(out, probe) == (310 - 50 - 60, [110 - 50])


def _faulty_run(name: str, corrupt) -> workloads.Outcome:
    api = workloads.Api(workloads.import_domcore())
    workload = workloads.WORKLOADS[name](seed=3, smoke=True)
    workload.prepare(api)
    corrupt(api)
    return workload.run(api, seconds=0)


def test_flipped_mask_bit_fails_sweep():
    def corrupt(api):
        masks = api.classification_masks
        calls = []

        def flipped(g, *args):
            out = masks(g, *args)
            calls.append(g)
            if len(calls) == 7:
                out = dict(out, zero=out["zero"] ^ 1)
            return out

        api.classification_masks = flipped

    out = _faulty_run("sweep-n8", corrupt)
    assert 0 < out.failed <= out.graphs


def test_wrong_membership_fails_classify():
    def corrupt(api):
        classify_all = api.classify_all

        def wrong(g):
            report = classify_all(g)
            if g.n == 12:
                first = report.vertices[0]
                other = next(m for m in type(first.membership) if m is not first.membership)
                vertices = (replace(first, membership=other),) + report.vertices[1:]
                report = replace(report, vertices=vertices)
            return report

        api.classify_all = wrong

    out = _faulty_run("classify-random", corrupt)
    assert out.failed == 2  # the order-12 graph of the reference and of the seeded block


def test_changed_report_fails_verify():
    def corrupt(api):
        verify_corpus = api.verify_corpus

        def shifted(*args, **kwargs):
            report = verify_corpus(*args, **kwargs)
            return replace(report, checks=report.checks[1:])

        api.verify_corpus = shifted

    out = _faulty_run("verify-n7", corrupt)
    assert out.failed == out.graphs > 0


def test_cli_prints_contract_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "classify-random",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 32 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(run.END_TO_END)
    assert any(l.startswith("# record ") and '"git_commit"' in l for l in proc.stdout.splitlines())


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

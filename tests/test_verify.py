import pytest

from domcore import GraphError, verify_corpus
from domcore.verify import PER_GRAPH_CHECKS, VERIFY_MAX


def test_small_corpus_passes():
    report = verify_corpus(5)
    assert report.all_pass
    assert report.graphs_total == 31
    for check in report.checks:
        assert check.passed
        assert check.violations == ()


def test_check_names_unique():
    names = [name for name, _, _ in PER_GRAPH_CHECKS]
    assert len(names) == len(set(names))


def test_report_dict_shape():
    d = verify_corpus(3).to_dict()
    assert list(d) == ["n_max", "graphs_total", "all_pass", "checks"]
    assert d["n_max"] == 3
    assert d["graphs_total"] == 4
    assert d["all_pass"] is True
    first = d["checks"][0]
    assert list(first) == ["name", "graphs_checked", "violations", "examples"]


def test_caps_respected():
    report = verify_corpus(5)
    by_name = {c.name: c for c in report.checks}
    # per-graph checks saw every graph at this size
    assert by_name["solver-oracle-equivalence"].graphs_checked == 31
    assert by_name["removal-raises-characterization"].graphs_checked == 31
    # the labeled oracle saw every connected labeled graph with n <= 5
    assert by_name["enumeration-completeness-labeled"].graphs_checked == 1 + 1 + 4 + 38 + 728


def test_bounds():
    with pytest.raises(GraphError):
        verify_corpus(0)
    with pytest.raises(GraphError):
        verify_corpus(VERIFY_MAX + 1)


def test_jobs_identical():
    reports, calls = {}, {1: [], 2: []}
    for jobs in (1, 2):
        reports[jobs] = verify_corpus(6, jobs=jobs, progress=lambda *call: calls[jobs].append(call))
    assert reports[2].to_dict() == reports[1].to_dict()
    assert calls[2] == calls[1] == [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]

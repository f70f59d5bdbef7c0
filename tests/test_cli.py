import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from domcore import parse_graph6
from domcore.canonical import CANONICAL_MAX
from domcore.cli import EXIT_WORKER, run
from domcore.enumeration import ENUMERATION_MAX, TREE_ENUMERATION_MAX
from domcore.solve import ALL_SETS_MAX
from domcore.verify import PER_GRAPH_CHECKS, VERIFY_MAX
from helpers import CONNECTED_COUNTS, TREE_COUNTS, TREE_STREAM_DIGESTS, src_env


# SHA-256 of the concatenated stdout of gamma, classify and recognize, as
# JSON and as TSV, on --g6 Cl, an --edges file for P3 and a --stdin-g6 stream
GRAPH_INPUT_STDOUT_SHA256 = "b2ebfcb5ded1b7b8cab047232de9c418d24eaaf68210d0b2d439667c1d3096d6"
# SHA-256 of classify --stdin-g6 JSON stdout over the 112 graphs of enumerate --n 6
CLASSIFY_STREAM_SHA256 = "5bf2c06071342c46ad3be021a6d8712125eceb695ee298a543e1e4cf55dd1984"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_g6_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--g6", "A_")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 1
    assert [v["removal"] for v in payload["vertices"]] == ["ZERO", "ZERO"]
    assert [v["membership"] for v in payload["vertices"]] == [
        "CORONA_ONLY",
        "CORONA_ONLY",
    ]


def test_gamma_edges_example(tmp_path, capsys):
    f = tmp_path / "p3.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "gamma", "--edges", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 1
    assert payload["witness"] == [1]


def test_gamma_tsv(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--g6", "Cl", "--tsv")
    assert code == 0
    assert out == "4\t2\t0,1\n"


def test_graph_input_stdout_pinned(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "p3.txt"
    edges.write_text("3 2\n0 1\n1 2\n")
    digest = hashlib.sha256()
    for command in ("gamma", "classify", "recognize"):
        for tsv in ((), ("--tsv",)):
            for source in (("--g6", "Cl"), ("--edges", str(edges)), ("--stdin-g6",)):
                monkeypatch.setattr("sys.stdin", io.StringIO("A_\n\nBw\nCl\n"))
                code, out, _ = run_cli(capsys, command, *source, *tsv)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == GRAPH_INPUT_STDOUT_SHA256


def test_classify_stream_pinned(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--tsv")
    assert code == 0
    lines = [line.split("\t")[1] for line in out.splitlines()]
    assert len(lines) == 112
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, _ = run_cli(capsys, "classify", "--stdin-g6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_STREAM_SHA256


def test_recognize_reports_classes(capsys):
    code, out, _ = run_cli(capsys, "recognize", "--g6", "Cl")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["bipartite"] is True
    assert payload["classes"]["chordal"] is False
    assert payload["classes"]["contains"]["C4"] is True


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--count-only")
    assert code == 0
    assert json.loads(out)["count"] == 21


def test_enumerate_tsv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 6
    assert all(n == "4" and parse_graph6(text).n == 4 for n, text in rows)
    assert run_cli(capsys, "enumerate", "--n", "5", "--count-only", "--tsv")[:2] == (0, "5\t21\n")


def test_enumerate_trees_tsv_pinned(capsys):
    # the rows carry the pinned tree stream, one graph6 line per tree
    code, out, _ = run_cli(capsys, "enumerate", "--trees", "--n", "10", "--tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == TREE_COUNTS[10]
    assert all(n == "10" for n, _ in rows)
    text = "".join(g6 + "\n" for _, g6 in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == TREE_STREAM_DIGESTS[10]


def test_enumerate_stream_parseable(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        obj = json.loads(line)
        assert parse_graph6(obj["graph6"]).n == 4


def test_stdin_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n\nBw\n"))
    code, out, _ = run_cli(capsys, "classify", "--stdin-g6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["graph6"] == "A_"
    assert json.loads(lines[1])["graph6"] == "Bw"


def test_stdin_malformed_exits_two(capsys, monkeypatch):
    # a malformed line at position k: exit 2, and stdout holds exactly the
    # reports of the k lines before it
    good = ["@", "A_", "", "Bw", "Cl", "DQw"]
    bad = ["~~~bogus", "A", "Bx", "A_x", "A _", "C~~", "A"]
    for command in ("gamma", "classify", "recognize"):
        for tsv in ((), ("--tsv",)):
            for k in range(len(good) + 1):
                monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(good[:k]) + "\n"))
                _, before, _ = run_cli(capsys, command, "--stdin-g6", *tsv)
                lines = good[:k] + [bad[k]] + good[k:]
                monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
                code, out, err = run_cli(capsys, command, "--stdin-g6", *tsv)
                assert code == 2
                assert "input error" in err
                assert out == before
                assert len(out.splitlines()) >= k - good[:k].count("")


def test_stdin_bytes_that_are_not_utf8_are_named():
    # with no locale set, stdin decodes with surrogateescape, so 0xff
    # reaches the parser as U+DCFF; the error names the byte, not U+DCFF
    proc = subprocess.run(
        [sys.executable, "-m", "domcore", "gamma", "--stdin-g6", "--tsv"],
        input=b"Cl\n\xff\xfe\n",
        capture_output=True,
        env={"PATH": os.environ["PATH"], "PYTHONPATH": src_env()["PYTHONPATH"]},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"Cl\t2\t0,1\n")
    assert proc.stderr.startswith(b"input error: byte 0xff at position 0 ")


def test_search_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "search",
        "--signature",
        "one-plus-rest-zero-nonempty-core-zero",
        "--nmax",
        "7",
        "--witness-dir",
        str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"] == [{"n": 6, "graph6": "Er_G"}]
    assert payload["scans"][-1]["n"] == 6
    assert (tmp_path / "one-plus-rest-zero-nonempty-core-zero.g6").exists()


def test_search_budget_exit(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DOMCORE_WITNESS_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys,
        "search",
        "--signature",
        "all-zero-nonempty-core",
        "--nmax",
        "7",
        "--limit",
        "10",
    )
    assert code == 3
    assert json.loads(out)["budget_exceeded"] is True


@pytest.mark.parametrize(
    "signature, witnesses",
    [
        ("claw-k4-net-diamond-free-core-zero", ("G{d?_K",)),
        ("cubic-bipartite-core-zero", ()),
    ],
)
def test_class_signature_search_pinned(capsys, tmp_path, signature, witnesses):
    """A class signature scans every connected graph but finds witnesses
    only inside its family."""
    code, out, _ = run_cli(
        capsys, "search", "--signature", signature, "--nmax", "8", "--tsv",
        "--witness-dir", str(tmp_path),
    )
    assert code == 0
    expected = [
        f"scan\t{n}\t{count}\t{int(n == 8 and bool(witnesses))}\tTrue"
        for n, count in CONNECTED_COUNTS.items()
    ]
    expected += [f"witness\t8\t{text}" for text in witnesses]
    assert out.splitlines() == expected


def test_jobs_do_not_change_stdout(capsys, tmp_path):
    cases = (  # arguments, exit code
        (("search", "--signature", "cover-core-zero-anticore", "--nmax", "7", "--full"), 0),
        (("search", "--signature", "all-zero-nonempty-core", "--nmax", "7", "--limit", "40"), 3),
        (("verify", "--nmax", "6"), 0),
    )
    for argv, code in cases:
        if argv[0] == "search":
            argv += ("--witness-dir", str(tmp_path))
        seq = run_cli(capsys, *argv, "--jobs", "1")[:2]
        par = run_cli(capsys, *argv, "--jobs", "2")[:2]
        assert par == seq, argv
        assert seq[0] == code, argv


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True


def test_verify_tsv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "3", "--tsv")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == len(PER_GRAPH_CHECKS) + 2 == 27
    assert [row[0] for row in rows[: len(PER_GRAPH_CHECKS)]] == [
        name for name, _ in PER_GRAPH_CHECKS
    ]
    # every per-graph check ran on the 4 connected graphs with n <= 3
    assert {row[1] for row in rows[: len(PER_GRAPH_CHECKS)]} == {"4"}
    assert all(len(row) == 4 and row[2] == "0" and row[3] == "pass" for row in rows)


def test_dead_worker_exits_five(capsys, monkeypatch):
    def die(*args, **kwargs):
        raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr("domcore.cli.verify_corpus", die)
    code, out, err = run_cli(capsys, "verify", "--nmax", "3", "--jobs", "2")
    assert code == EXIT_WORKER == 5
    assert out == ""
    assert err.startswith("worker error: ")


def test_usage_errors(capsys):
    assert run_cli(capsys, "classify")[0] == 1  # no input source
    assert run_cli(capsys, "classify", "--g6", "A_", "--stdin-g6")[0] == 1
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "search", "--signature", "nope", "--nmax", "5")[0] == 1
    assert run_cli(capsys, "search", "--signature", "all-zero-nonempty-core", "--nmax", "99")[0] == 1
    assert run_cli(capsys, "search", "--signature", "all-zero-nonempty-core", "--nmax", "5", "--jobs", "0")[0] == 1
    assert run_cli(capsys, "search", "--signature", "all-zero-nonempty-core", "--nmax", "5", "--limit", "0")[0] == 1
    assert run_cli(capsys, "verify", "--nmax", "0")[0] == 1
    assert run_cli(capsys, "verify", "--nmax", "3", "--jobs", "0")[0] == 1
    assert run_cli(capsys, "enumerate", "--n", "11")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_input_errors(capsys, tmp_path):
    assert run_cli(capsys, "classify", "--g6", "~~~bogus")[0] == 2
    assert run_cli(capsys, "gamma", "--edges", str(tmp_path / "missing.txt"))[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not an edge list")
    assert run_cli(capsys, "gamma", "--edges", str(bad))[0] == 2
    # bytes that are not UTF-8 are malformed input too, not a crash
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "gamma", "--edges", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    # each order option names its limit; argparse wraps help lines
    for argv, limits in (
        (("verify", "--help"), [f"at most {VERIFY_MAX}"]),
        (("search", "--help"), [f"at most {ENUMERATION_MAX}"]),
        (
            ("enumerate", "--help"),
            [
                f"at most {ENUMERATION_MAX}",
                f"at most {TREE_ENUMERATION_MAX} with --trees",
                f"{CANONICAL_MAX}-vertex limit of canonical forms",
            ],
        ),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        text = " ".join(out.split())
        for limit in limits:
            assert limit in text
    # enumerate --trees is the one command that reaches either library
    # limit: connected enumeration and search stop at their order limit,
    # verify adds at most one vertex to a graph, and gamma, classify and
    # recognize take neither canonical forms nor all minimum sets
    assert max(ENUMERATION_MAX, VERIFY_MAX + 1) < min(CANONICAL_MAX, ALL_SETS_MAX)


def test_module_entry_points_match_run(capsys):
    for argv, want in (
        (["gamma", "--g6", "Cl", "--tsv"], (0, "4\t2\t0,1\n")),
        (["gamma"], (1, "")),  # no input source: usage error
    ):
        assert run_cli(capsys, *argv)[:2] == want
        for module in ("domcore", "domcore.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv],
                capture_output=True,
                text=True,
                env=src_env(),
                timeout=60,
            )
            assert (proc.returncode, proc.stdout) == want, module

"""Command-line front end.

Six subcommands: gamma, classify, recognize, enumerate, search, verify.
Graph-input commands accept exactly one of --g6, --edges, or --stdin-g6;
the stream mode emits one JSON object per input line.  Output is JSON by
default or tab-separated rows with --tsv, and is byte-identical across
repeated runs and across --jobs settings.

Exit codes: 0 success, 1 usage error, 2 input format error, 3 budget
exceeded, 4 verification violations, 5 a --jobs worker died.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor

from .canonical import CANONICAL_MAX
from .classify import classify_all, report_to_dict
from .enumeration import (
    ENUMERATION_MAX,
    TREE_ENUMERATION_MAX,
    enumerate_connected,
    enumerate_trees,
)
from .graph import Graph, GraphError, bits, parse_edge_list
from .graph6 import parse_graph6, write_graph6
from .recognize import class_flags
from .search import (
    SIGNATURES,
    search_signature,
    witness_directory,
    write_witness_file,
)
from .solve import gamma_exact
from .verify import VERIFY_MAX, verify_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATIONS = 4
EXIT_WORKER = 5

JOBS_HELP = "worker processes, at most the CPU count; the output does not depend on it"


def _fail_usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _inputs(args):
    """(graph6 text, graph) per input graph: each nonblank stdin line in
    turn with --stdin-g6, else (None, the graph of --g6 or --edges)."""
    if args.stdin_g6:
        for line in sys.stdin:
            text = line.strip()
            if text:
                yield text, parse_graph6(text)
    elif args.g6 is not None:
        yield None, parse_graph6(args.g6)
    else:
        with open(args.edges) as fh:
            edges = fh.read()
        yield None, parse_edge_list(edges)


def _gamma_payload(g: Graph) -> dict:
    report = gamma_exact(g)
    return {"n": g.n, "gamma": report.gamma, "witness": sorted(bits(report.witness))}


def _gamma_rows(payload: dict, prefix: str):
    witness = ",".join(str(v) for v in payload["witness"])
    yield f"{prefix}\t{payload['gamma']}\t{witness}"


def _classify_payload(g: Graph) -> dict:
    return {"n": g.n, **report_to_dict(classify_all(g))}


def _classify_rows(payload: dict, prefix: str):
    for vc in payload["vertices"]:
        yield f"{prefix}\t{vc['id']}\t{vc['removal']}\t{vc['membership']}"


def _recognize_payload(g: Graph) -> dict:
    return {"n": g.n, "classes": class_flags(g)}


def _recognize_rows(payload: dict, prefix: str):
    cells = [prefix]
    for key, value in payload["classes"].items():
        if key == "contains":
            cells.extend(f"{name}={int(hit)}" for name, hit in value.items())
        else:
            cells.append(f"{key}={int(value)}")
    yield "\t".join(cells)


def _cmd_graph(args) -> int:
    """gamma, classify and recognize: args.payload(g) per input graph,
    printed as JSON or as the TSV rows of args.rows(payload, prefix).
    A stream line's prefix is its graph6 text, a single graph's is n; a
    stream prints one JSON line per graph, graph6 first, a single graph
    indented JSON."""
    for text, g in _inputs(args):
        payload = args.payload(g)
        if args.tsv:
            for row in args.rows(payload, str(g.n) if text is None else text):
                print(row)
        elif text is None:
            print(json.dumps(payload, indent=2))
        else:
            print(json.dumps({"graph6": text, **payload}))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cap = TREE_ENUMERATION_MAX if args.trees else ENUMERATION_MAX
    if not 1 <= args.n <= cap:
        return _fail_usage(f"--n must be between 1 and {cap}")
    stream = enumerate_trees(args.n) if args.trees else enumerate_connected(args.n)
    if args.count_only:
        count = sum(1 for _ in stream)
        if args.tsv:
            print(f"{args.n}\t{count}")
        else:
            print(json.dumps({"n": args.n, "count": count}, indent=2))
        return EXIT_OK
    for g in stream:
        text = write_graph6(g)
        if args.tsv:
            print(f"{args.n}\t{text}")
        else:
            print(json.dumps({"n": args.n, "graph6": text}))
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.signature not in SIGNATURES:
        known = ", ".join(sorted(SIGNATURES))
        return _fail_usage(f"unknown signature {args.signature!r}; known: {known}")
    if not 1 <= args.nmax <= ENUMERATION_MAX:
        return _fail_usage(f"--nmax must be between 1 and {ENUMERATION_MAX}")
    if args.jobs < 1:
        return _fail_usage("--jobs must be at least 1")
    if args.limit is not None and args.limit < 1:
        return _fail_usage("--limit must be at least 1")
    result = search_signature(
        args.nmax,
        SIGNATURES[args.signature],
        stop_at_first_order=not args.full,
        max_graphs=args.limit,
        jobs=args.jobs,
    )
    payload = result.to_dict()
    if result.witnesses:
        directory = args.witness_dir or witness_directory()
        payload["witness_file"] = write_witness_file(result, directory)
    if args.tsv:
        for scan in payload["scans"]:
            print(
                "scan\t{n}\t{graphs_scanned}\t{witness_count}\t{complete}".format(
                    **scan
                )
            )
        for w in payload["witnesses"]:
            print(f"witness\t{w['n']}\t{w['graph6']}")
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_BUDGET if result.budget_exceeded else EXIT_OK


def _cmd_verify(args) -> int:
    if not 1 <= args.nmax <= VERIFY_MAX:
        return _fail_usage(f"--nmax must be between 1 and {VERIFY_MAX}")
    if args.jobs < 1:
        return _fail_usage("--jobs must be at least 1")
    report = verify_corpus(args.nmax, jobs=args.jobs)
    payload = report.to_dict()
    if args.tsv:
        for check in payload["checks"]:
            status = "pass" if check["violations"] == 0 else "FAIL"
            print(
                f"{check['name']}\t{check['graphs_checked']}"
                f"\t{check['violations']}\t{status}"
            )
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK if report.all_pass else EXIT_VIOLATIONS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcore",
        description="Exact domination analysis for small graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text, payload, rows in (
        ("gamma", "domination number and one witness set", _gamma_payload, _gamma_rows),
        (
            "classify",
            "per-vertex removal and membership classes",
            _classify_payload,
            _classify_rows,
        ),
        (
            "recognize",
            "graph class flags and pattern hits",
            _recognize_payload,
            _recognize_rows,
        ),
    ):
        p = subs.add_parser(name, help=help_text)
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--g6", metavar="STRING", help="graph6 string")
        grp.add_argument("--edges", metavar="FILE", help="edge-list file")
        grp.add_argument(
            "--stdin-g6",
            action="store_true",
            help="read graph6 lines from stdin, one report per line",
        )
        p.add_argument("--tsv", action="store_true", help="tab-separated output")
        p.set_defaults(func=_cmd_graph, payload=payload, rows=rows)

    p = subs.add_parser("enumerate", help="stream connected graphs of one order")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"vertex count, at most {ENUMERATION_MAX} "
        f"(at most {TREE_ENUMERATION_MAX} with --trees, the "
        f"{CANONICAL_MAX}-vertex limit of canonical forms)",
    )
    p.add_argument("--trees", action="store_true", help="trees only")
    p.add_argument("--count-only", action="store_true", help="print the count")
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("search", help="hunt for vertex-partition signatures")
    p.add_argument("--signature", required=True, help="registered signature name")
    p.add_argument(
        "--nmax",
        type=int,
        required=True,
        help=f"largest order scanned, at most {ENUMERATION_MAX}",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="scan every order up to --nmax instead of stopping at the first hit",
    )
    p.add_argument("--limit", type=int, default=None, help="cap on graphs examined")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--witness-dir", default=None, help="directory for witness files")
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("verify", help="run the invariant suite over all graphs")
    p.add_argument(
        "--nmax",
        type=int,
        required=True,
        help=f"largest order verified, at most {VERIFY_MAX}",
    )
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--tsv", action="store_true", help="tab-separated output")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except BrokenExecutor as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    # after BrokenPipeError, which is an OSError
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


__all__ = ["main", "run"]

if __name__ == "__main__":
    main()

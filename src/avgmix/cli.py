"""Command-line interface.

Subcommands: census, rank, matrix, family, find-tstar, verify, compare.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The AMM_THREADS environment variable overrides any --threads flag.
`family` starts from the built-in 18-vertex tree t* and writes no file;
`find-tstar` always runs the search that finds t*.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .census import (
    METHODS,
    census,
    compare_tables,
    records_from_csv,
    records_to_csv,
)
from .errors import ConsistencyError
from .exact import average_mixing_exact, rat_matrix_to_csv, rat_matrix_to_json
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, parse_edge_list
from .numeric import classify_float, float_matrix_csv
from .rooted_family import build_family, family_report_csv, find_t_star
from .verify import SUITES, run_suite


def _threads(args) -> int:
    env = os.environ.get("AMM_THREADS")
    if not env:
        if args.threads < 1:
            raise ValueError("threads must be positive")
        return args.threads
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"AMM_THREADS must be a positive integer, got {env!r}")
    return threads


def _progress(verbose: bool, template: str):
    """A callback printing `template` filled with its arguments to stderr, or None.

    When stderr's reader goes away, stderr is pointed at os.devnull and the
    run goes on unreported; the devnull redirect also keeps the flush at
    interpreter exit from failing, which would turn the exit status into 120.
    """
    if not verbose:
        return None

    def report(*values):
        try:
            print(template.format(*values), file=sys.stderr, flush=True)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stderr.fileno())
            os.close(devnull)

    return report


def _load_graph(spec: str) -> Graph:
    """A graph from a graph6 literal, a .g6 file, or an edge-list file."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="ascii") as fh:
            text = fh.read()
        stripped = text.strip()
        first = stripped.splitlines()[0].strip() if stripped else ""
        if first.isdigit():
            return parse_edge_list(text)
        return parse_graph6(first)
    return parse_graph6(spec)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_census(args) -> int:
    records = census(
        args.n_min,
        args.n_max,
        method=args.method,
        threads=_threads(args),
        chunk_size=args.chunk_size,
        checkpoint_path=args.checkpoint,
        progress=_progress(args.verbose, "n={}: {} chunks done"),
    )
    _write_or_print(records_to_csv(records), args.out)
    return 0


def _cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "float":
        rank, simple, matrix = classify_float(g)
        print(f"n={g.n} rank={rank} simple={str(simple).lower()} method=float")
        if args.matrix:
            sys.stdout.write(float_matrix_csv(matrix))
        return 0
    res = average_mixing_exact(g)
    print(f"n={g.n} rank={res.rank} simple={str(res.simple).lower()} method=exact")
    if args.matrix:
        sys.stdout.write(rat_matrix_to_csv(res.matrix))
    return 0


def _cmd_matrix(args) -> int:
    g = _load_graph(args.graph)
    res = average_mixing_exact(g)
    if args.format == "json":
        print(rat_matrix_to_json(res.matrix))
    else:
        sys.stdout.write(rat_matrix_to_csv(res.matrix))
    return 0


def _cmd_family(args) -> int:
    members = build_family(args.iterations, vertex_cap=args.vertex_cap)
    _write_or_print(family_report_csv(members), args.out)
    return 0


def _cmd_find_tstar(args) -> int:
    progress = _progress(args.verbose, "scanned {} trees")
    t = find_t_star(threads=_threads(args), progress=progress)
    print(f"found: {write_graph6(t)}")
    return 0


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    ok = run_suite(args.suite, args.n_max)
    print(f"{'PASS' if ok else 'FAIL'} ({time.perf_counter() - start:.2f} s)")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    with open(args.census_csv, "r", encoding="utf-8") as fh:
        records = records_from_csv(fh.read())
    report = compare_tables(records, collect_certificates=not args.no_certificates)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avgmix", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="rank census over all trees per order")
    c.add_argument("--n-min", type=int, default=2)
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--method", choices=METHODS, default="coeff-fast")
    c.add_argument("--threads", type=int, default=1)
    c.add_argument("--chunk-size", type=int, default=1024)
    c.add_argument("--checkpoint", help="JSON checkpoint file for interrupt/resume")
    c.add_argument("--out", help="CSV output path (default: stdout)")
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(fn=_cmd_census)

    r = sub.add_parser("rank", help="rank and simplicity of one graph")
    r.add_argument("graph", help="graph6 string, .g6 file, or edge-list file")
    r.add_argument("--method", choices=("exact", "float"), default="exact")
    r.add_argument("--matrix", action="store_true",
                   help="also print the matrix: exact fractions, or floats with --method float")
    r.set_defaults(fn=_cmd_rank)

    m = sub.add_parser("matrix", help="exact average mixing matrix of one graph")
    m.add_argument("graph")
    m.add_argument("--format", choices=("csv", "json"), default="csv")
    m.set_defaults(fn=_cmd_matrix)

    f = sub.add_parser("family", help="iterated pendant family report")
    f.add_argument("--iterations", type=int, default=2)
    f.add_argument("--vertex-cap", type=int, default=144)
    f.add_argument("--out")
    f.set_defaults(fn=_cmd_family)

    t = sub.add_parser("find-tstar", help="search the 18-vertex low-rank tree")
    t.add_argument("--threads", type=int, default=1)
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(fn=_cmd_find_tstar)

    v = sub.add_parser("verify", help="run a named invariant suite")
    v.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    v.add_argument("--n-max", type=int, default=None)
    v.set_defaults(fn=_cmd_verify)

    k = sub.add_parser("compare", help="compare a census CSV against the published tables")
    k.add_argument("census_csv")
    k.add_argument("--no-certificates", action="store_true")
    k.set_defaults(fn=_cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

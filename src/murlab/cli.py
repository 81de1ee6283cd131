"""Command-line front end.

Subcommands: ``mur`` (single graph), ``batch`` (graph6 file), ``verify``
(named suites), ``replay`` (re-check a report document).  Exit codes:
0 ok, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .engine import Budget, compute_mur, mur_spread
from .graphs import Graph, GraphError, parse_edge_list, parse_graph6
from .report import ReportError, build_report, parse_report, replay_report, report_to_json
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _budget_from_args(args) -> Budget:
    return Budget(search_nodes=args.budget)


def _node_count(text: str) -> int:
    """The ``--budget`` value: an integer >= 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a node count: {text!r}")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_node_count, default=Budget.search_nodes,
                   help="search node budget for the induced-path searches (default %(default)s)")


def _load_graph(token: str) -> Graph:
    if os.path.exists(token):
        with open(token) as fh:
            return parse_edge_list(fh.read())
    return parse_graph6(token)


def _summary(res) -> str:
    lo, hi = res.interval()
    certs = f"[lower: {res.lower_cert.describe()}; upper: {res.upper_cert.describe()}]"
    if res.exact:
        return f"mur = {res.value} (exact) {certs}"
    return f"mur ∈ [{lo},{hi}] {certs}"


def cmd_mur(args) -> int:
    try:
        g = _load_graph(args.input)
    except (OSError, UnicodeDecodeError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.complement:
        g = g.complement()
    budget = _budget_from_args(args)
    start = time.monotonic()
    spread = None
    if args.spread is None:
        res = compute_mur(g, budget)
    else:
        try:
            spread = mur_spread(g, args.spread, budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        res = spread.whole
    elapsed = time.monotonic() - start
    if args.json:
        print(report_to_json(build_report(g, res, budget, elapsed, spread)))
    else:
        print(_summary(res))
        if spread is not None:
            if spread.exact:
                print(f"spread at {spread.vertex} = {spread.value} (exact)")
            else:
                print(f"spread at {spread.vertex} ∈ [{spread.lower},{spread.upper}]")
    return EXIT_OK


def cmd_batch(args) -> int:
    try:
        with open(args.file) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    budget = _budget_from_args(args)
    exact = interval = errors = 0
    for lineno, line in enumerate(lines, 1):
        token = line.strip()
        if not token:
            continue
        try:
            g = parse_graph6(token)
        except GraphError as exc:
            errors += 1
            print(f"line {lineno}: error: {exc}", file=sys.stderr)
            continue
        start = time.monotonic()
        res = compute_mur(g, budget)
        elapsed = time.monotonic() - start
        if res.exact:
            exact += 1
        else:
            interval += 1
        if args.json:
            doc = build_report(g, res, budget, elapsed)
            print(report_to_json(doc) if args.indent else
                  report_to_json(doc).replace("\n", " "))
        else:
            print(f"{token}: {_summary(res)}")
    print(
        f"summary: {exact + interval} graphs, {exact} exact, "
        f"{interval} interval, {errors} errors",
        file=sys.stderr,
    )
    return EXIT_USAGE if errors else EXIT_OK


def _print_checks(checks, verbose: bool) -> int:
    """Print each failed check, and each passed one too when verbose; return
    the number failed."""
    failed = 0
    for name, ok, msg in checks:
        failed += not ok
        if not ok or verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  {msg}")
    return failed


def cmd_verify(args) -> int:
    try:
        checks = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    failed = _print_checks(checks, args.verbose)
    print(f"{args.suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_replay(args) -> int:
    try:
        with open(args.file) as fh:
            checks = replay_report(parse_report(fh.read()))
    except (OSError, ReportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = _print_checks(checks, args.verbose)
    print(f"replay: {'ok' if not failed else f'{failed} checks failed'}")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="murlab",
        description="Certified bounds on the minimum universal rank of simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mur", help="analyze one graph (graph6 token or edge-list file)")
    p.add_argument("input", help="graph6 string, or path to an edge-list file")
    p.add_argument("--json", action="store_true", help="emit a murlab-report/1 document")
    p.add_argument("--complement", action="store_true", help="analyze the complement")
    p.add_argument("--spread", type=int, metavar="V", help="also compute the spread at vertex V")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_mur)

    p = sub.add_parser("batch", help="analyze a file of graph6 tokens, one per line")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="one report document per line")
    p.add_argument("--indent", action="store_true", help="pretty-print JSON reports")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true", help="also list passing checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-check every certificate in a report file")
    p.add_argument("file")
    p.add_argument("--verbose", action="store_true", help="also list passing checks")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands:
  analyze        per-graph JSON reports (cutsets, unmixedness, CM, depth)
  verify         run a theorem verifier over a graph corpus
  initial-ideal  print the square-free initial ideal generators

Exit codes: 0 success, 1 parse or usage error or violation, 2
indeterminate (budget or cap hit), 3 hypothesis-relevant findings only, 64
unknown theorem id; a violation beats indeterminate, which beats findings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from .binomial_edge import DEFAULT_PATH_CAP, initial_ideal
from .graphs import GraphParseError, parse_edge_list, parse_graph6
from .homology import (FieldSpec, Limits, DEFAULT_FACE_BUDGET,
                       DEFAULT_LATTICE_BUDGET)
from .lab import VERIFIERS, analyze, report_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INDETERMINATE = 2
EXIT_HYPOTHESIS = 3
EXIT_UNKNOWN_THEOREM = 64

_ENV_PREFIX = "BEI_"


def _env_default(name, fallback):
    """The BEI_<name> value as its raw string, which the flag's own type
    converts, or the built-in fallback."""
    return os.environ.get(_ENV_PREFIX + name, fallback)


def _characteristic(text):
    """--field's type: 0 for the rationals, or a prime below 2**31."""
    try:
        return FieldSpec(int(text)).characteristic
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither 0 nor a prime below 2**31") from None


def _at_least(low):
    """The type of a count flag: an integer no less than ``low``."""
    def count(text):
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer >= {low}")
    return count


def build_parser():
    p = argparse.ArgumentParser(
        prog="beilab",
        description="Combinatorial Cohen-Macaulayness of binomial edge ideals.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--face-budget", type=_at_least(0),
                        default=_env_default("FACE_BUDGET", DEFAULT_FACE_BUDGET))
        sp.add_argument("--lattice-budget", type=_at_least(0),
                        default=_env_default("LATTICE_BUDGET",
                                             DEFAULT_LATTICE_BUDGET))
        sp.add_argument("--max-n", type=_at_least(0),
                        default=_env_default("MAX_N", 16))
        sp.add_argument("--field", type=_characteristic,
                        default=_env_default("FIELD", 0),
                        help="characteristic: 0 or a prime")
        sp.add_argument("--threads", type=_at_least(1),
                        default=_env_default("THREADS", 1))

    a = sub.add_parser("analyze", help="per-graph JSON reports")
    a.add_argument("input", help="file path or - for stdin")
    common(a)

    v = sub.add_parser("verify", help="run a theorem verifier over a corpus")
    v.add_argument("theorem", help="|".join(sorted(VERIFIERS)))
    v.add_argument("corpus", help="file path or - for stdin")
    common(v)

    i = sub.add_parser("initial-ideal", help="print initial ideal generators")
    i.add_argument("input", help="file path or - for stdin")
    common(i)
    return p


def _limits(args):
    """The field and the two budgets of a parsed command line."""
    return Limits(FieldSpec(args.field), args.lattice_budget,
                  args.face_budget)


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise GraphParseError(f"byte {e.start}: not ASCII text") from None


def _looks_graph6(line):
    return bool(line) and all(63 <= ord(c) <= 126 for c in line)


def parse_input(text):
    """Graphs from text: a graph6 stream (one per line) or a single
    edge list with an "n m" header. Raises GraphParseError with line info."""
    lines = [ln.strip() for ln in text.splitlines()]
    first = next((ln for ln in lines if ln), None)
    if first is None:
        return []
    if first.startswith(">") or _looks_graph6(first):
        graphs = []
        for k, ln in enumerate(lines, 1):
            if not ln:
                continue
            if not (ln.startswith(">") or _looks_graph6(ln)):
                raise GraphParseError(f"line {k}: not graph6: {ln!r}")
            try:
                graphs.append(parse_graph6(ln))
            except GraphParseError as e:
                raise GraphParseError(f"line {k}: {e}") from e
        return graphs
    toks = first.split()
    if len(toks) == 2 and all(t.lstrip("-").isdigit() for t in toks):
        return [parse_edge_list(text)]
    raise GraphParseError(f"line 1: neither graph6 nor edge-list: {first!r}")


def _cap_exceeded(g, max_n):
    """The name of the cap a graph is over, or None if it is within both:
    --max-n, and the admissible-path cap of the initial ideal."""
    if g.n > max_n:
        return "max-n"
    if g.n > DEFAULT_PATH_CAP:
        return "path-cap"
    return None


def _analyze_one(g, limits, max_n):
    cap = _cap_exceeded(g, max_n)
    if cap:
        return json.dumps({"budget": f"{cap} exceeded"},
                          separators=(",", ":"))
    return report_json(analyze(g, limits))


def cmd_analyze(args, out=sys.stdout):
    limits = _limits(args)
    try:
        graphs = parse_input(_read_text(args.input))
    except (GraphParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    # output order matches input order regardless of completion order
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        reports = list(pool.map(
            lambda g: _analyze_one(g, limits, args.max_n), graphs))
    status = EXIT_OK
    for rep in reports:
        print(rep, file=out)
        if '"budget"' in rep:
            status = EXIT_INDETERMINATE
    return status


def cmd_verify(args, out=sys.stdout):
    if args.theorem not in VERIFIERS:
        print(f"error: unknown theorem id {args.theorem!r}; "
              f"known: {', '.join(sorted(VERIFIERS))}", file=sys.stderr)
        return EXIT_UNKNOWN_THEOREM
    try:
        graphs = parse_input(_read_text(args.corpus))
    except (GraphParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    within = [g for g in graphs if not _cap_exceeded(g, args.max_n)]
    verdict = VERIFIERS[args.theorem](within, _limits(args),
                                      corpus_name=args.corpus)
    verdict = replace(verdict, indeterminate=verdict.indeterminate
                      + len(graphs) - len(within))
    print(verdict.to_json(), file=out)
    if verdict.violations:
        return EXIT_PARSE  # hard failure, never hypothesis-relevant
    if verdict.indeterminate:
        return EXIT_INDETERMINATE
    if verdict.hypothesis_relevant or verdict.findings:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_initial_ideal(args, out=sys.stdout):
    try:
        graphs = parse_input(_read_text(args.input))
    except (GraphParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    status = EXIT_OK
    for k, g in enumerate(graphs):
        if k:
            print("", file=out)
        cap = _cap_exceeded(g, args.max_n)
        if cap:
            print(f"# {cap} exceeded", file=out)
            status = EXIT_INDETERMINATE
            continue
        text = initial_ideal(g).to_text()
        if text:
            print(text, file=out)
    return status


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 means indeterminate here
        return EXIT_PARSE if stop.code == 2 else stop.code
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_initial_ideal(args)


if __name__ == "__main__":
    sys.exit(main())

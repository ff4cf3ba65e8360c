"""Command-line surface.

Subcommands:
  analyze        per-graph JSON reports (cutsets, unmixedness, CM, depth)
  verify         run a theorem verifier over a graph corpus
  initial-ideal  print the square-free initial ideal generators

Exit codes: 0 success, 1 parse or usage error, violation, or standard
output closed early or at start, 2 indeterminate (budget or cap hit), 3
hypothesis-relevant findings only, 64 unknown theorem id; a violation
beats indeterminate, which beats findings.
"""

import argparse
import json
import os
import sys

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


# each flag's type, built-in default and help; the BEI_* variable of its
# name (BEI_FACE_BUDGET for --face-budget) overrides the default
_FLAGS = {
    "--face-budget": (_at_least(0), DEFAULT_FACE_BUDGET, None),
    "--lattice-budget": (_at_least(0), DEFAULT_LATTICE_BUDGET, None),
    "--max-n": (_at_least(0), 16, None),
    "--field": (_characteristic, 0, "characteristic: 0 or a prime"),
    "--threads": (_at_least(1), 1, "accepted for compatibility; no effect"),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="beilab",
        description="Combinatorial Cohen-Macaulayness of binomial edge ideals.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, summary, positionals, flags):
        sp = sub.add_parser(name, help=summary)
        for arg, arg_help in positionals:
            sp.add_argument(arg, help=arg_help)
        for flag in flags:
            kind, fallback, flag_help = _FLAGS[flag]
            # a raw BEI_* string goes through the flag's own type
            env = "BEI_" + flag[2:].upper().replace("-", "_")
            sp.add_argument(flag, type=kind, help=flag_help,
                            default=os.environ.get(env, fallback))
        sp.set_defaults(run=run)

    source = "file path or - for stdin"
    command("analyze", cmd_analyze, "per-graph JSON reports",
            [("input", source)], list(_FLAGS))
    command("verify", cmd_verify, "run a theorem verifier over a corpus",
            [("theorem", "|".join(sorted(VERIFIERS))), ("corpus", source)],
            ["--face-budget", "--lattice-budget", "--max-n", "--field"])
    command("initial-ideal", cmd_initial_ideal,
            "print initial ideal generators", [("input", source)],
            ["--max-n"])
    return p


def _limits(args):
    """The field and the two budgets of a parsed command line."""
    return Limits(FieldSpec(args.field), args.lattice_budget,
                  args.face_budget)


def _read_graphs(path):
    """The graphs of a file, or of stdin for "-", or None once the reason
    they cannot be read or parsed is printed on stderr. Both are read as
    bytes and must be ASCII."""
    try:
        if path != "-":
            with open(path, "rb") as fh:
                data = fh.read()
        elif sys.stdin is None:
            raise OSError("standard input is closed")
        else:
            data = sys.stdin.buffer.read()
        return parse_input(data.decode("ascii"))
    except UnicodeDecodeError as e:
        error = f"byte {e.start}: not ASCII text"
    except (GraphParseError, OSError) as e:
        error = e
    print(f"error: {error}", file=sys.stderr)
    return None


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
    # each report is printed as it is made, so that a reader who stops
    # reading stops the work; --threads is accepted and selects nothing
    limits = _limits(args)
    graphs = _read_graphs(args.input)
    if graphs is None:
        return EXIT_PARSE
    status = EXIT_OK
    for g in graphs:
        rep = _analyze_one(g, limits, args.max_n)
        print(rep, file=out)
        if '"budget"' in rep:
            status = EXIT_INDETERMINATE
    return status


def cmd_verify(args, out=sys.stdout):
    if args.theorem not in VERIFIERS:
        print(f"error: unknown theorem id {args.theorem!r}; "
              f"known: {', '.join(sorted(VERIFIERS))}", file=sys.stderr)
        return EXIT_UNKNOWN_THEOREM
    graphs = _read_graphs(args.corpus)
    if graphs is None:
        return EXIT_PARSE
    within = [g for g in graphs if not _cap_exceeded(g, args.max_n)]
    verdict = VERIFIERS[args.theorem](within, _limits(args),
                                      corpus_name=args.corpus)
    verdict = verdict._replace(indeterminate=verdict.indeterminate
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
    graphs = _read_graphs(args.input)
    if graphs is None:
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
    if sys.stdout is None:
        # started with standard output closed: no report could be printed
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_PARSE
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, and 2 means indeterminate here
        return EXIT_PARSE if stop.code == 2 else stop.code
    try:
        # the stdout of this call, which the flush below must reach
        status = args.run(args, out=sys.stdout)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout was closed early: point it at devnull, so that the
        # interpreter's own flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

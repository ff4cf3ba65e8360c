"""Child processes of the benchmark; each one starts cold.

    child.py setup WORKLOAD WORK SEED [SPANS]   build the inputs into WORK
    child.py depth WORK                         the depth-fig12 operation
    child.py traced SPANS cli ARGS...           the CLI, with layer spans
    child.py traced SPANS depth WORK            depth-fig12, with layer spans

beilab is imported from PYTHONPATH, which run.py points at the checkout.
"""

from __future__ import annotations

import json
import os
import sys


def _write_lines(path, lines):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))


def setup(workload, work, seed, spans_path=None):
    from workloads import FIG_CUT_VERTICES, FIG_TEXT, shuffled

    if spans_path:
        from spans import Tracer, install_corpus
        tracer = Tracer()
        root = tracer.open("bench.setup")
    import beilab.corpus as corpus
    from beilab import emit_graph6, parse_edge_list
    if spans_path:
        install_corpus(tracer)

    if workload == "analyze-n6":
        lines = [emit_graph6(g) for g in corpus.connected_graphs_upto(6)]
        _write_lines(os.path.join(work, "input.g6"), shuffled(lines, seed))
    elif workload == "depth-fig12":
        parse_edge_list(FIG_TEXT)    # the input must parse before it is fed
        with open(os.path.join(work, "input.txt"), "w",
                  encoding="ascii") as fh:
            fh.write(FIG_TEXT)
        _write_lines(os.path.join(work, "order.txt"),
                     map(str, shuffled(FIG_CUT_VERTICES, seed)))
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    if spans_path:
        tracer.close(root)
        tracer.dump(spans_path)


def depth(work):
    """depth_equality_check on the example, one JSON line per cut vertex."""
    from beilab import lab, parse_edge_list

    with open(os.path.join(work, "input.txt"), encoding="ascii") as fh:
        fig = parse_edge_list(fh.read())
    with open(os.path.join(work, "order.txt"), encoding="ascii") as fh:
        order = [int(tok) for tok in fh.read().split()]
    for v in order:
        rec = lab.depth_equality_check(fig, v)
        print(json.dumps({"v": v, "lhs": rec.lhs, "rhs": rec.rhs,
                          "equal": rec.equal}, sort_keys=True))
    return 0


def traced(spans_path, kind, args):
    """Run one operation in-process, with a span around each layer call."""
    from spans import Tracer, install_layers

    tracer = Tracer()
    tracer.root = tracer.open("cli.main" if kind == "cli" else "bench.depth")
    import beilab.cli
    install_layers(tracer)
    if kind == "cli":
        status = beilab.cli.main(args)
    else:
        status = depth(*args)
    sys.stdout.flush()
    tracer.close(tracer.root)
    tracer.dump(spans_path)
    return status


def main(argv):
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        workload, work, seed = rest[:3]
        setup(workload, work, int(seed), *rest[3:])
        return 0
    if cmd == "depth":
        return depth(*rest)
    if cmd == "traced":
        return traced(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown child command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The beilab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--trace 1]

Every end-to-end operation runs in a fresh child process, as a user of the
command line pays cold caches on every invocation. A run sets up the
workload's inputs several times in cold processes (setup_s is the median),
checks them, then runs the timed child in whole rounds until S seconds have
passed, checking every output against computations made apart from the
program (checkers.py). The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1 (a separate traced
run, see README.md). Scratch files live under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT = 150     # seconds; a run must end within 180

sys.path.insert(0, HERE)

from spans import COUNT, END, NAME, PARENT, START  # noqa: E402
from workloads import CHILD, WORKLOADS  # noqa: E402

LAYERS = ("cli", "corpus", "lab", "graphs", "cutsets", "binomial_edge",
          "monomials", "homology")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a set-up crash)."""


def threads_default():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# child processes

class Child(NamedTuple):
    wall: float      # seconds from spawn to reaped exit
    cpu: float       # user + system seconds of the child and its reaped children
    rss_mb: float    # peak resident size
    status: int
    stdout: str


def run_child(argv, work, stem):
    """Run one cold child to its end."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    out_path = os.path.join(work, stem + ".out")
    err_path = os.path.join(work, stem + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                stderr=err, cwd=work, env=env)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="ascii", errors="replace") as fh:
        stdout = fh.read()
    if proc.returncode:
        with open(err_path, encoding="ascii", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    return Child(wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode, stdout)


def setup(wl, work, seed, times, spans=None):
    """Build the inputs `times` times in cold processes; every build must
    write the same files. Returns the set-up CPU times."""
    cpus = []
    snapshot = None
    for _ in range(times):
        argv = [CHILD, "setup", wl.name, work, str(seed)]
        child = run_child(argv + ([spans] if spans else []), work, "setup")
        if child.status:
            raise BenchError(f"{wl.name} set-up exited with {child.status}")
        cpus.append(child.cpu)
        files = {}
        for name in sorted(os.listdir(work)):
            if name.endswith((".g6", ".txt")):
                with open(os.path.join(work, name), encoding="ascii") as fh:
                    files[name] = fh.read()
        if snapshot is None:
            snapshot = files
        elif files != snapshot:
            raise BenchError(f"{wl.name} set-up is not deterministic")
    return cpus


# ---------------------------------------------------------------------------
# checks, in a separate process: networkx stays out of this one, whose
# resident size every child inherits until it execs, so that peak_rss_mb
# is the child's own

def check_outputs(wl, work, outputs):
    """(problems with the inputs, [(failed, problems)] per output)."""
    paths = []
    for k, stdout in enumerate(outputs):
        paths.append(os.path.join(work, f"check-{k}.out"))
        with open(paths[-1], "w", encoding="ascii", errors="replace") as fh:
            fh.write(stdout)
    child = run_child(
        [os.path.join(HERE, "checkers.py"), wl.name, work] + paths,
        work, "check")
    if child.status:
        raise BenchError(f"checkers exited with {child.status}")
    checked = json.loads(child.stdout.splitlines()[-1])
    return checked["inputs"], checked["outputs"]


def result_line(wl, work, rounds, metrics):
    """The result line for the timed children (rounds), whose outputs are
    checked together once timing is over."""
    inputs, outputs = check_outputs(wl, work, [c.stdout for c in rounds])
    failed = 0
    problems = list(inputs)
    for child, (n_failed, found) in zip(rounds, outputs):
        if child.status and not n_failed:     # a crash after clean output
            n_failed = wl.ops_per_round
            found.append(f"exit status {child.status}")
        failed += n_failed
        problems += found
    for line in problems[:20]:
        print(f"{wl.name}: {line}", file=sys.stderr)
    return {"correct": not inputs,
            "attempted": len(rounds) * wl.ops_per_round,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# the timed run

def timed_run(wl, work, seed, seconds):
    setup_cpus = setup(wl, work, seed, wl.setups)
    argv = wl.argv(work, threads_default())
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_child(argv, work, "op"))
        if time.perf_counter() - start >= seconds:
            break
    cpu_s = statistics.median(c.cpu for c in rounds)
    return result_line(wl, work, rounds, {
        "setup_s": _m(statistics.median(setup_cpus), "s"),
        "cpu_s": _m(cpu_s, "s"),
        "ops_per_cpu_s": _m(wl.ops_per_round / cpu_s, "1/s"),
        "peak_rss_mb": _m(statistics.median(c.rss_mb for c in rounds), "MB"),
    })


def _m(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the traced run

def traced_run(wl, work, seed):
    """Set up once and run the operation untraced, then once traced, each
    in a cold child. analyze-n6 runs traced on one thread, against an
    untraced one-thread run, so spans of one graph never overlap another's."""
    setup_spans = os.path.join(work, "setup.spans.json")
    setup(wl, work, seed, 1, setup_spans)
    threads = threads_default()
    rounds = [run_child(wl.argv(work, threads), work, "op")]
    default = untraced = rounds[0]
    if wl.name == "analyze-n6" and threads != 1:
        threads = 1
        untraced = run_child(wl.argv(work, threads), work, "op")
        rounds.append(untraced)
    op_spans = os.path.join(work, "op.spans.json")
    rounds.append(run_child(wl.argv(work, threads, op_spans), work, "traced"))
    with open(setup_spans, encoding="ascii") as fh:
        s_spans = json.load(fh)
    with open(op_spans, encoding="ascii") as fh:
        o_spans = json.load(fh)
    metrics = layer_metrics(wl, s_spans, o_spans, default.wall)
    metrics["trace.overhead_s"] = _m(rounds[-1].cpu - untraced.cpu, "s")
    return result_line(wl, work, rounds, metrics)


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for c_start, c_end in sorted((spans[c][START], spans[c][END])
                                     for c in children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, span[END])
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(span[END] - span[START] - covered)
    return out


def _pctl(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(wl, setup_spans, spans, wall_default):
    """Per-layer metrics from the traced set-up (corpus) and operation."""
    def durations(name):
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def counted(name):
        return [s[COUNT] for s in spans if s[NAME] == name]

    def layer(span):
        return span[NAME].split(".")[0]

    selfs = dict.fromkeys(LAYERS, 0.0)
    for pool, layers in ((spans, LAYERS), (setup_spans, ("corpus",))):
        for span, own in zip(pool, self_times(pool)):
            if layer(span) in layers:
                selfs[layer(span)] += own
    top_corpus = [s for s in setup_spans if layer(s) == "corpus" and (
        s[PARENT] is None or layer(setup_spans[s[PARENT]]) != "corpus")]
    analyze_ms = [1e3 * d for d in durations("lab.analyze")]
    fvecs = [{int(k): c for k, c in fv.items()}
             for fv in counted("homology.reisner_cm")]
    per_op = wl.ops_per_round

    m = {f"{name}.self_s": _m(own, "s") for name, own in selfs.items()}
    m["cli.parallel_speedup"] = _m(
        sum(analyze_ms) / 1e3 / wall_default, "x")
    m["corpus.connected_graphs_s"] = _m(
        sum(s[END] - s[START] for s in top_corpus), "s")
    m["corpus.graphs"] = _m(sum(s[COUNT] for s in top_corpus), "count")
    m["lab.analyze_p50_ms"] = _m(_pctl(analyze_ms, 50), "ms")
    m["lab.analyze_p90_ms"] = _m(_pctl(analyze_ms, 90), "ms")
    m["lab.depth_equality_check_s"] = _m(
        sum(durations("lab.depth_equality_check")), "s")
    m["cutsets.enumerate_cutsets_s"] = _m(
        sum(durations("cutsets.enumerate_cutsets")), "s")
    m["cutsets.enumerate_calls_per_graph"] = _m(
        len(durations("cutsets.enumerate_cutsets")) / per_op, "count")
    m["cutsets.cutsets_found"] = _m(
        sum(counted("cutsets.enumerate_cutsets")), "count")
    m["graphs.busy_s"] = _m(sum(s[END] - s[START] for s in spans
                                if layer(s) == "graphs"), "s")
    m["binomial_edge.initial_ideal_s"] = _m(
        sum(durations("binomial_edge.initial_ideal")), "s")
    m["binomial_edge.initial_ideal_calls_per_graph"] = _m(
        len(durations("binomial_edge.initial_ideal")) / per_op, "count")
    m["binomial_edge.generators"] = _m(
        sum(counted("binomial_edge.initial_ideal")), "count")
    m["monomials.stanley_reisner_s"] = _m(
        sum(durations("monomials.stanley_reisner")), "s")
    m["monomials.facets"] = _m(
        sum(counted("monomials.stanley_reisner")), "count")
    m["homology.reisner_cm_s"] = _m(
        sum(durations("homology.reisner_cm")), "s")
    m["homology.reisner_cm_calls"] = _m(len(fvecs), "count")
    m["homology.faces"] = _m(
        sum(c for fv in fvecs for k, c in fv.items() if k >= 0), "count")
    m["homology.boundary_nonzeros"] = _m(
        sum((k + 1) * c for fv in fvecs for k, c in fv.items() if k >= 1),
        "count")
    m["homology.hochster_depth_s"] = _m(
        sum(durations("homology.hochster_depth")), "s")
    m["homology.hochster_depth_calls"] = _m(
        len(durations("homology.hochster_depth")), "count")
    m["homology.lcm_lattice_size"] = _m(
        sum(counted("homology.hochster_depth")), "count")
    return m


# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "beilab", "__init__.py")):
        raise BenchError(f"no beilab sources under {SRC}")
    wl = WORKLOADS[name]
    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            return traced_run(wl, work, seed)
        return timed_run(wl, work, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _table(name, result):
    lines = [f"{name}: attempted {result['attempted']}, failed "
             f"{result['failed']}, correct {result['correct']}"]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except (BenchError, ImportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name, result in results.items():
            print(_table(name, result))
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent checks of the program's outputs, built on networkx.

Nothing here calls beilab. Cutsets are enumerated from the definition (T
is a cutset when c(T - {t}) < c(T) for every t in T, c counting connected
components), graphs are read with networkx's own graph6 parser, and the
reference depths come from bench/reference.json (the brute-force oracle),
looked up by isomorphism class so that a relabelled input still matches.

Each check returns the number of failed operations and a list of
problems, one line each, for standard error.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import networkx as nx

from workloads import (CONNECTED_UPTO_6, FIG_CUT_VERTICES, FIG_EDGES,
                       FIG_FINDING_AT, FIG_TEXT, HERE, read_lines)

REFERENCE = os.path.join(HERE, "reference.json")
# the known depth of the 12-vertex example, as the test suite states it
# (tests/test_cli.py: depth 12, dim 13); its 24 variables put it out of the
# brute-force oracle's reach
FIG_DEPTH = 12


def from_graph6(line):
    return nx.from_graph6_bytes(line.encode("ascii"))


def from_edges(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return g


@dataclass(frozen=True)
class Facts:
    n: int
    unmixed: bool
    accessible: bool
    dim: int
    girth: object         # int, or math.inf for a forest
    kappa: int            # vertex connectivity
    complete: bool

    def depth_bound_ok(self, depth):
        """depth <= dim, with depth < dim when J_G is not unmixed (CM
        implies unmixed), and depth <= n - kappa + 2 for a non-complete
        connected graph (Banerjee and Nunez-Betancourt 2017)."""
        if depth > self.dim or (depth == self.dim and not self.unmixed):
            return False
        return self.complete or depth <= self.n - self.kappa + 2


def facts(g):
    nodes = frozenset(g)
    comps = {}
    for size in range(len(nodes) + 1):
        for t in itertools.combinations(sorted(nodes), size):
            t = frozenset(t)
            comps[t] = nx.number_connected_components(g.subgraph(nodes - t))
    cutsets = [t for t, c in comps.items()
               if all(comps[t - {v}] < c for v in t)]
    c0 = comps[frozenset()]
    unmixed = all(comps[t] == len(t) + c0 for t in cutsets)
    members = set(cutsets)
    accessible = unmixed and all(any(t - {v} in members for v in t)
                                 for t in cutsets if t)
    n = len(nodes)
    return Facts(n=n, unmixed=unmixed, accessible=accessible,
                 dim=n + max(comps[t] - len(t) for t in cutsets),
                 girth=nx.girth(g), kappa=nx.node_connectivity(g),
                 complete=g.number_of_edges() == n * (n - 1) // 2)


class IsoIndex:
    """Values keyed by isomorphism class of small graphs."""

    def __init__(self):
        self._buckets = {}

    @staticmethod
    def _key(g):
        return (g.number_of_nodes(), g.number_of_edges(),
                tuple(sorted(d for _, d in g.degree())))

    def add(self, g, value):
        self._buckets.setdefault(self._key(g), []).append((g, value))

    def find(self, g, default=None):
        for h, value in self._buckets.get(self._key(g), ()):
            if nx.is_isomorphic(g, h):
                return value
        return default


def load_reference(path):
    with open(path, encoding="ascii") as fh:
        data = json.load(fh)
    index = IsoIndex()
    for line, depth in data["depths"].items():
        index.add(from_graph6(line), depth)
    return index


def _json_lines(text):
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# analyze-n6: one JSON report per graph

def report_problems(rep, f, ref_depth):
    """Names of the checks one analyze report fails."""
    bad = [key for key in ("n", "unmixed", "accessible", "dim")
           if rep.get(key) != getattr(f, key)]
    if rep.get("girth") != ("inf" if f.girth == math.inf else f.girth):
        bad.append("girth")
    cm, depth = rep.get("cm"), rep.get("depth")
    if ("budget" in rep or not isinstance(cm, bool)
            or type(depth) is not int):
        return bad + ["indeterminate"]
    if depth != ref_depth:
        bad.append("depth-vs-brute-oracle")
    if not f.depth_bound_ok(depth):
        bad.append("depth-upper-bound")
    if cm != (depth == f.dim):
        bad.append("cm-iff-depth-equals-dim")
    if cm != f.accessible:
        bad.append("cm-iff-accessible")
    return bad


def check_analyze(stdout, fed, expected):
    """fed: graph6 lines in input order; expected: line -> (Facts, depth)."""
    reports = {}
    order = []
    problems = []
    for rep in _json_lines(stdout):
        key = rep.get("graph")
        if key in reports:
            problems.append(f"{key}: reported twice")
            reports[key] = None
        else:
            reports[key] = rep
            order.append(key)
    failed = set()
    for line in fed:
        rep = reports.get(line)
        if rep is None:
            failed.add(line)
            problems.append(f"{line}: missing or duplicated report")
            continue
        bad = report_problems(rep, *expected[line])
        if bad:
            failed.add(line)
            problems.append(f"{line}: {', '.join(bad)}")
    # output order is input order, whatever the thread count
    fed_set = set(fed)
    present = [line for line in fed if reports.get(line) is not None]
    order = [k for k in order if k in fed_set and reports[k] is not None]
    for want, got in zip(present, order):
        if want != got and got not in failed:
            failed.add(got)
            problems.append(f"{got}: out of input order")
    return len(failed), problems


def corpus_problems(lines, count):
    """The corpus must hold `count` pairwise non-isomorphic connected
    graphs."""
    problems = []
    graphs = [from_graph6(line) for line in lines]
    if len(graphs) != count:
        problems.append(f"corpus has {len(graphs)} graphs, want {count}")
    index = IsoIndex()
    for line, g in zip(lines, graphs):
        if not nx.is_connected(g):
            problems.append(f"{line}: not connected")
        twin = index.find(g)
        if twin is not None:
            problems.append(f"{line}: isomorphic to {twin}")
        index.add(g, line)
    return problems


# ---------------------------------------------------------------------------
# depth-fig12: one record per cut vertex, three depths each

def whiskered_sides(g, v):
    """The two sides of g split at v (G - v must have two components),
    each with v kept and a new leaf hung on v."""
    comps = list(nx.connected_components(g.subgraph(set(g) - {v})))
    if len(comps) != 2:
        raise ValueError(f"G - {v} has {len(comps)} components")
    sides = []
    for comp in comps:
        side = nx.Graph(g.subgraph(comp | {v}))
        side.add_edge(v, max(g) + 1)
        sides.append(side)
    return sides


def check_depth(stdout, order, fig, sides):
    """fig: Facts of the example; sides: v -> [(Facts, reference depth or
    None)] for its two whiskered sides. Per cut vertex, three operations:
    depth(G) checks lhs, the sides' depths check rhs, and the verdict
    checks `equal` (and, at the finding's cut vertex, lhs != rhs)."""
    recs = {}
    for rec in _json_lines(stdout):
        recs.setdefault(rec.get("v"), []).append(rec)
    failed = 0
    problems = []
    for v in order:
        rs = recs.get(v, [])
        if len(rs) != 1:
            failed += 3
            problems.append(f"v={v}: {len(rs)} records")
            continue
        lhs, rhs, equal = rs[0].get("lhs"), rs[0].get("rhs"), rs[0].get("equal")
        if type(lhs) is not int or type(rhs) is not int \
                or not isinstance(equal, bool):
            failed += 3
            problems.append(f"v={v}: indeterminate {rs[0]}")
            continue
        bad = []
        if lhs != FIG_DEPTH or not fig.depth_bound_ok(lhs):
            bad.append("lhs")
        if not _rhs_ok(rhs, sides[v]):
            bad.append("rhs")
        if equal != (lhs == rhs) or (v == FIG_FINDING_AT and lhs == rhs):
            bad.append("equal")
        failed += len(bad)
        if bad:
            problems.append(f"v={v}: {', '.join(bad)} wrong in {rs[0]}")
    return failed, problems


def _rhs_ok(rhs, sides):
    """rhs = depth(side 1) + depth(side 2) - 4, with each side's depth
    known from the reference or bounded when it is too large for it."""
    (f1, d1), (f2, d2) = sides
    if d1 is not None and d2 is not None:
        return rhs == d1 + d2 - 4
    if d1 is None and d2 is None:
        return False    # no side small enough: nothing to check against
    (big, _), known = ((f1, d1), d2) if d1 is None else ((f2, d2), d1)
    other = rhs + 4 - known
    return other >= 1 and big.depth_bound_ok(other)


# ---------------------------------------------------------------------------
# what a workload's outputs must be

class Expectations:
    """Expected outputs for the inputs set-up wrote into work; problems
    found in the inputs themselves make the run incorrect."""

    def __init__(self, name, work):
        self.name = name
        self.problems = []
        reference = load_reference(REFERENCE)
        if name == "analyze-n6":
            self.fed = read_lines(os.path.join(work, "input.g6"))
            problems = corpus_problems(self.fed, CONNECTED_UPTO_6)
            self.problems += problems
            self.expected = {}
            for line in self.fed:
                g = from_graph6(line)
                if g.number_of_nodes() > 6:
                    self.problems.append(f"{line}: more than 6 vertices")
                depth = reference.find(g)
                if depth is None:
                    self.problems.append(f"{line}: no reference depth")
                self.expected[line] = (facts(g), depth)
        else:
            with open(os.path.join(work, "input.txt"), encoding="ascii") as fh:
                if fh.read() != FIG_TEXT:
                    self.problems.append("input is not the example graph")
            self.fed = [int(v) for v in
                        read_lines(os.path.join(work, "order.txt"))]
            if sorted(self.fed) != sorted(FIG_CUT_VERTICES):
                self.problems.append("cut vertices fed are not the chosen ones")
            fig = from_edges(12, FIG_EDGES)
            self.fig = facts(fig)
            self.sides = {}
            for v in FIG_CUT_VERTICES:
                self.sides[v] = [
                    (facts(s), reference.find(s)
                     if 2 * s.number_of_nodes() <= 12 else None)
                    for s in whiskered_sides(fig, v)]

    def check(self, stdout):
        """(failed operations, problems) of one timed child's output."""
        if self.name == "analyze-n6":
            return check_analyze(stdout, self.fed, self.expected)
        return check_depth(stdout, self.fed, self.fig, self.sides)


def main(argv):
    """checkers.py WORKLOAD WORK OUTPUT...: one JSON line with the problems
    found in the inputs and (failed, problems) per output file."""
    name, work, paths = argv[0], argv[1], argv[2:]
    exp = Expectations(name, work)
    outputs = []
    for path in paths:
        with open(path, encoding="ascii", errors="replace") as fh:
            outputs.append(exp.check(fh.read()))
    print(json.dumps({"inputs": exp.problems, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

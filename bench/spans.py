"""Spans recorded from outside the package, around calls into each layer.

A wrapper replaces a public function in the namespace its callers look it
up in (``lab.initial_ideal``, ``beilab.cutsets.enumerate_cutsets``, ...),
so nothing under ``src/`` changes. Each span holds its name, start, end,
parent span and graph id, plus an optional count. A count that costs more
than a length keeps the call's argument and is made when the spans are
written out, once the traced operation has ended, so that counting lands
in no span. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

_clock = time.perf_counter

NAME, START, END, PARENT, GRAPH, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, graph, count]
        self.root = None     # parent of spans opened on a thread's empty stack
        self.graph = None    # graph id stamped on spans as they open
        self._ids = itertools.count()
        self._finish = {}    # span name -> function of its kept payload
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, _clock(), None, parent, self.graph, None])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = _clock()
        self._stack().remove(idx)

    def wrap(self, owner, attr, name, count=None, finish=None,
             per_graph=False):
        """Replace owner.attr by a spanned call. count(args, result) runs
        after the span has closed; finish, if given, turns what it kept into
        the count when the spans are written out. per_graph starts a new
        graph id."""
        fn = getattr(owner, attr)
        if finish is not None:
            self._finish[name] = finish

        def spanned(*args, **kwargs):
            if per_graph:
                self.graph = next(self._ids)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, result)
            return result

        setattr(owner, attr, spanned)

    def dump(self, path):
        finished = {}    # the same complex or ideal recurs across calls
        for span in self.spans:
            finish = self._finish.get(span[NAME])
            if finish is not None and span[COUNT] is not None:
                key = (span[NAME], span[COUNT])
                if key not in finished:
                    finished[key] = finish(span[COUNT])
                span[COUNT] = finished[key]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def f_vector(facets):
    """Face counts by dimension (the empty face at -1) of the complex the
    facet masks generate, enumerated here, apart from the package."""
    seen = set(facets)
    frontier = set(facets)
    while frontier:
        nxt = set()
        for f in frontier:
            b = f
            while b:
                low = b & -b
                nxt.add(f & ~low)
                b &= b - 1
        frontier = nxt - seen
        seen |= frontier
    fvec = {}
    for f in seen:
        k = bin(f).count("1") - 1
        fvec[k] = fvec.get(k, 0) + 1
    return fvec


def lcm_lattice_size(gens):
    """Size of the union-closure of the generator supports, the empty
    support included, counted here, apart from the package's own scan."""
    closure = {0}
    for g in gens:
        closure |= {c | g for c in closure}
    return len(closure)


def install_corpus(tracer):
    import beilab.corpus as corpus

    for name in ("connected_graphs_upto", "connected_graphs", "all_graphs"):
        tracer.wrap(corpus, name, "corpus." + name,
                    count=lambda args, out: len(out))


def install_layers(tracer):
    """Wrap every cross-layer entry point that the workloads reach."""
    import beilab.cli as cli
    import beilab.cutsets as cutsets
    import beilab.lab as lab
    import beilab.monomials as monomials

    # lab, as the CLI calls it and as lab calls itself
    tracer.wrap(cli, "analyze", "lab.analyze", per_graph=True)
    for name in ("cm_check", "depth_JG", "whiskered_sides",
                 "depth_equality_check"):
        tracer.wrap(lab, name, "lab." + name)

    # graphs, as lab reaches it
    for name in ("girth", "blocks", "cut_vertices", "is_connected",
                 "emit_graph6", "decompose_at", "add_whisker"):
        tracer.wrap(lab, name, "graphs." + name)

    # cutsets: lab and cutsets itself look these up as module attributes
    tracer.wrap(cutsets, "enumerate_cutsets", "cutsets.enumerate_cutsets",
                count=lambda args, out: len(out))
    tracer.wrap(cutsets, "is_unmixed", "cutsets.is_unmixed")
    tracer.wrap(cutsets, "is_accessible", "cutsets.is_accessible")

    tracer.wrap(lab, "initial_ideal", "binomial_edge.initial_ideal",
                count=lambda args, out: len(out.gens))
    # reached from lab and from homology
    tracer.wrap(monomials, "stanley_reisner", "monomials.stanley_reisner",
                count=lambda args, out: len(out.facets))

    tracer.wrap(lab, "reisner_cm", "homology.reisner_cm",
                count=lambda args, out: tuple(args[0].facets),
                finish=f_vector)
    tracer.wrap(lab, "hochster_depth", "homology.hochster_depth",
                count=lambda args, out: tuple(args[0].gens),
                finish=lcm_lattice_size)


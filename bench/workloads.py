"""The workloads: what set-up builds, what the timed child runs, and how
many operations one run of that child completes."""

from __future__ import annotations

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# the 12-vertex running example (as in tests/conftest.py): two blocks of
# girth 3 and 4 joined through a tree of cut vertices
FIG_EDGES = [(1, 2), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 5),
             (4, 8), (5, 6), (6, 7), (6, 8), (8, 9), (8, 11), (9, 10),
             (10, 11), (11, 12)]
FIG_TEXT = (f"12 {len(FIG_EDGES)}\n"
            + "".join(f"{a} {b}\n" for a, b in FIG_EDGES))
# v = 2 is left out: its 12-vertex whiskered side alone takes minutes
FIG_CUT_VERTICES = (6, 8, 11)
FIG_FINDING_AT = 8    # the additive depth formula fails here

# connected graphs with n <= 6 (OEIS A001349)
CONNECTED_UPTO_6 = 1 + 1 + 2 + 6 + 21 + 112


def read_lines(path):
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def shuffled(items, seed):
    """The seed only permutes the order in which inputs are fed."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class Workload:
    name: str
    setups: int          # cold set-up processes per run; setup_s is their median
    ops_per_round: int   # operations one timed child completes

    def argv(self, work, threads, spans=None):
        """Arguments of the timed child after the interpreter; with a
        spans path, of the child that runs the same operation traced."""
        raise NotImplementedError


class AnalyzeN6(Workload):
    name = "analyze-n6"
    setups = 15          # about 0.4 s each
    ops_per_round = CONNECTED_UPTO_6     # one graph reported

    def argv(self, work, threads, spans=None):
        args = ["analyze", os.path.join(work, "input.g6"),
                "--threads", str(threads)]
        if spans:
            return [CHILD, "traced", spans, "cli"] + args
        return ["-m", "beilab.cli"] + args


class DepthFig12(Workload):
    name = "depth-fig12"
    setups = 25          # about 0.17 s each
    ops_per_round = 3 * len(FIG_CUT_VERTICES)   # one depth computed

    def argv(self, work, threads, spans=None):
        if spans:
            return [CHILD, "traced", spans, "depth", work]
        return [CHILD, "depth", work]


WORKLOADS = {w.name: w for w in (AnalyzeN6(), DepthFig12())}

"""Acceptance gates, one test per criterion.

Each test covers one published property or engine-equivalence gate over an
exhaustive small-graph corpus; tolerances are exact (zero mismatches) and
the base field is the rationals throughout. Criterion 5 has an n=7 stretch
extension and is the only slow-marked test.
"""

import json
import random
import subprocess
import sys

import pytest

from beilab.binomial_edge import (colon_saturation_identity,
                                  initial_ideal, ass_initial,
                                  setup_identities, verify_decomposition)
from beilab.corpus import connected_graphs, random_connected_graph
from beilab.cutsets import is_unmixed
from beilab.graphs import (complete_graph, cut_vertices, cycle_graph,
                           emit_graph6, glue_at, path_graph)
from beilab.homology import (QQ, Limits, brute_depth_oracle, hochster_depth,
                             reisner_cm)
from beilab.monomials import stanley_reisner
import beilab.lab as lab

from conftest import fig_text
from beilab.graphs import parse_edge_list


def _fig():
    return parse_edge_list(fig_text())


def test_criterion_01_decomposition_oracle(corpus5):
    """initial_ideal equals the intersection of all P_T(v) primes, n <= 5."""
    bad = [emit_graph6(g) for g in corpus5 if not verify_decomposition(g)]
    assert not bad, f"criterion 1 FAIL: {bad}"


def test_criterion_02_unmixedness_transfer(corpus6):
    """Cutset unmixedness iff all associated primes of the initial ideal
    have equal height, n <= 6."""
    bad = []
    for g in corpus6:
        heights = {p.size() for p in ass_initial(g)}
        if is_unmixed(g).unmixed != (len(heights) == 1):
            bad.append(emit_graph6(g))
    assert not bad, f"criterion 2 FAIL: {bad}"


def test_criterion_03_depth_engine_soundness(corpus6):
    """hochster_depth == depth_JG (graph interval, squeeze bounds and
    Ohtani's lemma) == brute oracle, and Reisner CM iff depth == dim, on
    every initial ideal with <= 12 variables."""
    bad = []
    for g in corpus6:
        i = initial_ideal(g)
        h = hochster_depth(i, Limits(QQ))
        b = brute_depth_oracle(i, QQ)
        if not h.depth == lab.depth_JG(g).depth == b.depth:
            bad.append((emit_graph6(g), "depth", h.depth,
                        lab.depth_JG(g).depth, b.depth))
            continue
        cm = reisner_cm(stanley_reisner(i), Limits(QQ)).is_cm
        dim = 2 * g.n - min(p.size() for p in ass_initial(g))
        if cm != (h.depth == dim):
            bad.append((emit_graph6(g), "reisner-vs-depth", cm, h.depth, dim))
    assert not bad, f"criterion 3 FAIL: {bad}"


def test_criterion_04_known_classifications():
    """Paths and complete graphs are CM (n <= 7); cycles only at n = 3."""
    bad = []
    for n in range(2, 8):
        if not lab.cm_check(path_graph(n)).is_cm:
            bad.append(f"P{n}")
        if not lab.cm_check(complete_graph(n)).is_cm:
            bad.append(f"K{n}")
    for n in range(3, 9):
        if lab.cm_check(cycle_graph(n)).is_cm != (n == 3):
            bad.append(f"C{n}")
    assert not bad, f"criterion 4 FAIL: {bad}"


def test_criterion_05_girth_theorem(corpus6):
    """CM or accessible implies girth in {3, 4, inf}; exhaustive n <= 6."""
    v = lab.verify_girth_theorem(corpus6, corpus_name="n<=6")
    assert v.clean(), f"criterion 5 FAIL: {v.violations}"


@pytest.mark.slow
def test_criterion_05_girth_theorem_n7_stretch():
    """Stretch gate: the girth theorem over all 853 connected 7-vertex
    graphs (about 3 s on a 2-vCPU Xeon, building the corpus included)."""
    v = lab.verify_girth_theorem(list(connected_graphs(7)), corpus_name="n=7")
    assert v.clean(), f"criterion 5 (n=7) FAIL: {v.violations}"


def test_criterion_06_forward_gluing_and_blocks(corpus6):
    """CM graphs: all whiskered sides at cut vertices and every
    block-with-whiskers are CM; n <= 6."""
    v = lab.verify_gluing_theorems(corpus6, corpus_name="n<=6")
    assert v.clean(), f"criterion 6 FAIL: {v.violations}"


def test_criterion_07_splitting_identity_suite(fig):
    """The 11 colon/sum identities of the cut-vertex splitting hold on the
    3-path, the example graph at v=8, and 50 seeded two-block gluings with
    n <= 9; the saturation-colon identity holds on 100 seeded graphs."""
    bad = []
    rep = setup_identities(path_graph(3), 2)
    if not rep.all_hold():
        bad.append(("P3", rep.results))
    rep = setup_identities(fig, 8)
    if not rep.all_hold():
        bad.append(("fig@8", rep.results))
    rng = random.Random(20240 + 7)
    made = 0
    while made < 50:
        n1 = rng.randint(2, 7)
        n2 = rng.randint(2, 10 - n1)
        a = random_connected_graph(rng, n1, n_min=n1)
        b = random_connected_graph(rng, n2, n_min=n2)
        g = glue_at(a, rng.choice(sorted(a.vertices())),
                    b, rng.choice(sorted(b.vertices())))
        cvs = sorted(cut_vertices(g))
        if not cvs:
            continue
        v = rng.choice(cvs)
        made += 1
        rep = setup_identities(g, v)
        if not rep.all_hold():
            bad.append((emit_graph6(g), v, rep.results))
    rng = random.Random(20240 + 8)
    for _ in range(100):
        g = random_connected_graph(rng, 8)
        v = rng.choice(sorted(g.vertices()))
        if not colon_saturation_identity(g, v):
            bad.append((emit_graph6(g), v, "colon-saturation"))
    assert not bad, f"criterion 7 FAIL: {bad}"


def test_criterion_08_deletion_hypothesis_search(corpus6):
    """Exhaustive n <= 6 search for counterexamples to the cut-vertex
    deletion hypothesis: must come back empty."""
    v = lab.hypothesis_search(corpus6, corpus_name="n<=6")
    assert not v.findings, f"criterion 8 FAIL: {v.findings}"


def test_criterion_09_depth_equality_example(fig):
    """The additive depth formula fails on the 12-vertex example at v=8
    and holds on a free-free gluing control."""
    rec = lab.depth_equality_check(fig, 8)
    assert rec.equal is not None, "criterion 9 FAIL: indeterminate"
    assert rec.equal is False, f"criterion 9 FAIL: lhs={rec.lhs} rhs={rec.rhs}"
    ctrl = glue_at(path_graph(4), 4, path_graph(4), 1)
    rec = lab.depth_equality_check(ctrl, 4)
    assert rec.equal is True, \
        f"criterion 9 FAIL (control): lhs={rec.lhs} rhs={rec.rhs}"


def test_criterion_10_determinism(tmp_path, corpus5):
    """Byte-identical JSON across runs and thread counts."""
    p = tmp_path / "corpus.g6"
    p.write_text("".join(emit_graph6(g) + "\n" for g in corpus5))

    def run(threads):
        proc = subprocess.run(
            [sys.executable, "-m", "beilab.cli", "analyze", str(p),
             "--threads", str(threads)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out1, out4, out1b = run(1), run(4), run(1)
    assert out1 == out4 == out1b, "criterion 10 FAIL: output not stable"
    # verdict JSON reproducibility across repeated in-process runs
    for tid in ("girth", "hypothesis"):
        a = lab.VERIFIERS[tid](corpus5, corpus_name="x").to_json()
        b = lab.VERIFIERS[tid](corpus5, corpus_name="x").to_json()
        assert a == b, f"criterion 10 FAIL: {tid} verdict not stable"

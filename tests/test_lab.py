import json
import random

import pytest

from beilab.graphs import (complete_graph, cycle_graph, delete_vertices,
                           glue_at, path_graph, parse_edge_list)
from beilab.homology import FieldSpec, QQ
import beilab.lab as lab


def test_cm_check_classics():
    assert lab.cm_check(path_graph(4)).is_cm
    assert lab.cm_check(complete_graph(5)).is_cm
    assert lab.cm_check(cycle_graph(3)).is_cm
    assert not lab.cm_check(cycle_graph(4)).is_cm
    assert not lab.cm_check(cycle_graph(6)).is_cm


def test_cm_check_filters_agree_with_homological_route():
    for g in [cycle_graph(4), cycle_graph(5), path_graph(5),
              complete_graph(4)]:
        a = lab.cm_check(g, use_filters=True)
        b = lab.cm_check(g, use_filters=False)
        assert a.is_cm == b.is_cm


def test_analyze_report_fields(fig):
    r = lab.analyze(path_graph(3))
    assert (r.n, r.unmixed, r.accessible, r.cm) == (3, True, True, True)
    assert r.depth == r.dim == 4
    assert r.girth == float("inf")
    r = lab.analyze(fig, with_depth=False)
    assert r.girth == 3 and r.cut_vertices == (2, 6, 8, 11)
    assert not r.consistency_violations()


def test_report_json_stable_and_schema():
    r = lab.analyze(cycle_graph(4))
    s1, s2 = lab.report_json(r), lab.report_json(r)
    assert s1 == s2
    data = json.loads(s1)
    assert set(data) >= {"graph", "n", "girth", "unmixed", "accessible",
                         "cm", "field", "depth", "dim", "witnesses"}
    assert data["cm"] is False and data["witnesses"]["unmixed"]


def test_girth_inf_encoding():
    data = json.loads(lab.report_json(lab.analyze(path_graph(2))))
    assert data["girth"] == "inf"


def test_verifiers_clean_on_small_corpus(corpus5):
    for tid in ["saturation", "deletion", "gluing", "blocks", "girth",
                "hypothesis"]:
        v = lab.VERIFIERS[tid](corpus5, corpus_name="n<=5")
        assert v.clean() and not v.hypothesis_relevant and not v.findings, tid
        json.loads(v.to_json())


def test_whiskered_sides(fig):
    w1, w2 = lab.whiskered_sides(fig, 6)
    # side graphs keep the cut vertex plus a fresh whisker tip
    assert w1.n + w2.n == fig.n + 3   # v counted twice, two tips added
    assert lab.cm_check(w1).is_cm is not None


def test_depth_equality_on_decomposable_control():
    # gluing two paths at a vertex that is free on both sides: the depth
    # formula holds
    g = glue_at(path_graph(4), 4, path_graph(4), 1)
    rec = lab.depth_equality_check(g, 4)
    assert rec.equal is True


def test_glue_pairs_cm():
    g = glue_at(path_graph(3), 3, path_graph(3), 1)
    out = lab.glue_pairs_cm(g, 3, g, 3)
    assert len(out) == 4
    assert all(is_cm for _, _, is_cm in out)


def test_verify_identification():
    g = glue_at(path_graph(3), 3, path_graph(3), 1)
    v = lab.verify_identification([((g, 3), (g, 3))], corpus_name="pair")
    assert v.instances == 1 and not v.hypothesis_relevant


def test_dim_matches_depth_for_cm_graphs():
    rng = random.Random(9)
    from beilab.corpus import random_connected_graph
    for _ in range(25):
        g = random_connected_graph(rng, 6)
        r = lab.analyze(g)
        if r.cm:
            assert r.depth == r.dim
        elif r.depth is not None:
            assert r.depth < r.dim


def test_finite_field_cm_agrees_on_small_graphs():
    gf = FieldSpec(32003)
    for g in [path_graph(4), cycle_graph(4), cycle_graph(5),
              complete_graph(4)]:
        assert lab.cm_check(g, gf, use_filters=False).is_cm == \
            lab.cm_check(g, QQ, use_filters=False).is_cm


def test_depth_question_filter(fig):
    # free-free gluing of two paths satisfies both filter conditions
    g = glue_at(path_graph(4), 4, path_graph(4), 1)
    f = lab.depth_question_filter(g, 4)
    assert f.satisfied
    assert not f.side1_has_cutset and not f.side2_has_cutset
    # the two-block 12-vertex example at v=8 fails condition (i): side one
    # minus the cut vertex has a cutset covering its neighbors, yet the cut
    # vertex is not free on side two
    f8 = lab.depth_question_filter(fig, 8)
    assert f8.side1_has_cutset and not f8.v_free_in_side2
    assert not f8.satisfied
    with pytest.raises(ValueError):
        lab.depth_question_filter(path_graph(4), 1)


def test_neighborhood_cutset_exists_matches_brute():
    rng = random.Random(11)
    from beilab.corpus import random_connected_graph
    from beilab.cutsets import is_cutset
    import itertools
    for _ in range(20):
        g = random_connected_graph(rng, 6)
        for v in g.vertices():
            nb = g.neighbors(v)
            gv, new_of = delete_vertices(g, [v])
            target = {new_of[u] for u in nb}
            brute = any(
                target <= set(t) and is_cutset(gv, t)
                for k in range(gv.n + 1)
                for t in itertools.combinations(gv.vertices(), k))
            assert lab.neighborhood_cutset_exists(g, v) == brute


def test_analyze_enumerates_cutsets_once(monkeypatch, fig):
    calls = []
    real = lab.cs.enumerate_cutsets

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(lab.cs, "enumerate_cutsets", counting)
    # the example graph stops at the unmixedness filter; the path reaches
    # Reisner
    for g in (fig, path_graph(4)):
        calls.clear()
        lab.analyze(g)
        assert len(calls) == 1

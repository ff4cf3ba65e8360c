import collections
import json
import pathlib
import random
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from beilab.binomial_edge import initial_ideal, setup_identities
from beilab.cutsets import AccessibilityReport, UnmixednessReport
from beilab.graphs import (Graph, complete_graph, cycle_graph, decompose_at,
                           delete_vertices, emit_graph6, glue_at,
                           parse_edge_list, parse_graph6, path_graph,
                           relabel)
from beilab.homology import FieldSpec, Limits, QQ
import beilab.graphs as graphs
import beilab.homology as homology
import beilab.lab as lab
from conftest import random_graphs_any

DATA = pathlib.Path(__file__).parent / "data"


def cm_by_depth(g, limits=Limits()):
    """The squeeze's own CM verdict, with neither filter: depth == dim, or
    None when the depth is out of budget."""
    depth = lab.depth_JG(g, limits).depth
    return None if depth is None else depth == lab.dim_JG(g)


def glue_pairs_cm(g, v, h, w, limits=Limits()):
    """The four cross-gluings of the sides of (g, v) and (h, w), as a list
    of (label, graph, cm), with cm None when indeterminate."""
    gsides, hsides = decompose_at(g, v).sides, decompose_at(h, w).sides
    out = []
    for i, (gi, gv) in enumerate(gsides, start=1):
        for j, (hj, hv) in enumerate(hsides, start=1):
            f = glue_at(gi, gv, hj, hv)
            out.append((f"F{i}{j}", f, lab.cm_check(f, limits).is_cm))
    return out


def verify_identification(corpus_pairs, limits=Limits(), corpus_name=""):
    """Composite gluing corollary: for CM graphs G, H with cut vertices v, w
    whose deletions are unmixed, every cross-gluing F_ij is CM (conditional,
    so a failure is hypothesis-relevant)."""
    run = lab._Run(limits)
    for (g, v), (h, w) in corpus_pairs:
        if not (run.cm(g) and run.cm(h)):
            continue
        dgv, _ = delete_vertices(g, [v])
        dhw, _ = delete_vertices(h, [w])
        if not (lab.cs.is_unmixed(dgv).unmixed
                and lab.cs.is_unmixed(dhw).unmixed):
            continue
        run.instances += 1
        for label, f, is_cm in glue_pairs_cm(g, v, h, w, limits):
            run.indeterminate += is_cm is None
            if is_cm is False:
                run.hypothesis_relevant.append(
                    (emit_graph6(f), f"{label} not CM"))
    return run.verdict("identification", corpus_name)


def test_cm_check_classics():
    assert lab.cm_check(path_graph(4)).is_cm
    assert lab.cm_check(complete_graph(5)).is_cm
    assert lab.cm_check(cycle_graph(3)).is_cm
    assert not lab.cm_check(cycle_graph(4)).is_cm
    assert not lab.cm_check(cycle_graph(6)).is_cm


def test_cm_check_filters_agree_with_homological_route():
    for g in [cycle_graph(4), cycle_graph(5), path_graph(5),
              complete_graph(4)]:
        assert lab.cm_check(g).is_cm == cm_by_depth(g)


def test_analyze_report_fields(fig):
    r = lab.analyze(path_graph(3))
    assert (r.n, r.unmixed, r.accessible, r.cm) == (3, True, True, True)
    assert r.depth == r.dim == 4
    assert r.girth == float("inf")
    r = lab.analyze(fig)
    assert r.girth == 3 and lab.cut_vertices(fig) == {2, 6, 8, 11}
    assert (r.unmixed, r.accessible, r.cm) == (False, False, False)


def test_depth_and_cm_agree_with_their_bounds_and_fields():
    # labeled graphs beyond the connected n <= 7 corpus, disconnected ones
    # included: depth <= dim, and GF(32003) and Q give one depth; CM
    # implies accessible (Bolognini, Macchia and Strazzanti, J. Algebraic
    # Combin. 2022), which implies unmixed
    checked = 0
    for g in random_graphs_any(9, 40, n_max=8):
        depth = lab.depth_JG(g).depth
        if depth is None:
            continue
        checked += 1
        assert depth <= lab.dim_JG(g), emit_graph6(g)
        assert lab.depth_JG(g, Limits(FieldSpec(32003))).depth == depth
        accessible = lab.cs.is_accessible(g).accessible
        if cm_by_depth(g):
            assert accessible, emit_graph6(g)
        if accessible:
            assert lab.cs.is_unmixed(g).unmixed, emit_graph6(g)
    assert checked > 30


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
    out = glue_pairs_cm(g, 3, g, 3)
    assert len(out) == 4
    assert all(is_cm for _, _, is_cm in out)


@pytest.mark.parametrize("split_at_1", [
    pytest.param(lambda g: decompose_at(g, 1), id="decompose_at"),
    pytest.param(lambda g: lab.whiskered_sides(g, 1), id="whiskered_sides"),
    pytest.param(lambda g: glue_pairs_cm(g, 1, g, 1), id="glue_pairs_cm"),
    pytest.param(lambda g: lab.depth_question_filter(g, 1),
                 id="depth_question_filter"),
    pytest.param(lambda g: setup_identities(g, 1), id="setup_identities"),
])
def test_split_at_a_non_cut_vertex_is_one_error(split_at_1):
    # every caller of the split reports an end vertex of a path alike
    with pytest.raises(ValueError, match="^1 is not a cut vertex$"):
        split_at_1(path_graph(4))


def test_verify_identification():
    g = glue_at(path_graph(3), 3, path_graph(3), 1)
    v = verify_identification([((g, 3), (g, 3))], corpus_name="pair")
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
    gf = Limits(FieldSpec(32003))
    for g in [path_graph(4), cycle_graph(4), cycle_graph(5),
              complete_graph(4)]:
        assert cm_by_depth(g, gf) == cm_by_depth(g, Limits(QQ))


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


def test_neighborhood_cutset_exists_rejects_a_vertex_outside_1_to_n():
    # -1 once read the neighbors of vertex 4 and deleted no vertex; the
    # whiskered sides, split by decompose_at, failed on -2 as a negative
    # shift count
    for v in (-1, 0, 5):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            lab.neighborhood_cutset_exists(path_graph(4), v)
    with pytest.raises(ValueError, match="^vertex -2 out of range$"):
        lab.whiskered_sides(path_graph(4), -2)


def test_analyze_enumerates_cutsets_once(fig):
    # one cutset lattice per analyze: the example graph stops at the
    # unmixedness filter; the path passes both filters and reaches the depth
    for g in (fig, path_graph(4)):
        lab.cs._lattice.cache_clear()
        lab.analyze(g)
        assert lab.cs._lattice.cache_info().misses == 1


def test_one_cutset_lattice_per_graph():
    g = glue_at(cycle_graph(5), 1, path_graph(3), 2)
    lab.cs._lattice.cache_clear()
    lab.cm_check(g)
    lab.cs.is_unmixed(g)
    lab.cs.is_accessible(g)
    lab.dim_JG(g)
    assert lab.cs._lattice.cache_info().misses == 1


def test_analyze_reads_each_filter_once_per_graph(corpus6, monkeypatch):
    # analyze and cm_check both ask for the unmixedness and the
    # accessibility of a graph, and the accessibility asks for the
    # unmixedness: from empty memos each reads the cutset lattice once per
    # graph, the accessibility only past its unmixedness filter, on 34 of
    # the 143 graphs
    reads = collections.Counter()
    real = lab.cs._lattice

    def counted(g):
        reads[sys._getframe(1).f_code.co_name] += 1
        return real(g)

    monkeypatch.setattr(lab.cs, "_lattice", counted)
    lab.cs.is_unmixed.cache_clear()
    lab.cs.is_accessible.cache_clear()
    for g in corpus6:
        lab.analyze(g)
    assert (reads["is_unmixed"], reads["is_accessible"]) == (143, 34)


def test_analyze_builds_each_artefact_once(monkeypatch, fig):
    calls = []

    def counting(name):
        real = getattr(lab, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    def no_reisner(*args, **kwargs):
        raise AssertionError("analyze must not run the Reisner criterion")

    for name in ("initial_ideal", "hochster_depth"):
        monkeypatch.setattr(lab, name, counting(name))
    monkeypatch.setattr(lab, "reisner_cm", no_reisner)
    # the path passes both filters and its interval closes, 2 + 3 = n + 1,
    # so it needs no initial ideal; the example graph is not unmixed and
    # its interval stays open, so it needs one, and one squeeze
    for g in (path_graph(4), fig):
        lo, hi = lab._graph_interval(g)
        calls.clear()
        lab.analyze(g)
        assert sorted(calls) == (
            [] if lo == hi else ["hochster_depth", "initial_ideal"])
    assert calls


def test_cm_by_depth_agrees_with_reisner(corpus5):
    from beilab.binomial_edge import initial_ideal
    from beilab.homology import reisner_cm
    from beilab.monomials import stanley_reisner
    for g in corpus5:
        assert cm_by_depth(g) == \
            reisner_cm(stanley_reisner(initial_ideal(g))).is_cm


def test_depth_witness_when_not_cm(monkeypatch):
    # no graph with n <= 7 is accessible yet not CM, so passing filter
    # reports stand in around C4's real depth and dimension
    c4 = cycle_graph(4)
    unmixed = UnmixednessReport(True, None, lab.dim_JG(c4))
    monkeypatch.setattr(lab.cs, "is_unmixed", lambda g: unmixed)
    monkeypatch.setattr(lab.cs, "is_accessible",
                        lambda g: AccessibilityReport(True, None))
    cert = lab.cm_check(c4)
    assert cert.is_cm is False
    label, depth, dim = cert.witness
    assert label == "depth" and depth < dim == lab.dim_JG(c4)


def test_face_budget_never_flips_cm(corpus5):
    for g in corpus5:
        budgeted = cm_by_depth(g, Limits(face_budget=1))
        assert budgeted in (None, cm_by_depth(g))


def test_indeterminate_cm_is_never_false(monkeypatch, corpus5):
    from beilab.homology import DepthResult
    real = lab.hochster_depth

    def some_out_of_budget(ideal, *args, **kwargs):
        # out of budget on about half the ideals, so that an indeterminate
        # answer meets known ones on both sides of each implication
        if len(ideal.gens) % 2:
            return real(ideal, *args, **kwargs)
        return DepthResult(None, depth_bounds=(0, ideal.nvars))

    monkeypatch.setattr(lab, "hochster_depth", some_out_of_budget)
    # two accessible graphs whose intervals stay open, (6, 7) and (5, 6):
    # in(J_G) has 12 and 11 generators
    assert lab.cm_check(parse_graph6("ExQ?")).is_cm is None
    assert lab.cm_check(parse_graph6("D}_")).is_cm is True
    # 20 of the 31 graphs with n <= 5 close on their interval; so that
    # every verifier meets indeterminate answers, each depth is left to the
    # squeeze
    monkeypatch.setattr(lab, "_graph_interval", lambda g: (0, 2 * g.n))
    verdicts = [verify(corpus5, corpus_name="n<=5")
                for verify in lab.VERIFIERS.values()]
    cut = [(g, min(lab.cut_vertices(g))) for g in corpus5
           if lab.cut_vertices(g)]
    verdicts.append(verify_identification(list(zip(cut, cut[1:]))))
    for v in verdicts:
        assert not (v.violations or v.hypothesis_relevant or v.findings), \
            v.theorem_id
        assert v.indeterminate > 0, v.theorem_id
        assert json.loads(v.to_json())["indeterminate"] == v.indeterminate


def test_analyze_matches_golden_reports(corpus6):
    # analyze_upto6.jsonl is the stdout of `beilab analyze
    # connected_upto6.g6`; every change to the engine must keep it
    # byte-identical (CI also runs the installed command on two threads)
    records = (DATA / "connected_upto6.g6").read_text().split()
    golden = (DATA / "analyze_upto6.jsonl").read_text().splitlines()
    assert records == [emit_graph6(g) for g in corpus6]
    assert len(golden) == len(records) == 143
    for record, line in zip(records, golden):
        assert lab.report_json(lab.analyze(parse_graph6(record))) == line


def test_depth_is_bounded_by_vertex_connectivity(corpus6):
    # Banerjee and Nunez-Betancourt (Proc. AMS 2017): a non-complete graph
    # G on n vertices has depth S/J_G <= n + 2 - kappa(G), kappa the vertex
    # connectivity; and depth <= dim always. The n = 7 depths are read
    # from the golden reports of connected_7.g6.
    cases = [(g, lab.depth_JG(g).depth, lab.dim_JG(g)) for g in corpus6]
    for line in (DATA / "analyze_7.jsonl").read_text().splitlines():
        rep = json.loads(line)
        cases.append((parse_graph6(rep["graph"]), rep["depth"], rep["dim"]))
    assert len(cases) == 143 + 853
    tight = 0
    for g, depth, dim in cases:
        assert depth <= dim
        if len(g.edges) < g.n * (g.n - 1) // 2:
            h = nx.Graph(list(g.edges))
            bound = g.n + 2 - nx.node_connectivity(h)
            assert depth <= bound, emit_graph6(g)
            tight += depth == bound
    assert tight > 0


def test_analyze_matches_golden_example(fig):
    # analyze_fig12.jsonl is the stdout of `beilab analyze` on the edge
    # list of the 12-vertex example (conftest.fig_text); its depth is
    # decided by the squeeze's bounds at n = 12 (CI also runs the
    # installed command)
    golden = (DATA / "analyze_fig12.jsonl").read_text()
    assert lab.report_json(lab.analyze(fig)) + "\n" == golden


def test_depth_equality_on_the_whole_example(fig):
    # every cut vertex of the 12-vertex example gives an exact record
    expected = {2: (12, 12, True), 6: (12, 12, True), 8: (12, 13, False),
                11: (12, 12, True)}
    for v, (lhs, rhs, equal) in expected.items():
        assert lab.depth_equality_check(fig, v) == \
            lab.DepthEqualityRecord(lhs, rhs, equal)
    # at v = 2 side two is the rest of G whiskered at 2, a copy of G
    side2 = lab.depth_JG(lab.whiskered_sides(fig, 2)[1])
    assert side2.depth is not None
    assert side2.depth == lab.depth_JG(fig).depth


def test_depth_lower_bound_work_on_the_example(fig, monkeypatch):
    # a depth-lemma node with variable generators is the node without them,
    # less one for each, so I + x children share their work; the one pass
    # is capped at n - pd_lb: the three checks, which close on the bounds
    # alone, evaluate at most 1,000 nodes, each stored once in a memo that
    # starts empty
    class CountingMemo(dict):
        stores = 0

        def __setitem__(self, key, value):
            CountingMemo.stores += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(homology, "_lemma_memo", CountingMemo())
    for v in (6, 8, 11):
        lab.depth_equality_check(fig, v)
    assert CountingMemo.stores <= 1000


def test_analyze_runs_one_topk_2_pass(corpus6, monkeypatch):
    # the depth of a graph is bounded from below by one pass at topk 2
    # before Ohtani's lemma and the scan: the pass at topk 4 runs only in
    # a squeeze called without a seed
    lemma = homology._depth_lower_bound
    topks = set()

    def counted(n, gens, topk, cap=None):
        topks.add(topk)
        return lemma(n, gens, topk, cap)

    monkeypatch.setattr(homology, "_depth_lower_bound", counted)
    for g in corpus6:
        lab.analyze(g)
    assert topks == {2}


def test_analyze_depth_lemma_work_over_n6(corpus6, monkeypatch):
    # one pass at topk 2 per squeeze, counted from empty memos: a node
    # is evaluated at one topk only, and one or two generators, or
    # pairwise-disjoint ones, are a closed-form leaf, so 2,197 calls
    # suffice
    lemma = homology._depth_lower_bound
    calls = 0

    def counted(n, gens, topk, cap=None):
        nonlocal calls
        calls += 1
        return lemma(n, gens, topk, cap)

    monkeypatch.setattr(homology, "_lemma_memo", {})
    monkeypatch.setattr(homology, "_depth_lower_bound", counted)
    for g in corpus6:
        lab.analyze(g)
    assert calls <= 2197


def test_analyze_builds_a_complex_only_for_the_scan(corpus6, monkeypatch):
    # the graph interval reads its upper end from the cutset lattice, and a
    # seeded squeeze builds the Stanley-Reisner complex only when the lcm
    # scan is about to run: over the corpus both happen twice, and the
    # interval never asks for the blocks
    calls = {"stanley_reisner": 0, "_lcm_lattice": 0, "blocks": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(homology.mono, "stanley_reisner")
    counting(homology, "_lcm_lattice")
    counting(lab, "blocks")
    counting(graphs, "blocks")
    for g in corpus6:
        lab.analyze(g)
    assert calls == {"stanley_reisner": 2, "_lcm_lattice": 2, "blocks": 0}


def test_seeded_and_bare_squeezes_agree_on_every_graph_upto7():
    # the squeeze seeded with the graph interval, raised by a pass at
    # topk 4, starts below the big height when the interval is looser,
    # and reads the big height only before a scan; it gives the bare
    # squeeze's depth on all 996 connected graphs with n <= 7
    for name in ("connected_upto6.g6", "connected_7.g6"):
        for line in (DATA / name).read_text().split():
            g = parse_graph6(line)
            ideal = initial_ideal(g)
            lo, hi = lab._graph_interval(g)
            lo = max(lo, homology._depth_lower_bound(
                ideal.nvars, ideal.gens, 4, hi))
            assert homology.hochster_depth(ideal, seed=(lo, hi)).depth == \
                homology.hochster_depth(ideal).depth, line


def test_ohtani_runs_between_an_open_pass_and_the_scan(corpus6,
                                                       monkeypatch):
    # the ladder of a connected graph, from an empty depth memo: no step
    # when its graph interval closes; else the pass at topk 2 up to hi,
    # Ohtani's lemma only while the pass leaves the interval open, and
    # the squeeze last, seeded with what they leave. The graphs Ohtani's
    # lemma asks for climb ladders of their own, not recorded here
    steps = []      # (name, its arguments after the first, its result)
    inside = 0      # calls nested in a recorded step are not recorded

    def recording(owner, name):
        real = getattr(owner, name)

        def wrapped(*args):
            nonlocal inside
            inside += 1
            try:
                out = real(*args)
            finally:
                inside -= 1
            if not inside:
                steps.append((name, args[1:], out))
            return out
        monkeypatch.setattr(owner, name, wrapped)

    recording(homology, "_depth_lower_bound")
    recording(lab, "_ohtani")
    recording(lab, "hochster_depth")
    ohtani = closed = 0
    for g in corpus6:
        lab._depth.cache_clear()
        steps.clear()
        lo, hi = lab._graph_interval(g)
        lab.depth_JG(g)
        if lo == hi:
            assert steps == []
            continue
        names = [name for name, _, _ in steps]
        assert names in (["_depth_lower_bound", "hochster_depth"],
                         ["_depth_lower_bound", "_ohtani", "hochster_depth"])
        _, (_, topk, cap), bound = steps[0]
        _, (_, seed), _ = steps[-1]
        assert (topk, cap) == (2, hi)
        lo = max(lo, bound)
        if names[1] == "_ohtani":
            assert lo < hi and steps[1][1][1:] == (lo, hi)
            assert seed == steps[1][2]
            ohtani += 1
        else:
            assert lo == hi and seed == (lo, hi)
            closed += 1
    assert ohtani and closed


def test_depth_equality_asks_each_graph_once(fig, monkeypatch):
    # the example's own depth is asked at every cut vertex, and one
    # whiskered side is the same graph at two of them: six graphs in all,
    # one of which closes on its graph interval, so five squeezes. The
    # 9-vertex side two at v = 8, Hh@RoK@, stays open after its pass at
    # topk 2, and Ohtani's lemma at a non-free vertex asks for four
    # more graphs: its saturation HxBvwK@, the two components of its
    # deletion, a lone vertex (@), which closes on its graph interval, and
    # FawWG, and the deleted saturation GgzwWC. Eight squeezes, none of
    # them of an ideal squeezed before
    calls = []
    real = lab.hochster_depth

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(lab, "hochster_depth", counting)
    for v in (6, 8, 11):
        lab.depth_equality_check(fig, v)
    assert len(calls) == 8
    assert len(set(calls)) == len(calls)


def test_depth_memo_keeps_limits_apart():
    # an answer out of one budget is never served to another, either way
    g = parse_graph6("F~zc?")
    tight = Limits(QQ, lattice_budget=1, face_budget=1)
    before = lab.depth_JG(g, tight)
    assert before.depth is None and before.depth_bounds == (7, 8)
    assert lab.depth_JG(g).depth == 7
    assert lab.depth_JG(g, tight) == before
    # caches must be bounded
    assert lab._depth.cache_info().maxsize == 64


def test_depth_memo_keys_on_values_not_call_form(monkeypatch):
    # the default, a positional and a keyword Limits() are one entry; C4's
    # interval, (2, 4), leaves its depth to the squeeze
    calls = []
    real = lab.hochster_depth

    def counting(ideal, limits, *args):
        calls.append(ideal)
        return real(ideal, limits, *args)

    monkeypatch.setattr(lab, "hochster_depth", counting)
    g = cycle_graph(4)
    answers = {lab.depth_JG(g), lab.depth_JG(g, Limits()),
               lab.depth_JG(g, limits=Limits())}
    assert len(answers) == 1 and len(calls) == 1
    info = lab._depth.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from((0, 1, 10, 100)), st.sampled_from((0, 1, 10, 100)))
# few random graphs with n <= 6 run out of budget (5 in 3,000 at budgets
# 1); seed 368 draws a labeled 6-path whose depth (7 in (6, 7)) and CM
# verdict budgets 1 both withhold
@example(seed=368, lattice_budget=1, face_budget=1)
def test_graph_budgets_yield_exact_answers_or_certified_intervals(
        seed, lattice_budget, face_budget):
    # a budget may withhold a graph's depth or CM verdict, never change it
    limits = Limits(QQ, lattice_budget, face_budget)
    for g in random_graphs_any(seed, 3, n_max=6):
        exact = lab.depth_JG(g).depth
        r = lab.depth_JG(g, limits)
        assert (r.depth is None) == (r.depth_bounds is not None)
        if r.depth is None:
            lo, hi = r.depth_bounds
            assert lo <= exact <= hi
        else:
            assert r.depth == exact
        cm = lab.cm_check(g, limits).is_cm
        assert cm is None or cm == lab.cm_check(g).is_cm


def test_graph_interval_holds_every_golden_depth():
    # f(G) + d(G) <= depth <= n + min over cutsets of (c(T) - |T|), and
    # n + 2 - kappa(G) for a 2-connected graph that is not complete, on
    # the golden depths of all 996 connected graphs with n <= 7; paths
    # and complete graphs close on it, K1 (the path and the complete graph
    # on one vertex) included
    reports = [json.loads(line) for name in ("analyze_upto6.jsonl",
                                             "analyze_7.jsonl")
               for line in (DATA / name).read_text().splitlines()]
    assert len(reports) == 996
    closed = 0
    for rep in reports:
        lo, hi = lab._graph_interval(parse_graph6(rep["graph"]))
        assert lo <= rep["depth"] <= hi, rep["graph"]
        closed += lo == hi
    # n + 1 and kappa alone closed 122
    assert closed == 181
    # K_{1,1,3}: only n + 2 - kappa closes it; n + min_T (c(T) - |T|) is 6
    assert lab._graph_interval(parse_graph6("D}o")) == (5, 5)
    for n in range(1, 8):
        assert lab._graph_interval(path_graph(n)) == (n + 1, n + 1)
        assert lab._graph_interval(complete_graph(n)) == (n + 1, n + 1)


def test_depth_equals_the_squeeze_on_random_graphs():
    # the graph interval and Ohtani's lemma give the squeeze's own answer on
    # seeded random connected graphs with n <= 9, wherever both decide; the
    # lattice budget keeps the squeeze alone from scanning for a second on
    # a few of them
    rng = random.Random(2024)
    from beilab.corpus import random_connected_graph
    limits = Limits(lattice_budget=20_000)
    decided = 0
    for _ in range(30):
        g = random_connected_graph(rng, 9, n_min=7)
        depth = lab.depth_JG(g, limits).depth
        squeeze = homology.hochster_depth(initial_ideal(g), limits).depth
        if depth is not None and squeeze is not None:
            decided += 1
            assert depth == squeeze, emit_graph6(g)
    assert decided >= 25


def test_depth_of_long_cycles():
    # the depth of C_n is n (Zafar and Zahid, Electron. J. Combin. 2013);
    # the squeeze alone leaves C9 at (8, 9) and C11 at (10, 11)
    for n in (9, 11, 12, 13):
        assert lab.depth_JG(cycle_graph(n)).depth == n


def disjoint_union(parts, rng):
    """The disjoint union of the graphs ``parts``, its labels shuffled, so
    that a component's labels need not be consecutive."""
    edges, offset = [], 0
    for h in parts:
        edges += [(i + offset, j + offset) for i, j in h.edges]
        offset += h.n
    perm = list(range(1, offset + 1))
    rng.shuffle(perm)
    return relabel(Graph.from_edges(offset, edges), perm)


def test_depth_of_a_disjoint_union_is_the_sum_of_its_parts():
    # J_G is a sum of ideals in disjoint variables, one per component, so
    # the depths add; the squeeze of in(J_G) agrees on the union itself
    from beilab.corpus import random_connected_graph
    rng = random.Random(4242)
    for _ in range(40):
        parts = [random_connected_graph(rng, 5, n_min=1)
                 for _ in range(rng.randint(2, 3))]
        g = disjoint_union(parts, rng)
        depth = lab.depth_JG(g).depth
        assert depth == sum(lab.depth_JG(h).depth for h in parts)
        assert depth == homology.hochster_depth(initial_ideal(g)).depth


def test_an_indeterminate_component_leaves_the_union_indeterminate():
    # F~zc? stays at (7, 8) within budgets of 1; the path closes on its
    # graph interval at any budget
    rng = random.Random(7)
    tight = Limits(QQ, lattice_budget=1, face_budget=1)
    open_part, path = parse_graph6("F~zc?"), path_graph(3)
    g = disjoint_union([open_part, path, open_part], rng)
    r = lab.depth_JG(g, tight)
    parts = [lab.depth_JG(h, tight) for h in (open_part, path)]
    assert parts[0].depth_bounds == (7, 8) and parts[1].depth == 4
    assert r.depth is None and r.depth_bounds == (7 + 4 + 7, 8 + 4 + 8)
    exact = lab.depth_JG(g).depth
    assert exact == 7 + 4 + 7
    lo, hi = r.depth_bounds
    assert lo <= exact <= hi


def test_verify_depth_equality_splits_each_graph_once(corpus6, monkeypatch):
    # the whiskered sides are built from the split the run already holds
    calls = []
    real = lab.decompose_at

    def counting(g, v):
        calls.append((g, v))
        return real(g, v)

    monkeypatch.setattr(lab, "decompose_at", counting)
    verdict = lab.verify_depth_equality(corpus6)
    assert verdict.instances == len(calls) == 107


def test_depth_of_the_slowest_n7_graphs():
    # the n = 7 graphs whose squeezes took longest: both scan the homology
    # of induced subcomplexes on 14 variables
    assert lab.depth_JG(parse_graph6("F@Ue?")).depth == 7
    assert lab.depth_JG(parse_graph6("FvHC?")).depth == 8


def test_initial_ideal_matches_golden_generators(corpus6):
    # initial_ideal_upto6.txt is the stdout of `beilab initial-ideal
    # tests/data/connected_upto6.g6`: one generator a line, a blank line
    # between graphs; every change to the engine must keep it
    # byte-identical (CI also runs the installed command)
    records = (DATA / "connected_upto6.g6").read_text().split()
    golden = (DATA / "initial_ideal_upto6.txt").read_text()
    assert records == [emit_graph6(g) for g in corpus6]
    texts = [initial_ideal(g).to_text() for g in corpus6]
    assert "\n".join(t + "\n" if t else "" for t in texts) == golden


def test_verify_matches_golden_verdicts(corpus6):
    # verify_upto6.jsonl is the stdout of `beilab verify <theorem>
    # tests/data/connected_upto6.g6` for each theorem in sorted order, run
    # from the repository root; every verdict there is clean (exit 0), and
    # CI also runs the installed command on each theorem
    golden = (DATA / "verify_upto6.jsonl").read_text().splitlines()
    assert len(golden) == len(lab.VERIFIERS) == 7
    for theorem, line in zip(sorted(lab.VERIFIERS), golden):
        verdict = lab.VERIFIERS[theorem](
            corpus6, Limits(QQ),
            corpus_name="tests/data/connected_upto6.g6")
        assert verdict.to_json() == line

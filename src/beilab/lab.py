"""High-level decisions and one verifier per theorem-shaped statement.

The verifiers keep the hypothesis side and the conclusion side on
independent computation paths: unmixedness always goes through the
cutset lattice, Cohen-Macaulayness through the depth. One exception: the
depth of G may read Ohtani's lemma at a non-free v, which asks for the
depths of G - v, G_v and G_v - v, so `verify deletion`'s CM checks of
those three graphs read the same memoized depths that depth(G) used.
"""

import functools
import json

from . import cutsets as cs
from ._record import Record
from .binomial_edge import initial_ideal
from .graphs import (add_whisker, blocks, block_with_whiskers,
                     connected_components, cut_vertices, decompose_at,
                     delete_vertices, diameter, emit_graph6,
                     girth, induced_cycle_lengths, is_connected,
                     is_free_vertex, per_graph, saturate, INFINITY)
from .homology import CMCertificate, DepthResult, Limits, hochster_depth
# an oracle, not called here: bench/spans.py wraps lab.reisner_cm
from .homology import reisner_cm  # noqa: F401


class AnalysisReport(Record):
    _fields = __slots__ = (
        "graph6", "n",
        "girth",            # int or INFINITY
        "unmixed", "unmixed_witness", "accessible", "accessible_witness",
        "cm",               # None = indeterminate
        "cm_witness", "field_char", "depth", "dim")


class TheoremVerdict(Record):
    """violations are (graph6, detail) pairs; hypothesis_relevant the
    candidate counterexamples to the open hypothesis, not engine failures;
    findings search outputs (expected empty); indeterminate counts the
    answers out of budget, or over a cap. The last four default to (),
    (), () and 0."""

    _fields = __slots__ = ("theorem_id", "corpus", "instances", "violations",
                           "hypothesis_relevant", "findings", "indeterminate")
    _defaults = {"violations": (), "hypothesis_relevant": (), "findings": (),
                 "indeterminate": 0}

    def clean(self):
        return not self.violations

    def to_json(self):
        return json.dumps({
            "theorem": self.theorem_id,
            "corpus": self.corpus,
            "instances": self.instances,
            "violations": self.violations,
            "hypothesis_relevant": self.hypothesis_relevant,
            "findings": self.findings,
            "indeterminate": self.indeterminate,
        }, sort_keys=True, separators=(",", ":"))


def cm_check(g, limits=Limits()):
    """Cohen-Macaulayness of the binomial edge ideal: depth == dim, the
    depth from depth_JG.

    Pre-filters: not unmixed => not CM (cutset witness); not accessible =>
    not CM (known necessity). Otherwise not CM has the witness ("depth",
    depth, dim), and a depth out of either budget of ``limits`` gives
    is_cm None.
    """
    unm = cs.is_unmixed(g)
    if not unm.unmixed:
        w = unm.witness
        return CMCertificate(False, witness=("unmixedness",
                                             tuple(sorted(w.vertices)), w.c))
    acc = cs.is_accessible(g)
    if not acc.accessible:
        return CMCertificate(False, witness=(
            "accessibility", tuple(sorted(acc.witness.vertices))))
    depth = depth_JG(g, limits).depth
    if depth is None:
        return CMCertificate(None)
    if depth == unm.dim:
        return CMCertificate(True)
    return CMCertificate(False, witness=("depth", depth, unm.dim))


def dim_JG(g):
    """Krull dimension of the quotient: n + max over cutsets of c(T)-|T|."""
    return cs.is_unmixed(g).dim


def depth_JG(g, limits=Limits()):
    """Depth of the quotient by J_G; once per graph and limits, so an
    answer out of one budget is never served to another. Limits goes to
    the memo positionally, so the memo keys on its value and not on the
    call form."""
    return _depth(g, limits)


@per_graph
def _depth(g, limits):
    """The cheapest certificate first. A disconnected G is a sum of
    ideals in disjoint variables, one per component, so its depth is the
    sum of theirs. A connected G tries the graph's own interval, which
    needs no initial ideal; the squeeze's bounds on in(J_G), which has the
    depth of J_G (Conca-Varbaro), seeded with it, from one depth-lemma
    pass at topk 2 rather than 4; Ohtani's exact sequence while they are
    apart; and only then the lcm lattice scan."""
    comps = connected_components(g)
    if len(comps) > 1:
        vertices = set(g.vertices())
        lo = hi = 0
        for c in comps:
            part = depth_JG(delete_vertices(g, vertices - c)[0], limits)
            # an indeterminate part has certified bounds, which never meet
            a, b = part.depth_bounds or (part.depth, part.depth)
            lo, hi = lo + a, hi + b
        if lo == hi:
            return DepthResult(lo)
        return DepthResult(None, depth_bounds=(lo, hi))
    lo, hi = seed = _graph_interval(g)
    if lo == hi:
        return DepthResult(lo)
    return hochster_depth(initial_ideal(g), limits, seed,
                          lambda lo, hi: _ohtani(g, limits, lo, hi))


def _graph_interval(g):
    """A certified (lo, hi) interval on depth S/J_G from a connected graph
    alone, its upper end read from the memoized cutset lattice.

    f(G) + d(G) <= depth, f counting the free vertices and d the diameter
    (Rouzbahani Malayeri, Saeedi Madani and Kiani, J. Algebraic Combin.
    2022). No depth exceeds the dimension of an associated prime, and each
    cutset T gives the minimal prime P_T, with dim S/P_T = n - |T| + c(T)
    (Herzog, Hibi, Hreinsdottir, Kahle and Rauf, Adv. Appl. Math. 2010):
    so depth <= n + min over cutsets of (c(T) - |T|), at most n + 1 from
    the empty cutset. For G 2-connected and not complete, depth <= n + 2 -
    kappa(G) (Banerjee and Nunez-Betancourt, Proc. AMS 2017), kappa the
    size of the smallest nonempty cutset; a connected G is 2-connected and
    not complete exactly when that cutset has two or more vertices, as a
    cut vertex is a cutset of one. K_n with n >= 1 has depth n + 1, J_G
    being the Cohen-Macaulay ideal of 2-minors of a generic 2 x n matrix
    (Eagon and Northcott); f + d misses it only at K1."""
    n = g.n
    if n and len(g.edges) == n * (n - 1) // 2:
        return n + 1, n + 1
    lo = sum(is_free_vertex(g, v) for v in g.vertices()) + diameter(g)
    cuts = cs._lattice(g)   # by size, the empty cutset first
    hi = n + min(t.c - len(t) for t in cuts)
    if len(cuts) > 1 and len(cuts[1]) > 1:
        hi = min(hi, n + 2 - len(cuts[1]))
    return lo, hi


def _ohtani(g, limits, lo, hi):
    """Narrow a certified interval [lo, hi] on depth S/J_G by Ohtani's
    J_G = J_{G_v} intersected with (x_v, y_v) + J_{G-v} at each non-free
    v (Comm. Algebra 2011), until it closes. Its exact sequence
    0 -> S/J_G -> S/J_{G_v} + S/((x_v, y_v) + J_{G-v})
      -> S/((x_v, y_v) + J_{G_v-v}) -> 0
    and the depth lemma give, with B = min(depth G_v, depth G - v) and
    C = depth G_v - v: depth G = B if B < C, C + 1 if B > C, and at least
    C if B = C; and depth G <= depth G_v always, since
    in(J_G) : x_v = in(J_{G_v}) under a labeling with v last, and a colon
    by a variable never lowers depth (Rauf, Comm. Algebra 2010). A vertex
    whose three depths are not all known narrows nothing."""
    for v in g.vertices():
        if lo >= hi:
            break
        if is_free_vertex(g, v):
            continue
        gv = saturate(g, v)
        d_gv, d_del, c = (depth_JG(h, limits).depth for h in (
            gv, delete_vertices(g, [v])[0], delete_vertices(gv, [v])[0]))
        if None in (d_gv, d_del, c):
            continue
        b = min(d_gv, d_del)
        if b != c:
            lo = hi = b if b < c else c + 1
        else:
            lo, hi = max(lo, c), min(hi, d_gv)
    return lo, hi


def analyze(g, limits=Limits()):
    unm = cs.is_unmixed(g)
    acc = cs.is_accessible(g)
    cert = cm_check(g, limits)
    return AnalysisReport(
        graph6=emit_graph6(g),
        n=g.n,
        girth=girth(g),
        unmixed=unm.unmixed,
        unmixed_witness=(tuple(sorted(unm.witness.vertices))
                         if unm.witness else None),
        accessible=acc.accessible,
        accessible_witness=(tuple(sorted(acc.witness.vertices))
                            if acc.witness else None),
        cm=cert.is_cm,
        cm_witness=cert.witness,
        field_char=limits.field.characteristic,
        depth=depth_JG(g, limits).depth,
        dim=unm.dim)


def report_json(rep):
    """Stable JSON encoding of an AnalysisReport."""
    data = {
        "graph": rep.graph6,
        "n": rep.n,
        "girth": "inf" if rep.girth == INFINITY else rep.girth,
        "unmixed": rep.unmixed,
        "accessible": rep.accessible,
        "cm": rep.cm,
        "field": rep.field_char,
        "depth": rep.depth,
        "dim": rep.dim,
        # witnesses are tuples or None; json encodes a tuple as an array
        "witnesses": {
            "unmixed": rep.unmixed_witness,
            "accessible": rep.accessible_witness,
            "cm": rep.cm_witness,
        },
    }
    if rep.cm is None or rep.depth is None:
        data["budget"] = "exceeded"
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# theorem verifiers

class _Run:
    """One verifier run within its limits: its instance count, the lists
    its verdict reports, and the answers it could not give, counted as
    indeterminate."""

    __slots__ = ("limits", "instances", "violations", "hypothesis_relevant",
                 "findings", "indeterminate")

    def __init__(self, limits):
        self.limits = limits
        self.instances = self.indeterminate = 0
        self.violations, self.hypothesis_relevant, self.findings = [], [], []

    def cm(self, g):
        """cm_check(g).is_cm within the run's limits."""
        is_cm = cm_check(g, self.limits).is_cm
        self.indeterminate += is_cm is None
        return is_cm

    def splits(self, g, cuts):
        """(v, decompose_at(g, v)) for every cut vertex v in ``cuts``, in
        order; None for a disconnected graph with a cut vertex, which
        decompose_at does not split, counted as one indeterminate answer."""
        if cuts and not is_connected(g):
            self.indeterminate += 1
            return None
        return [(v, decompose_at(g, v)) for v in sorted(cuts)]

    def verdict(self, theorem_id, corpus_name):
        return TheoremVerdict(theorem_id, corpus_name, self.instances,
                              tuple(self.violations),
                              tuple(self.hypothesis_relevant),
                              tuple(self.findings), self.indeterminate)


def verify_prop_saturation(corpus, limits=Limits(), corpus_name=""):
    """CM(J_G) implies CM(J_{G_v}) for every vertex v."""
    run = _Run(limits)
    for g in corpus:
        if not run.cm(g):
            continue
        for v in g.vertices():
            run.instances += 1
            if run.cm(saturate(g, v)) is False:
                run.violations.append((emit_graph6(g), f"v={v}"))
    return run.verdict("saturation", corpus_name)


def verify_deletion_lemmas(corpus, limits=Limits(), corpus_name=""):
    """The deletion-family implications at a cut vertex.

    For each split G = G1 u G2 at v:
      - unmixed(G) and v non-free on both sides => unmixed(G - v);
      - CM(G) and v non-free on both sides => CM(G - v), CM(G_v),
        CM(G_v - v);
      - CM(G) => CM((G1)_v) and CM((G2)_v);
      - CM(G) and CM(G - v) => CM(G_v - v).
    Plus, for non-cut vertices: unmixed(G_v) and unmixed(G - v) =>
    unmixed(G_v - v).
    """
    run = _Run(limits)
    violations = run.violations
    for g in corpus:
        cuts = cut_vertices(g)
        splits = run.splits(g, cuts)
        if splits is None:
            continue
        g6 = emit_graph6(g)
        g_unmixed = cs.is_unmixed(g).unmixed
        g_cm = run.cm(g)
        for v, dec in splits:
            run.instances += 1
            nonfree = not any(is_free_vertex(*side) for side in dec.sides)
            del_v, _ = delete_vertices(g, [v])
            if g_unmixed and nonfree:
                if not cs.is_unmixed(del_v).unmixed:
                    violations.append((g6, f"lem-deletion-unmixed v={v}"))
            if g_cm:
                del_cm = run.cm(del_v)
                gv = saturate(g, v)
                gv_del_cm = run.cm(delete_vertices(gv, [v])[0])
                if nonfree:
                    if del_cm is False:
                        violations.append((g6, f"lem-deletion-cm v={v}"))
                    if run.cm(gv) is False:
                        violations.append((g6, f"cor-saturation-cm v={v}"))
                    if gv_del_cm is False:
                        violations.append((g6, f"cor-sat-deletion-cm v={v}"))
                # CM of both sides' saturations, unconditionally under CM(G)
                for k, side in enumerate(dec.sides, start=1):
                    if run.cm(saturate(*side)) is False:
                        violations.append(
                            (g6, f"prop-side-saturation g{k} v={v}"))
                if del_cm and gv_del_cm is False:
                    violations.append((g6, f"prop-sat-del-cm v={v}"))
        # non-cut-vertex unmixedness transfer
        nbr = g.neighbor_masks()
        for v in g.vertices():
            if v in cuts or not nbr[v]:
                continue
            run.instances += 1
            gv = saturate(g, v)
            del_v, _ = delete_vertices(g, [v])
            if cs.is_unmixed(gv).unmixed and cs.is_unmixed(del_v).unmixed:
                gv_del, _ = delete_vertices(gv, [v])
                if not cs.is_unmixed(gv_del).unmixed:
                    violations.append((g6, f"lem-sat-del-unmixed v={v}"))
    return run.verdict("deletion", corpus_name)


def whiskered_sides(g, v):
    """(side1 + whisker at v, side2 + whisker at v) for the split at v."""
    return _whiskered(decompose_at(g, v))


def _whiskered(dec):
    return tuple(add_whisker(*side) for side in dec.sides)


def verify_gluing_theorems(corpus, limits=Limits(), corpus_name=""):
    """Whisker gluing: forward direction plus the conditional converse.

    Forward (unconditional): CM(G) => both whiskered sides CM at every cut
    vertex, and every block-with-whiskers CM. Converse (conditional on the
    open hypothesis): both whiskered sides CM and unmixed(G) => CM(G);
    failures of the converse are reported as hypothesis-relevant, never as
    violations.
    """
    run = _Run(limits)
    for g in corpus:
        bd = blocks(g)
        if not bd.cut_vertices:
            continue
        splits = run.splits(g, bd.cut_vertices)
        if splits is None:
            continue
        g6 = emit_graph6(g)
        g_cm = run.cm(g)
        for v, dec in splits:
            run.instances += 1
            w1, w2 = _whiskered(dec)
            sides_cm = run.cm(w1) and run.cm(w2)    # None when not known
            if g_cm and sides_cm is False:
                run.violations.append((g6, f"forward-whisker v={v}"))
            if sides_cm and cs.is_unmixed(g).unmixed:
                if g_cm is False:
                    run.hypothesis_relevant.append(
                        (g6, f"converse-whisker v={v}"))
        if g_cm:
            for b in bd.blocks:
                run.instances += 1
                bw = block_with_whiskers(g, b)
                if run.cm(bw) is False:
                    run.violations.append(
                        (g6, f"block-whiskers B={sorted(b)}"))
    return run.verdict("gluing", corpus_name)


def verify_blocks_corollary(corpus, limits=Limits(), corpus_name=""):
    """Converse blocks corollary: unmixed(G) and all blocks-with-whiskers CM
    => CM(G); conditional, so failures are hypothesis-relevant."""
    run = _Run(limits)
    for g in corpus:
        if not cs.is_unmixed(g).unmixed:
            continue
        bd = blocks(g)
        if not bd.cut_vertices:
            continue
        run.instances += 1
        if all(run.cm(block_with_whiskers(g, b)) for b in bd.blocks):
            if run.cm(g) is False:
                run.hypothesis_relevant.append(
                    (emit_graph6(g), "blocks-converse"))
    return run.verdict("blocks", corpus_name)


def verify_girth_theorem(corpus, limits=Limits(), corpus_name=""):
    """Every CM graph, and every accessible graph, has girth in {3,4,inf}."""
    run = _Run(limits)
    for g in corpus:
        run.instances += 1
        gi = girth(g)
        ok = gi in (3, 4, INFINITY)
        if cs.is_accessible(g).accessible and not ok:
            run.violations.append((emit_graph6(g), f"accessible-girth={gi}"))
        if run.cm(g) and not ok:
            run.violations.append((emit_graph6(g), f"cm-girth={gi}"))
    return run.verdict("girth", corpus_name)


def hypothesis_search(corpus, limits=Limits(), corpus_name=""):
    """Scan for counterexamples to the open deletion hypothesis and for CM
    girth-4 graphs carrying a long induced cycle. Findings are search
    outputs; an empty result is the expected (reportable) outcome."""
    run = _Run(limits)
    for g in corpus:
        g6 = emit_graph6(g)
        cm_g = functools.cache(lambda g=g: run.cm(g))
        for v in sorted(cut_vertices(g)):
            run.instances += 1
            del_v, _ = delete_vertices(g, [v])
            if not cs.is_unmixed(del_v).unmixed:
                continue
            if cm_g() and run.cm(del_v) is False:
                run.findings.append((g6, f"hypothesis-counterexample v={v}"))
        if girth(g) == 4:
            run.instances += 1
            if any(l >= 5 for l in induced_cycle_lengths(g)):
                if cm_g():
                    run.findings.append((g6, "cm-girth4-long-induced-cycle"))
    return run.verdict("hypothesis", corpus_name)


class DepthEqualityRecord(Record):
    _fields = __slots__ = ("lhs", "rhs",
                           "equal")     # None = indeterminate


def depth_equality_check(g, v, limits=Limits()):
    """depth(S/J_G) versus depth of the two whiskered sides minus four."""
    return _depth_equality(g, whiskered_sides(g, v), limits)


def _depth_equality(g, sides, limits):
    parts = [depth_JG(x, limits) for x in (g, *sides)]
    if any(p.depth is None for p in parts):
        return DepthEqualityRecord(None, None, None)
    lhs = parts[0].depth
    rhs = parts[1].depth + parts[2].depth - 4
    return DepthEqualityRecord(lhs, rhs, lhs == rhs)


def neighborhood_cutset_exists(g, v):
    """Does G minus v admit a cutset containing every neighbor of v?"""
    nb = g.neighbor_masks()[v]
    gv, new_of = delete_vertices(g, [v])
    target = frozenset(new for old, new in new_of.items() if nb >> old & 1)
    return any(target <= t.vertices for t in cs.enumerate_cutsets(gv))


class DepthQuestionFilter(Record):
    _fields = __slots__ = ("side1_has_cutset", "side2_has_cutset",
                           "v_free_in_side1", "v_free_in_side2")

    @property
    def satisfied(self):
        ok1 = (not self.side1_has_cutset) or self.v_free_in_side2
        ok2 = (not self.side2_has_cutset) or self.v_free_in_side1
        return ok1 and ok2


def depth_question_filter(g, v):
    """Filter for the open depth question at the cut vertex v.

    Condition (i): a cutset of side one minus v containing the neighbors of
    v there forces v free on side two; (ii) is the mirror. No verdict about
    the depth equality is asserted here; this only selects candidates.
    """
    (g1, v1), (g2, v2) = decompose_at(g, v).sides
    return DepthQuestionFilter(
        side1_has_cutset=neighborhood_cutset_exists(g1, v1),
        side2_has_cutset=neighborhood_cutset_exists(g2, v2),
        v_free_in_side1=is_free_vertex(g1, v1),
        v_free_in_side2=is_free_vertex(g2, v2),
    )


def verify_depth_equality(corpus, limits=Limits(), corpus_name=""):
    """Survey the additive depth formula at every cut vertex. The equality
    is known to fail in general, so inequalities are findings, not
    violations; indeterminate (budget) outcomes are counted apart."""
    run = _Run(limits)
    for g in corpus:
        splits = run.splits(g, cut_vertices(g))
        if splits is None:
            continue
        for v, dec in splits:
            run.instances += 1
            rec = _depth_equality(g, _whiskered(dec), limits)
            if rec.equal is None:
                run.indeterminate += 1
            elif not rec.equal:
                run.findings.append((emit_graph6(g),
                                     f"v={v} lhs={rec.lhs} rhs={rec.rhs}"))
    return run.verdict("depth-equality", corpus_name)


VERIFIERS = {
    "saturation": verify_prop_saturation,
    "deletion": verify_deletion_lemmas,
    "gluing": verify_gluing_theorems,
    "blocks": verify_blocks_corollary,
    "girth": verify_girth_theorem,
    "hypothesis": hypothesis_search,
    "depth-equality": verify_depth_equality,
}

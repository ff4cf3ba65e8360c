import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from beilab import homology, lab
from beilab.binomial_edge import initial_ideal
from beilab.graphs import (complete_graph, cycle_graph, parse_graph6,
                           path_graph)
from beilab.homology import (BudgetExceeded, FieldSpec, Limits, QQ,
                             _boundary_rank, _depth_lower_bound,
                             _lcm_lattice, _rank, _strong_core,
                             brute_depth_oracle, hochster_depth,
                             reduced_ranks_from_facets, reisner_cm)
from beilab.monomials import (MonomialIdeal, SimplicialComplex,
                              add_variables, colon, max_antichain,
                              stanley_reisner)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def ideal(nvars, *gens):
    return MonomialIdeal.make(nvars, [sum(1 << b for b in g) for g in gens])


def test_field_spec_validation():
    FieldSpec(0)
    FieldSpec(32003)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-1)


def test_homology_circle():
    # hollow triangle = circle: H~_1 = 1
    cx = SimplicialComplex.make(3, [0b011, 0b101, 0b110])
    assert reduced_ranks_from_facets(cx.facets, QQ) == {1: 1}


def test_homology_sphere_and_ball():
    # boundary of the 3-simplex = 2-sphere
    faces = [0b1110, 0b1101, 0b1011, 0b0111]
    cx = SimplicialComplex.make(4, faces)
    assert reduced_ranks_from_facets(cx.facets, QQ) == {2: 1}
    # full simplex: contractible
    cx = SimplicialComplex.make(4, [0b1111])
    assert reduced_ranks_from_facets(cx.facets, QQ) == {}


def test_homology_two_points_and_irrelevant():
    cx = SimplicialComplex.make(2, [0b01, 0b10])
    assert reduced_ranks_from_facets(cx.facets, QQ) == {0: 1}
    # irrelevant complex {empty face}: H~_{-1} = 1
    cx = SimplicialComplex.make(2, [0])
    assert reduced_ranks_from_facets(cx.facets, QQ) == {-1: 1}


def test_homology_torus_triangulation():
    # 7-vertex torus (cyclic {i,i+1,i+3} and {i,i+2,i+3} mod 7):
    # H~_1 rank 2, H~_2 rank 1 over QQ
    tri = [tuple(sorted((i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1)))
           for i in range(7)]
    tri += [tuple(sorted((i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1)))
            for i in range(7)]
    facets = [sum(1 << (v - 1) for v in t) for t in tri]
    cx = SimplicialComplex.make(7, facets)
    assert _strong_core(cx.facets) == cx.facets     # no dominated vertex
    assert reduced_ranks_from_facets(cx.facets, QQ) == {1: 2, 2: 1}


def test_projective_plane_characteristic_dependence():
    # RP^2 on 6 vertices (antipodal icosahedron): torsion visible only
    # in characteristic 2
    tri = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6), (2, 3, 5),
           (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
    facets = [sum(1 << (v - 1) for v in t) for t in tri]
    cx = SimplicialComplex.make(6, facets)
    assert _strong_core(cx.facets) == cx.facets     # no dominated vertex
    assert reduced_ranks_from_facets(cx.facets, QQ) == {}
    assert reduced_ranks_from_facets(cx.facets, GF2) == {1: 1, 2: 1}


def test_strong_core_deletes_fins_and_collapses_cones():
    # the hollow triangle {12, 13, 23} with the fin {234}: vertex 4 is
    # dominated by 2, and the core is the hollow triangle
    triangle = (0b0011, 0b0101, 0b0110)
    finned = max_antichain(triangle + (0b1110,))
    assert _strong_core(finned) == triangle
    assert reduced_ranks_from_facets(finned, QQ) == {1: 1}
    # the cone over that triangle with apex 4 collapses to one facet
    assert len(_strong_core(tuple(f | 0b1000 for f in triangle))) == 1


def _ranks_from_every_face(facets, field):
    """Reduced homology of the augmented chain complex of every face, with
    no core and no shortcut: H~_k = |k-faces| - rank d_k - rank d_k+1."""
    by_size = {}
    for f in facets:
        sub = f
        while True:     # every submask of f, the empty face included
            by_size.setdefault(sub.bit_count(), set()).add(sub)
            if not sub:
                break
            sub = (sub - 1) & f
    faces = {s: sorted(v) for s, v in by_size.items()}
    p = field.characteristic
    ranks = {}
    r = 0       # rank of d_k, from (k + 1)-sets to k-sets; d_-1 = 0
    for size in sorted(faces):
        r_up = _boundary_rank(faces.get(size + 1), faces[size], p)
        h = len(faces[size]) - r - r_up
        if h:
            ranks[size - 1] = h
        r = r_up
    return ranks


def _complex_with_dominated_vertices(rng):
    """Facets of a random 2-complex with fins and cones glued on, on 9
    shuffled vertices: a fin is a new vertex on one face, a cone a new
    apex over some facets, whose vertices it may then dominate."""
    n = rng.randint(3, 6)
    facets = [sum(1 << b for b in rng.sample(range(n), rng.randint(1, 3)))
              for _ in range(rng.randint(1, 7))]
    for new in range(n, rng.randint(n, 9)):
        if rng.random() < 0.5:
            f = rng.choice(facets)
            facets.append((f & rng.getrandbits(new) or f) | 1 << new)
        else:
            for f in rng.sample(facets, rng.randint(1, len(facets))):
                facets.append(f | 1 << new)
    perm = rng.sample(range(9), 9)
    return [sum(1 << perm[b] for b in range(9) if f >> b & 1)
            for f in facets]


def strong_core_by_rescan(facets):
    """_strong_core's former loop, the reference for its incremental one:
    the maximal faces of every facet are taken anew after each deletion."""
    verts = reduce(or_, facets, 0)
    while len(facets) > 1:
        b = verts
        while b:
            v = b & -b
            common = verts
            for f in facets:
                if f & v:
                    common &= f
            if common != v:
                break
            b &= b - 1
        else:
            break
        verts &= ~v
        facets = max_antichain(f & ~v for f in facets)
    return facets


def test_strong_core_matches_the_rescan():
    rng = random.Random(2012)
    for _ in range(400):
        facets = _complex_with_dominated_vertices(rng)
        # as given (not always an antichain, as reduced_ranks_from_facets
        # may pass it), and as its maximal faces
        for given in (tuple(sorted(set(facets))), max_antichain(facets)):
            assert _strong_core(given) == strong_core_by_rescan(given)


def test_core_keeps_every_rank_of_the_face_oracle():
    rng = random.Random(6174)
    collapsed = partial = 0
    for _ in range(300):
        facets = _complex_with_dominated_vertices(rng)
        core = _strong_core(max_antichain(facets))
        smaller = reduce(or_, core) != reduce(or_, facets)
        collapsed += smaller
        partial += smaller and len(core) > 1
        for field in (QQ, GF2, GF3):
            full = _ranks_from_every_face(facets, field)
            for d in range(-1, 8):      # facets have at most 8 vertices
                assert reduced_ranks_from_facets(facets, field, d) == \
                    {k: r for k, r in full.items() if k <= d}
    # both exits are exercised: a core of one facet, and a smaller core
    # that still goes to the matrices
    assert collapsed >= 200 and partial >= 50


def test_rank_matches_sympy():
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(1729)
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(nc)]
             for _ in range(nr)]
        rows = [{c: v for c, v in enumerate(r) if v} for r in m]
        assert _rank(rows, 0) == Matrix(m).rank()
        for p in (2, 3):
            assert _rank(rows, p) == DomainMatrix.from_list(m, GF(p)).rank()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=7),
       st.sampled_from([QQ, GF2, GF3]))
def test_truncated_ranks_are_full_ranks_restricted(facets, field):
    full = reduced_ranks_from_facets(facets, field)
    for d in range(-2, 9):
        assert reduced_ranks_from_facets(facets, field, d) == \
            {k: r for k, r in full.items() if k <= d}
    if field == QQ:
        assert reduced_ranks_from_facets(facets, FieldSpec(32003)) == full


def test_degree_0_ignores_the_zero_mask():
    # the degree -1/0 Hochster scan restricts facets without an antichain
    # pass, so the empty face can sit among them: two points, H~_0 = 1
    assert reduced_ranks_from_facets((0, 0b01, 0b10), QQ, 0) == {0: 1}


def test_reisner_small_examples():
    assert reisner_cm(stanley_reisner(initial_ideal(path_graph(3)))).is_cm
    assert reisner_cm(stanley_reisner(initial_ideal(complete_graph(3)))).is_cm
    assert not reisner_cm(stanley_reisner(initial_ideal(cycle_graph(4)))).is_cm
    c = reisner_cm(stanley_reisner(initial_ideal(cycle_graph(5))))
    assert not c.is_cm and c.witness is not None


def test_reisner_dim_le_0_always_cm():
    cx = SimplicialComplex.make(3, [0b001, 0b010, 0b100])
    assert reisner_cm(cx).is_cm
    assert reisner_cm(SimplicialComplex.make(2, [0])).is_cm


def test_depth_examples():
    assert hochster_depth(ideal(5, {0, 3})).depth == 4     # pd of a single
    # square-free monomial is 1, so depth = nvars - 1
    assert hochster_depth(MonomialIdeal.make(5, [])).depth == 5
    assert hochster_depth(MonomialIdeal.make(5, [1])).depth == 4
    assert hochster_depth(initial_ideal(complete_graph(3))).depth == 4
    assert hochster_depth(initial_ideal(cycle_graph(5))).depth == 5


def test_depth_matches_brute_oracle_random():
    rng = random.Random(31337)
    for _ in range(60):
        nv = rng.randint(2, 9)
        gens = [rng.randrange(1, 1 << nv) for _ in range(rng.randrange(6))]
        i = MonomialIdeal.make(nv, gens)
        if i.is_unit():
            continue
        assert hochster_depth(i).depth == brute_depth_oracle(i).depth


def test_depth_brute_oracle_uses_reisner_free_path():
    # brute oracle scans every subset; hochster restricts to lcm lattice
    i = initial_ideal(cycle_graph(4))
    h = hochster_depth(i)
    b = brute_depth_oracle(i)
    assert h.depth == b.depth


def depth_splitting_check(ideal, var_bits, limits=Limits()):
    """The depth-splitting disjunction over a list of variables.

    depth(R/I) must equal depth(R/<I, x_1..x_k>) or some
    depth(R/(<I, x_1..x_{j-1}> : x_j)); verified by computing every
    candidate depth outright. Variables already in I are treated as zero
    (their candidates are skipped).
    """
    if not var_bits:
        return True
    d = hochster_depth(ideal, limits).depth
    cur = ideal
    candidates = []
    for b in var_bits:
        q = colon(cur, 1 << b)
        if not q.is_unit():
            candidates.append(hochster_depth(q, limits).depth)
        cur = add_variables(cur, 1 << b)
    if not cur.is_unit():
        candidates.append(hochster_depth(cur, limits).depth)
    return d in candidates


def test_depth_splitting_consistency():
    rng = random.Random(4242)
    for _ in range(20):
        nv = rng.randint(3, 8)
        gens = [rng.randrange(1, 1 << nv) for _ in range(rng.randrange(1, 5))]
        i = MonomialIdeal.make(nv, gens)
        if i.is_unit():
            continue
        k = rng.randint(1, nv)
        assert depth_splitting_check(i, list(range(k)))


def test_budget_indeterminate():
    # C5's bounds meet before any scan, so a lattice budget of 2 never trips
    i = initial_ideal(cycle_graph(5))
    r = hochster_depth(i, Limits(lattice_budget=2))
    brute = brute_depth_oracle(i)
    assert r.depth == brute.depth
    # K_2 joined to three independent vertices: its depth-lemma bound
    # stays at 5 up to topk 4, below n - pd_lb = 6, so it must scan, and
    # its lattice exceeds the budget
    join = initial_ideal(parse_graph6("D}o"))
    r = hochster_depth(join, Limits(lattice_budget=2))
    brute = brute_depth_oracle(join)
    assert r.depth is None
    lo, hi = r.depth_bounds
    assert lo <= brute.depth <= hi
    assert (lo, hi, brute.depth) == (5, 6, 5)
    c = reisner_cm(stanley_reisner(i), Limits(face_budget=2))
    assert c.is_cm is None and c.witness is None


def test_bare_squeeze_runs_one_pass_at_topk_4(monkeypatch):
    # the lower bound is one depth-lemma pass at topk 4: every call, the
    # recursion's included, is at topk 4, and the join K_2 * 3K_1 keeps
    # the interval (5, 6) of that pass under a lattice budget of 2
    lemma = homology._depth_lower_bound
    topks = set()

    def counted(n, gens, topk, cap=None):
        topks.add(topk)
        return lemma(n, gens, topk, cap)

    monkeypatch.setattr(homology, "_lemma_memo", {})
    monkeypatch.setattr(homology, "_depth_lower_bound", counted)
    r = hochster_depth(initial_ideal(parse_graph6("D}o")),
                       Limits(lattice_budget=2))
    assert r.depth is None and r.depth_bounds == (5, 6)
    assert topks == {4}


def test_a_seed_starts_the_scan_from_known_bounds(monkeypatch):
    # C9's squeeze alone stays at (8, 9) through its scan; a seed that
    # closes builds no lattice
    def no_lattice(*args):
        raise AssertionError("no lcm lattice when the bounds have met")

    monkeypatch.setattr(homology, "_lcm_lattice", no_lattice)
    assert hochster_depth(initial_ideal(cycle_graph(9)),
                          seed=(9, 9)).depth == 9
    # a seed looser than the big height: the big height of
    # (x1 x2, x2 x3), 2 from its prime (x1, x3), leaves no W to scan once
    # the complex is built, before any lattice
    assert hochster_depth(ideal(3, {0, 1}, {1, 2}), seed=(0, 3)).depth == 1


def test_a_seeded_squeeze_makes_no_depth_lemma_pass(corpus5, monkeypatch):
    # the seed is where the scan starts: seeded with each graph interval
    # left open, the squeeze asks the depth lemma nothing and still gives
    # the bare squeeze's depth
    cases = []
    for g in corpus5:
        seed = lab._graph_interval(g)
        if seed[0] < seed[1]:
            ideal_ = initial_ideal(g)
            cases.append((ideal_, seed, hochster_depth(ideal_).depth))
    assert cases

    def no_lemma(*args):
        raise AssertionError("a seeded squeeze makes no depth-lemma pass")

    monkeypatch.setattr(homology, "_depth_lower_bound", no_lemma)
    for ideal_, seed, depth in cases:
        assert hochster_depth(ideal_, seed=seed).depth == depth, ideal_


def test_any_certified_seed_gives_the_exact_depth():
    # a seed's upper end may lie above n - big height: the squeeze raises
    # pd_lb to the big height before it scans, and counts the variable
    # generators before it trusts an interval with nothing left to scan
    assert hochster_depth(ideal(5, {0}, {1}), seed=(0, 4)).depth == 3
    rng = random.Random(6161)
    for _ in range(80):
        n = rng.randint(2, 9)
        gens = [sum(1 << b for b in rng.sample(
            range(n), rng.randint(1, min(n, 3))))
            for _ in range(rng.randint(1, 7))]
        i = MonomialIdeal.make(n, gens)
        depth = brute_depth_oracle(i).depth
        seed = rng.randint(0, depth), rng.randint(depth, n)
        assert hochster_depth(i, seed=seed).depth == depth, (i, seed)


def test_lcm_lattice_is_union_closure_with_exact_budget():
    rng = random.Random(2718)
    for _ in range(40):
        nv = rng.randint(2, 12)
        i = MonomialIdeal.make(nv, [rng.randrange(1, 1 << nv)
                                    for _ in range(rng.randint(1, 8))])
        brute = {reduce(or_, (g for k, g in enumerate(i.gens) if sub >> k & 1), 0)
                 for sub in range(1 << len(i.gens))}
        assert _lcm_lattice(i, len(brute)) == brute
        with pytest.raises(BudgetExceeded):
            _lcm_lattice(i, len(brute) - 1)


def test_budgets_yield_exact_depth_or_certified_interval():
    # every lattice budget 1, 2, 4, ..., |L| under a tiny and a large face
    # budget: a tripped budget leaves the squeeze's own certified interval
    rng = random.Random(4242)
    for _ in range(150):
        nv = rng.randint(2, 10)
        if rng.random() < 0.6:
            gens = [sum(1 << b for b in rng.sample(range(nv), 2))
                    for _ in range(rng.randint(1, 12))]
        else:
            gens = [rng.randrange(1, 1 << nv)
                    for _ in range(rng.randint(1, 8))]
        i = MonomialIdeal.make(nv, gens)
        if i.is_unit():
            continue
        brute = brute_depth_oracle(i)
        size = len(_lcm_lattice(i, 1 << nv))
        budgets = [1 << k for k in range(size.bit_length()) if 1 << k < size]
        for budget in budgets + [size]:
            for face_budget in (1, 10 ** 6):
                r = hochster_depth(i, Limits(QQ, budget, face_budget))
                assert (r.depth is None) == (r.depth_bounds is not None)
                if r.depth is None:
                    lo, hi = r.depth_bounds
                    assert lo <= brute.depth <= hi
                    assert lo == _depth_lower_bound(nv, i.gens, 4)
                else:
                    assert r.depth == brute.depth


def test_hochster_witness_certifies_pd():
    # quadratic generators: the squeeze then often needs a lattice scan,
    # so witnesses occur (most random ideals close on the bounds alone)
    rng = random.Random(1618)
    checked = 0
    for _ in range(300):
        nv = rng.randint(4, 10)
        i = MonomialIdeal.make(nv, [sum(1 << b for b in rng.sample(range(nv), 2))
                                    for _ in range(rng.randint(2, 12))])
        r = hochster_depth(i)
        assert r.depth == brute_depth_oracle(i).depth
        if r.witness is None:
            continue
        w, deg = r.witness
        assert w in _lcm_lattice(i, 1 << nv)
        faces = {f & w for f in stanley_reisner(i).facets}
        assert reduced_ranks_from_facets(faces, QQ).get(deg, 0) > 0
        assert nv - r.depth == bin(w).count("1") - deg - 1
        checked += 1
    assert checked >= 10


def _reference_depth_lower_bound(ideal, topk, memo):
    """The depth-lemma bound of homology._depth_lower_bound, with its two
    children built by mono.colon and MonomialIdeal.make."""
    key = ideal.gens
    if key in memo:
        return memo[key]
    n, gens = ideal.nvars, ideal.gens
    if not gens:
        out = n
    elif all(bin(g).count("1") == 1 for g in gens):
        out = n - len(gens)
    elif len(gens) == 1:
        out = n - 1
    else:
        counts = {}
        for g in gens:
            if bin(g).count("1") > 1:
                for b in range(n):
                    if g >> b & 1:
                        counts[1 << b] = counts.get(1 << b, 0) + 1
        cand = sorted(counts, key=lambda m: (-counts[m], m))[:topk]
        out = max(min(
            _reference_depth_lower_bound(colon(ideal, x), topk, memo),
            _reference_depth_lower_bound(
                MonomialIdeal.make(n, gens + (x,)), topk, memo))
            for x in cand)
    memo[key] = out
    return out


def test_depth_lower_bound_matches_reference_recursion():
    rng = random.Random(909)
    ideals = []
    for _ in range(150):
        n = rng.randint(2, 10)
        ideals.append(MonomialIdeal.make(n, [
            sum(1 << b for b in rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 8))]))
    # 1-3 variable generators beside quadratic and cubic ones: the
    # recursion strips them, the reference carries them through each split
    for _ in range(150):
        n = rng.randint(4, 12)
        variables = rng.sample(range(n), rng.randint(1, 3))
        others = [b for b in range(n) if b not in variables]
        ideals.append(MonomialIdeal.make(n, [1 << b for b in variables] + [
            sum(1 << b for b in rng.sample(others, min(len(others),
                                                       rng.randint(2, 3))))
            for _ in range(rng.randint(1, 8))]))
    for ideal_ in ideals:
        for topk in (1, 2, 3, 4):
            assert _depth_lower_bound(ideal_.nvars, ideal_.gens, topk) == \
                _reference_depth_lower_bound(ideal_, topk, {})


def test_capped_depth_lower_bound_agrees_below_the_cap(monkeypatch):
    # a call capped at c returns b <= B with min(b, c) == min(B, c), B the
    # reference bound at its topk; uncapped calls after it, at that topk
    # and at topk 4, must still return B there, whatever the memo holds.
    # The first ideal, the edge ideal of a path on 7 of its 8 variables,
    # has B = 3 at topk 1 and 4 at topk 4, and its call at topk 4 capped
    # at 3 stops at 3, short of B
    path = MonomialIdeal.make(8, [3, 5, 12, 18, 40, 80])
    rng = random.Random(2718)
    ideals = [path]
    for _ in range(60):
        n = rng.randint(3, 10)
        ideals.append(MonomialIdeal.make(n, [
            sum(1 << b for b in rng.sample(range(n), rng.randint(2, 3)))
            for _ in range(rng.randint(2, 12))]))
    for ideal_ in ideals:
        n = ideal_.nvars
        want = {topk: _reference_depth_lower_bound(ideal_, topk, {})
                for topk in (1, 2, 3, 4)}
        for topk, cap in itertools.product(want, range(1, want[4] + 1)):
            monkeypatch.setattr(homology, "_lemma_memo", {})
            b = _depth_lower_bound(n, ideal_.gens, topk, cap)
            assert b <= want[topk]
            assert min(b, cap) == min(want[topk], cap)
            for later in (topk, 4):
                assert _depth_lower_bound(n, ideal_.gens, later) == \
                    want[later]
    assert _reference_depth_lower_bound(path, 1, {}) == 3
    assert _reference_depth_lower_bound(path, 4, {}) == 4


def test_hochster_scan_never_asks_for_degree_minus_one(corpus6, monkeypatch):
    # H~_-1 of a restriction is nonzero only at |W| <= big height, below
    # every size the scan visits, so the scan starts at degree 0
    degrees = []
    ranks = homology.reduced_ranks_from_facets

    def spy(facets, field, max_degree=None):
        degrees.append(max_degree)
        return ranks(facets, field, max_degree)

    monkeypatch.setattr(homology, "reduced_ranks_from_facets", spy)
    for g in corpus6:
        hochster_depth(initial_ideal(g))
    assert degrees and -1 not in degrees


def test_depth_lower_bound_is_monotone_and_certified():
    # the pruned recursion: sharper topk never lowers the bound, which
    # stays under the greedy ceiling n - nu and under the true depth
    rng = random.Random(5150)
    for _ in range(150):
        n = rng.randint(2, 10)
        ideal_ = MonomialIdeal.make(n, [
            sum(1 << b for b in rng.sample(range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 10))])
        bounds = [_depth_lower_bound(n, ideal_.gens, topk)
                  for topk in (1, 2, 3, 4)]
        assert bounds == sorted(bounds)
        used = nu = 0
        for g in ideal_.gens:
            if not g & used:
                used |= g
                nu += 1
        assert bounds[-1] <= n - nu
        assert bounds[-1] <= brute_depth_oracle(ideal_).depth


def test_depth_lower_bound_never_exceeds_the_oracle(monkeypatch):
    # capped or not, at every topk, the bound is certified: on seeded
    # random square-free ideals with at most 12 variables it never
    # exceeds the brute-force depth, and a capped call agrees with the
    # uncapped one below its cap
    rng = random.Random(1212)
    for _ in range(80):
        n = rng.randint(2, 12)
        ideal_ = MonomialIdeal.make(n, [
            sum(1 << b for b in rng.sample(
                range(n), rng.randint(1, min(n, 4))))
            for _ in range(rng.randint(1, 10))])
        depth = brute_depth_oracle(ideal_).depth
        for topk in (1, 2, 4):
            monkeypatch.setattr(homology, "_lemma_memo", {})
            whole = _depth_lower_bound(n, ideal_.gens, topk)
            assert whole <= depth
            for cap in range(1, n + 1):
                monkeypatch.setattr(homology, "_lemma_memo", {})
                b = _depth_lower_bound(n, ideal_.gens, topk, cap)
                assert b <= whole and min(b, cap) == min(whole, cap)


def test_depth_lower_bound_is_exact_at_its_closed_forms():
    # one generator gives n - 1, two give n - 2 (their Taylor resolution
    # is minimal), and k pairwise-disjoint ones give n - k (a complete
    # intersection): each is the brute-force depth
    rng = random.Random(4343)

    def support(variables):
        return sum(1 << b for b in rng.sample(
            variables, rng.randint(1, min(len(variables), 4))))

    for _ in range(40):
        n = rng.randint(2, 12)
        one = MonomialIdeal.make(n, [support(range(n))])
        two = MonomialIdeal.make(n, [support(range(n)), support(range(n))])
        left, disjoint = list(range(n)), []
        for _ in range(rng.randint(1, 5)):
            if left:
                disjoint.append(support(left))
                left = [b for b in left if not disjoint[-1] >> b & 1]
        for ideal_ in (one, two, MonomialIdeal.make(n, disjoint)):
            depth = brute_depth_oracle(ideal_).depth
            assert depth == n - len(ideal_.gens)
            for topk in (1, 4):
                assert _depth_lower_bound(n, ideal_.gens, topk) == depth

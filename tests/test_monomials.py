import random

from hypothesis import given, settings, strategies as st

from beilab.binomial_edge import initial_ideal
from beilab.corpus import all_graphs
from beilab.lab import whiskered_sides
from beilab.monomials import (MonomialIdeal, SimplicialComplex, add_ideals,
                              colon, intersect, max_antichain,
                              minimal_primes, stanley_reisner, var_name,
                              xvar, yvar)


def ideal(nvars, *gens):
    return MonomialIdeal.make(nvars, [sum(1 << b for b in g) for g in gens])


masks = st.lists(st.integers(min_value=1, max_value=(1 << 8) - 1),
                 min_size=0, max_size=8)


def test_variable_indexing():
    n = 3
    assert [var_name(xvar(i, n), n) for i in (1, 2, 3)] == ["x1", "x2", "x3"]
    assert [var_name(yvar(i, n), n) for i in (1, 2, 3)] == ["y1", "y2", "y3"]


def test_make_minimalizes_to_antichain():
    i = ideal(4, {0}, {0, 1}, {2, 3}, {2, 3})
    assert i.gens == (0b0001, 0b1100)


def test_zero_and_unit():
    assert ideal(3).is_zero()
    assert ideal(3, set()).is_unit()
    assert not ideal(3, {0}).is_unit()


def test_contains():
    i = ideal(4, {0, 1})
    assert i.contains(0b0011) and i.contains(0b1011)
    assert not i.contains(0b0001)


def test_to_text():
    j = MonomialIdeal.make(4, [0b0101, 0b1010])
    assert j.to_text() == "x1*y1\nx2*y2"


@settings(max_examples=100, deadline=None)
@given(masks, st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_colon_is_membership_quotient(gens, m):
    i = MonomialIdeal.make(8, gens)
    q = colon(i, m)
    # brute-force over all square-free monomials in 8 vars
    for u in range(1 << 8):
        assert q.contains(u) == i.contains(u | m)


@settings(max_examples=60, deadline=None)
@given(masks, masks)
def test_sum_and_intersection_membership(ga, gb):
    a = MonomialIdeal.make(8, ga)
    b = MonomialIdeal.make(8, gb)
    s = add_ideals(a, b)
    t = intersect(a, b)
    for u in range(1 << 8):
        assert s.contains(u) == (a.contains(u) or b.contains(u))
        assert t.contains(u) == (a.contains(u) and b.contains(u))


def minimal_primes_by_faces(ideal):
    """Minimal primes recomputed from every face of the Stanley-Reisner
    complex: the complements of its facets, the generator-free sets that
    no variable extends. Each face is grown once from the empty face by
    variables above its largest; ``addable`` holds the variables x with
    face + x still free, and a face is a facet when that set is empty."""
    full = (1 << ideal.nvars) - 1
    holding = {}    # variable -> the generators it divides
    for g in ideal.gens:
        for b in range(ideal.nvars):
            if g >> b & 1:
                holding.setdefault(1 << b, []).append(g)
    facets = []
    stack = [(0, full & ~sum(g for g in ideal.gens if not g & (g - 1)))]
    while stack:
        face, addable = stack.pop()
        if not addable:
            facets.append(face)
            continue
        above = addable & ~((1 << face.bit_length()) - 1)
        while above:
            x = above & -above
            above ^= x
            child = face | x
            lost = x    # x, and each y with a generator inside child + y
            for g in holding.get(x, ()):
                rest = g & ~child
                if not rest & (rest - 1):
                    lost |= rest
            stack.append((child, addable & ~lost))
    return tuple(sorted(full & ~f for f in facets))


def primes_by_every_mask(ideal):
    """The same, from a scan of every subset of the variables."""
    full = (1 << ideal.nvars) - 1
    free = [w for w in range(full + 1)
            if not any(g & w == g for g in ideal.gens)]
    return tuple(sorted(full & ~f for f in max_antichain(free)))


def _assert_exact_primes(i):
    primes = minimal_primes(i)
    assert len(set(primes)) == len(primes)       # each cover recorded once
    assert primes == minimal_primes_by_faces(i)


def test_minimal_primes_example():
    # complete intersection-free example frozen from the face-based oracle
    _assert_exact_primes(MonomialIdeal.make(4, [0b0011, 0b1100, 0b0101]))


@settings(max_examples=80, deadline=None)
@given(masks)
def test_minimal_primes_match_face_oracle(gens):
    i = MonomialIdeal.make(8, gens)
    _assert_exact_primes(i)
    assert minimal_primes_by_faces(i) == primes_by_every_mask(i)


@settings(max_examples=80, deadline=None)
@given(masks)
def test_intersection_of_minimal_primes_recovers_radical(gens):
    i = MonomialIdeal.make(8, gens)
    primes = minimal_primes(i)
    if not primes:
        assert i.is_zero()
        return
    acc = MonomialIdeal.make(8, [0])   # unit ideal as intersection identity
    for p in primes:
        acc = intersect(acc, MonomialIdeal.make(
            8, [1 << b for b in range(8) if p >> b & 1]))
    assert acc == i


def test_stanley_reisner_conventions():
    # unit ideal -> void complex; <all vars> -> irrelevant complex
    assert stanley_reisner(ideal(3, set())).facets == ()
    allvars = MonomialIdeal.make(3, [1, 2, 4])
    cx = stanley_reisner(allvars)
    assert cx.facets == (0,) and cx.dim() == -1
    # zero ideal -> full simplex
    assert stanley_reisner(ideal(3)).facets == (0b111,)


def test_stanley_reisner_faces_are_nonfaces_complement():
    rng = random.Random(7)
    for _ in range(50):
        gens = [rng.randrange(1, 1 << 6) for _ in range(rng.randrange(5))]
        i = MonomialIdeal.make(6, gens)
        cx = stanley_reisner(i)
        faces = set(cx.faces()) if not cx.is_void() else set()
        for u in range(1 << 6):
            assert (u in faces) == (not i.contains(u))


def test_complex_link_and_restrict():
    # hollow triangle
    cx = SimplicialComplex.make(3, [0b011, 0b101, 0b110])
    assert cx.dim() == 1
    lk = cx.link(0b001)
    assert set(lk.facets) == {0b010, 0b100}
    r = cx.restrict(0b011)
    assert r.facets == (0b011,)


def _random_ideal(rng, nvars):
    """Up to 3 * nvars random generators of 1 to 4 variables each."""
    sizes = range(1, min(4, nvars) + 1)
    gens = [sum(1 << b for b in rng.sample(range(nvars), rng.choice(sizes)))
            for _ in range(rng.randrange(1, 3 * nvars))]
    return MonomialIdeal.make(nvars, gens)


def test_minimal_primes_exact_on_graph_initial_ideals():
    for k in range(1, 7):
        for g in all_graphs(k):
            _assert_exact_primes(initial_ideal(g))


def test_minimal_primes_exact_on_the_example_ideals(fig):
    # the ideals depth-fig12 builds: the example and its whiskered sides
    # at the cut vertices 6, 8 and 11, on up to 24 variables
    graphs = [fig] + [side for v in (6, 8, 11)
                      for side in whiskered_sides(fig, v)]
    for g in dict.fromkeys(graphs):
        _assert_exact_primes(initial_ideal(g))


def test_minimal_primes_exact_on_seeded_random_ideals():
    rng = random.Random(20140101)
    for _ in range(300):
        _assert_exact_primes(_random_ideal(rng, rng.randint(1, 14)))

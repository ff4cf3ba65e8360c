"""Combinatorics of the binomial edge ideal via its square-free initial ideal.

Everything here works with the lexicographic order x_1 > ... > x_n > y_1 >
... > y_n, under which the initial ideal is generated by the monomials of
admissible paths. The binomials themselves are never materialized.
"""

import itertools
from functools import reduce
from operator import or_

from . import monomials as mono
from ._record import Record
from .cutsets import enumerate_cutsets
from .graphs import (Graph, _relabel_around, connected_components,
                     decompose_at, saturate)

DEFAULT_PATH_CAP = 14


class PrimeComponentInitial(Record):
    """A variable-generated associated prime of the initial ideal."""

    _fields = __slots__ = ("cutset",
                           "mask")  # generating variables in the 2n universe

    def size(self):
        return self.mask.bit_count()


def admissible_paths(g):
    """All admissible paths of the labeled graph g, each as its vertex
    tuple (i_0, ..., i_r) with i_0 < i_r.

    A path i = i_0, ..., i_r = j with i < j is admissible when its interior
    vertices all lie below i or above j and the path is induced (which is
    exactly the paper-level no-induced-cycle condition on its vertex set).
    """
    if g.n > DEFAULT_PATH_CAP:
        raise ValueError(f"admissible-path enumeration capped at n={DEFAULT_PATH_CAP}")
    nbr = g.neighbor_masks()
    out = []

    def grow(path, members, near):
        # near: the neighbors of path[:-1], which the next vertex must
        # avoid to keep the path induced; allowed: the vertices below i or
        # above j, plus j. Candidates go lowest bit first, so in
        # increasing vertex order
        last = path[-1]
        cand = nbr[last] & allowed & ~members & ~near
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if w == j:
                out.append(path + (j,))
            else:
                grow(path + (w,), members | low, near | nbr[last])

    full = (1 << (g.n + 1)) - 2
    for i, j in itertools.combinations(g.vertices(), 2):
        # bits 1..i-1, j, and j+1..n
        allowed = ((1 << i) - 2) | (full & -(1 << j))
        grow((i,), 1 << i, 0)
    return out


def path_monomial(path, n):
    """u_pi * x_i * y_j as a mask in the 2n universe."""
    i, j = path[0], path[-1]
    mask = (1 << mono.xvar(i, n)) | (1 << mono.yvar(j, n))
    for v in path[1:-1]:
        if v > j:
            mask |= 1 << mono.xvar(v, n)
        elif v < i:
            mask |= 1 << mono.yvar(v, n)
    return mask


def initial_ideal(g):
    """in(J_G) in the 2n-variable universe, from the admissible paths of g."""
    masks = [path_monomial(p, g.n) for p in admissible_paths(g)]
    ideal = mono.MonomialIdeal.make(2 * g.n, masks)
    if len(ideal.gens) != len(masks):
        raise AssertionError("admissible-path generators should form an antichain")
    return ideal


def ass_initial(g):
    """Ass(in(J_G)) = all P_T(v) over cutsets T and component choices v,
    checked against the height formula and for pairwise incomparability.
    P_T(v) holds x_i, y_i for i in T and, per component of G - T, the
    ``_choice_mask`` of the vertex that v picks in it."""
    n = g.n
    primes = []
    for t in enumerate_cutsets(g):
        base = _var_mask(t.vertices, n)
        per_comp = [[_choice_mask(comp, v, n) for v in sorted(comp)]
                    for comp in connected_components(g, t.vertices)]
        for masks in itertools.product(*per_comp):
            primes.append(PrimeComponentInitial(t, reduce(or_, masks, base)))
    for p in primes:
        expected = g.n + len(p.cutset) - p.cutset.c
        if p.size() != expected:
            raise AssertionError("height formula violated for a P_T(v)")
    for a, b in itertools.combinations(primes, 2):
        if a.mask & b.mask in (a.mask, b.mask):
            raise AssertionError("P_T(v) containment found; Ass is wrong")
    return primes


def _choice_mask(comp, v, n):
    """x_i for i in comp below v, y_i for i in comp above v."""
    mask = 0
    for i in comp:
        if i < v:
            mask |= 1 << mono.xvar(i, n)
        elif i > v:
            mask |= 1 << mono.yvar(i, n)
    return mask


def prime_ideal(p, nvars):
    return mono.add_variables(mono.MonomialIdeal.make(nvars, ()), p.mask)


def verify_decomposition(g):
    """in(J_G) equals the intersection of all its associated primes."""
    nvars = 2 * g.n
    ini = initial_ideal(g)
    acc = mono.MonomialIdeal.make(nvars, (0,))  # unit ideal
    for p in ass_initial(g):
        acc = mono.intersect(acc, prime_ideal(p, nvars))
    return ini == acc


def colon_saturation_identity(g, v):
    """(in(J_G) : x_n) = in(J_{G_n}) after relabeling v to n and its
    neighbors to n-1..n-r."""
    gp = _relabel_around(g, v, g.vertices())
    n = gp.n
    lhs = mono.colon(initial_ideal(gp), 1 << mono.xvar(n, n))
    rhs = initial_ideal(saturate(gp, n))
    return lhs == rhs


# ---------------------------------------------------------------------------
# the eleven labeling identities of a two-sided split

class SetupReport(Record):
    _fields = __slots__ = (
        "m",
        "results",          # index 1..11 -> whether the identity holds
        "memberships_ok")   # stated generator memberships of I_1'', I_2''

    def all_hold(self):
        return self.memberships_ok and all(self.results.values())


def setup_identities(g, v):
    """Check the eleven colon/sum identities of the two-block labeling.

    The graph is split and relabeled at the cut vertex v; both sides of
    every identity are materialized independently (graph constructions on
    the right, ideal arithmetic on the left). Every subgraph keeps the
    split graph's n labels, so its initial ideal lives in the same 2n
    variables.
    """
    dec = decompose_at(g, v)
    gp, m, n = dec.graph, dec.m, g.n
    nvars = 2 * n
    xm = 1 << mono.xvar(m, n)
    ym = 1 << mono.yvar(m, n)
    nb = gp.neighbor_masks()[m]
    r = (nb & ((1 << m) - 1)).bit_count()
    s = (nb >> (m + 1)).bit_count()

    g1 = _induced(gp, range(1, m + 1))     # side one
    g2 = _induced(gp, range(m, n + 1))     # side two
    g2m = saturate(g2, m)
    ii = initial_ideal(gp)
    in_g1 = initial_ideal(g1)
    in_g2 = initial_ideal(g2)
    # whiskered sides: m+1 is a side-two neighbor of m, the tip of side
    # one's whisker, and m-1 a side-one neighbor, the tip of side two's
    i1 = initial_ideal(_induced(gp, range(1, m + 2)))
    i2 = initial_ideal(_induced(gp, range(m - 1, n + 1)))
    j1 = initial_ideal(_induced(gp, range(1, m)))
    j2 = initial_ideal(_induced(gp, range(m + 1, n + 1)))
    in_g1m = initial_ideal(saturate(g1, m))
    in_g2m = initial_ideal(g2m)
    in_g2m_minus = initial_ideal(_induced(g2m, range(m + 1, n + 1)))

    a1_vars = _var_mask(range(1, m), n)
    a2_vars = _var_mask(range(m + 1, n + 1), n)

    res = {}

    res[1] = set(ii.gens) == set(in_g1.gens) | set(in_g2.gens)

    i1p = mono.MonomialIdeal.make(nvars, (gm for gm in i1.gens if not gm & xm))
    res[2] = (mono.add_variables(i1p, xm) == mono.add_variables(i1, xm)
              and _supported(i1p, a1_vars | ym))

    ym1 = 1 << mono.yvar(m + 1, n)
    res[3] = mono.colon(i1, xm) == mono.add_variables(in_g1m, ym1)

    c4 = mono.colon(mono.add_variables(i1, xm), ym)
    i1pp = mono.MonomialIdeal.make(nvars, (gm for gm in c4.gens if not gm & xm))
    res[4] = (c4 == mono.add_variables(i1pp, xm)
              and _supported(i1pp, a1_vars))
    member1 = all(i1pp.contains(1 << mono.xvar(m - k, n)) for k in range(1, r + 1))

    res[5] = (mono.add_variables(i1, xm | ym)
              == mono.add_variables(j1, xm | ym))

    i2p = mono.MonomialIdeal.make(nvars, (gm for gm in i2.gens if not gm & xm))
    xm_1 = 1 << mono.xvar(m - 1, n)
    res[6] = (mono.add_variables(i2p, xm) == mono.add_variables(i2, xm)
              and _supported(i2p, a2_vars | xm_1 | ym))

    c7 = mono.colon(i2, xm)
    i2pp = mono.MonomialIdeal.make(
        nvars, (gm for gm in c7.gens if gm != (xm_1 | ym)))
    res[7] = (c7 == mono.MonomialIdeal.make(nvars, i2pp.gens + (xm_1 | ym,))
              and _supported(i2pp, a2_vars))
    member2 = all(i2pp.contains(1 << mono.yvar(m + k, n)) for k in range(1, s + 1))

    res[8] = (mono.colon(mono.add_variables(i2, xm), ym)
              == mono.add_variables(in_g2m_minus, xm_1 | xm))

    res[9] = (mono.add_variables(i2, xm | ym)
              == mono.add_variables(j2, xm | ym))

    res[10] = mono.colon(ii, ym) == mono.add_ideals(i1pp, in_g2m)
    res[11] = mono.colon(ii, xm) == mono.add_ideals(i2pp, in_g1m)

    return SetupReport(m=m, results=res, memberships_ok=member1 and member2)


def _induced(g, vertices):
    """The subgraph of g induced on ``vertices``, on g's n labels."""
    vs = frozenset(vertices)
    return Graph(g.n, frozenset((i, j) for i, j in g.edges
                                if i in vs and j in vs))


def _var_mask(vertices, n):
    mask = 0
    for i in vertices:
        mask |= (1 << mono.xvar(i, n)) | (1 << mono.yvar(i, n))
    return mask


def _supported(ideal, allowed):
    return all(gm & ~allowed == 0 for gm in ideal.gens)

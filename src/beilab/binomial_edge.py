"""Combinatorics of the binomial edge ideal via its square-free initial ideal.

Everything here works with the lexicographic order x_1 > ... > x_n > y_1 >
... > y_n, under which the initial ideal is generated by the monomials of
admissible paths. The binomials themselves are never materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import monomials as mono
from .cutsets import Cutset, enumerate_cutsets
from .graphs import (Graph, _relabel_around, connected_components,
                     decompose_at, saturate)

DEFAULT_PATH_CAP = 14


@dataclass(frozen=True)
class AdmissiblePath:
    vertices: tuple  # i_0, ..., i_r with i_0 < i_r

    @property
    def i(self):
        return self.vertices[0]

    @property
    def j(self):
        return self.vertices[-1]


@dataclass(frozen=True)
class PrimeComponentInitial:
    """A variable-generated associated prime of the initial ideal."""

    cutset: Cutset
    choice: tuple      # one vertex per component, in component order
    mask: int          # generating variables in the 2n universe

    def size(self):
        return self.mask.bit_count()


def admissible_paths(g):
    """All admissible paths of the labeled graph g.

    A path i = i_0, ..., i_r = j with i < j is admissible when its interior
    vertices all lie below i or above j and the path is induced (which is
    exactly the paper-level no-induced-cycle condition on its vertex set).
    """
    if g.n > DEFAULT_PATH_CAP:
        raise ValueError(f"admissible-path enumeration capped at n={DEFAULT_PATH_CAP}")
    adj = g.adjacency()
    out = []

    def grow(i, j, path, members):
        last = path[-1]
        for w in sorted(adj[last]):
            if w == j:
                if len(path) == 1 or all(w not in adj[u] for u in path[:-1]):
                    out.append(AdmissiblePath(tuple(path) + (j,)))
                continue
            if w in members or not (w < i or w > j):
                continue
            if any(w in adj[u] for u in path[:-1]):
                continue  # chord against the growing path
            path.append(w)
            members.add(w)
            grow(i, j, path, members)
            members.discard(w)
            path.pop()

    for i, j in itertools.combinations(g.vertices(), 2):
        grow(i, j, [i], {i})
    return out


def path_monomial(path, n):
    """u_pi * x_i * y_j as a mask in the 2n universe."""
    i, j = path.i, path.j
    mask = (1 << mono.xvar(i, n)) | (1 << mono.yvar(j, n))
    for v in path.vertices[1:-1]:
        if v > j:
            mask |= 1 << mono.xvar(v, n)
        elif v < i:
            mask |= 1 << mono.yvar(v, n)
    return mask


def initial_ideal(g):
    """in(J_G) in the 2n-variable universe, from the admissible paths of g."""
    paths = admissible_paths(g)
    n = g.n
    masks = [path_monomial(p, n) for p in paths]
    ideal = mono.MonomialIdeal.make(2 * n, masks)
    if len(ideal.gens) != len(masks):
        raise AssertionError("admissible-path generators should form an antichain")
    return ideal


def prime_PTv(g, t, choice):
    """The associated prime of in(J_G) for cutset t and component choices.

    ``choice`` picks one vertex per connected component of G - t (component
    order: by least vertex). Generators: x_i, y_i for i in t; then per
    component, x_i for i below the chosen vertex and y_j for j above it.
    """
    t = frozenset(t)
    comps = connected_components(g, t)
    if len(choice) != len(comps) or any(v not in c for v, c in zip(choice, comps)):
        raise ValueError("choice must pick one vertex from each component")
    n = g.n
    mask = 0
    for i in t:
        mask |= (1 << mono.xvar(i, n)) | (1 << mono.yvar(i, n))
    for vk, comp in zip(choice, comps):
        for i in comp:
            if i < vk:
                mask |= 1 << mono.xvar(i, n)
            elif i > vk:
                mask |= 1 << mono.yvar(i, n)
    return PrimeComponentInitial(Cutset(t, len(comps)), tuple(choice), mask)


def ass_initial(g):
    """Ass(in(J_G)) = all P_T(v) over cutsets T and component choices v,
    checked against the height formula and for pairwise incomparability."""
    primes = []
    for t in enumerate_cutsets(g):
        comps = connected_components(g, t.vertices)
        for choice in itertools.product(*[sorted(c) for c in comps]):
            primes.append(prime_PTv(g, t.vertices, choice))
    for p in primes:
        expected = g.n + len(p.cutset) - p.cutset.c
        if p.size() != expected:
            raise AssertionError("height formula violated for a P_T(v)")
    for a, b in itertools.combinations(primes, 2):
        if a.mask & b.mask in (a.mask, b.mask):
            raise AssertionError("P_T(v) containment found; Ass is wrong")
    return primes


def prime_ideal(p, nvars):
    bits = [b for b in range(nvars) if p.mask >> b & 1]
    return mono.MonomialIdeal.make(nvars, [1 << b for b in bits])


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

@dataclass(frozen=True)
class SetupReport:
    m: int
    results: dict          # index 1..11 -> "ok" | "fail" | "skip"
    memberships_ok: bool   # stated generator memberships of I_1'', I_2''

    def all_hold(self):
        return self.memberships_ok and all(v in ("ok", "skip")
                                           for v in self.results.values())


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
    r = sum(1 for u in gp.neighbors(m) if u < m)
    s = sum(1 for u in gp.neighbors(m) if u > m)

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

    res[1] = _verdict(set(ii.gens) == set(in_g1.gens) | set(in_g2.gens))

    i1p = mono.MonomialIdeal.make(nvars, (gm for gm in i1.gens if not gm & xm))
    ok2 = mono.add_variables(i1p, xm) == mono.add_variables(i1, xm)
    ok2 &= _supported(i1p, a1_vars | ym)
    res[2] = _verdict(ok2)

    ym1 = 1 << mono.yvar(m + 1, n)
    res[3] = _verdict(mono.colon(i1, xm) == mono.add_variables(in_g1m, ym1))

    c4 = mono.colon(mono.add_variables(i1, xm), ym)
    i1pp = mono.MonomialIdeal.make(nvars, (gm for gm in c4.gens if not gm & xm))
    ok4 = c4 == mono.add_variables(i1pp, xm)
    ok4 &= _supported(i1pp, a1_vars)
    res[4] = _verdict(ok4)
    member1 = all(i1pp.contains(1 << mono.xvar(m - k, n)) for k in range(1, r + 1))

    res[5] = _verdict(mono.add_variables(i1, xm | ym)
                      == mono.add_variables(j1, xm | ym))

    i2p = mono.MonomialIdeal.make(nvars, (gm for gm in i2.gens if not gm & xm))
    xm_1 = 1 << mono.xvar(m - 1, n)
    ok6 = mono.add_variables(i2p, xm) == mono.add_variables(i2, xm)
    ok6 &= _supported(i2p, a2_vars | xm_1 | ym)
    res[6] = _verdict(ok6)

    c7 = mono.colon(i2, xm)
    i2pp = mono.MonomialIdeal.make(
        nvars, (gm for gm in c7.gens if gm != (xm_1 | ym)))
    ok7 = c7 == mono.MonomialIdeal.make(nvars, i2pp.gens + (xm_1 | ym,))
    ok7 &= _supported(i2pp, a2_vars)
    res[7] = _verdict(ok7)
    member2 = all(i2pp.contains(1 << mono.yvar(m + k, n)) for k in range(1, s + 1))

    res[8] = _verdict(mono.colon(mono.add_variables(i2, xm), ym)
                      == mono.add_variables(in_g2m_minus, xm_1 | xm))

    res[9] = _verdict(mono.add_variables(i2, xm | ym)
                      == mono.add_variables(j2, xm | ym))

    res[10] = _verdict(mono.colon(ii, ym) == mono.add_ideals(i1pp, in_g2m))
    res[11] = _verdict(mono.colon(ii, xm) == mono.add_ideals(i2pp, in_g1m))

    return SetupReport(m=m, results=res, memberships_ok=member1 and member2)


def _induced(g, vertices):
    """The subgraph of g induced on ``vertices``, on g's n labels."""
    vs = frozenset(vertices)
    return Graph(g.n, frozenset((i, j) for i, j in g.edges
                                if i in vs and j in vs))


def _verdict(ok):
    return "ok" if ok else "fail"


def _var_mask(vertices, n):
    mask = 0
    for i in vertices:
        mask |= (1 << mono.xvar(i, n)) | (1 << mono.yvar(i, n))
    return mask


def _supported(ideal, allowed):
    return all(gm & ~allowed == 0 for gm in ideal.gens)

"""Exact reduced simplicial homology, the Reisner check, and depth.

Each complex is first reduced to its strong core by deleting dominated
vertices, which keeps its homotopy type; homology ranks are then computed
from the core's boundary-matrix ranks by one sparse exact elimination:
over the rationals with primitive integer rows, over GF(p) modulo p.
Depth of a square-free monomial ideal comes from projective dimension,
scanning reduced homology of induced subcomplexes over the union-closure
of the generator supports (the lcm lattice), where all nonzero Betti
degrees live.
"""

from itertools import combinations
from math import comb, gcd, isqrt

from . import monomials as mono
from ._record import Record

DEFAULT_FACE_BUDGET = 5_000_000
DEFAULT_LATTICE_BUDGET = 1_000_000
BRUTE_DEPTH_CAP = 12    # variables; brute_depth_oracle scans 2^n subsets
# entries kept by the depth-lemma memo, which is emptied when full
_CACHE_SIZE = 1 << 16
_lemma_memo = {}    # (n, gens, topk) -> (bound, exact)


class FieldSpec(Record):
    _fields = __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        # below 2**31, trial division takes at most 46,340 steps
        p = characteristic
        if p and not (2 <= p < 1 << 31
                      and all(p % d for d in range(2, isqrt(p) + 1))):
            raise ValueError(f"{p} is neither 0 nor a prime below 2**31")
        super().__init__(characteristic)


QQ = FieldSpec(0)


class Limits(Record):
    """The field of one depth computation and the two budgets that bound
    its squeeze: lattice_budget the size of the lcm lattice, face_budget
    the faces its homology would enumerate on each restricted complex,
    charged before the complex is reduced to its strong core (also the
    Reisner face estimate). Left out, field defaults to QQ,
    lattice_budget to DEFAULT_LATTICE_BUDGET and face_budget to
    DEFAULT_FACE_BUDGET."""

    _fields = __slots__ = ("field", "lattice_budget", "face_budget")
    _defaults = {"field": QQ, "lattice_budget": DEFAULT_LATTICE_BUDGET,
                 "face_budget": DEFAULT_FACE_BUDGET}


class CMCertificate(Record):
    """is_cm is None when indeterminate. The witness is, from reisner_cm,
    (face mask, degree i); from lab, ("unmixedness", T, c(T)),
    ("accessibility", T) or ("depth", depth, dim)."""

    _fields = __slots__ = ("is_cm", "witness")
    _defaults = {"witness": None}


class DepthResult(Record):
    """depth is None when indeterminate. witness is the (W mask, degree i)
    attaining pd = nvars - depth; depth_bounds, when indeterminate, the
    squeeze's certified (depth_lb, n - pd_lb)."""

    _fields = __slots__ = ("depth", "witness", "depth_bounds")
    _defaults = {"witness": None, "depth_bounds": None}


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# exact matrix rank

def _rank(rows, p):
    """Rank of a sparse integer matrix over GF(p), or over Q when p is 0.

    Rows are dicts column -> nonzero entry. Pivots are stored by their
    leading (least) column; a row meeting a pivot there becomes
    a*row - b*pivot, which clears that column, until its leading column
    is free or the row vanishes. Mod p entries stay reduced and pivots
    are scaled to lead with 1; over Q every row is kept primitive (divided
    by the gcd of its entries), so the integers stay small and the rank is
    exact.
    """
    pivots = {}
    for row in rows:
        # a copy: elimination below updates rows in place
        row = {c: v % p for c, v in row.items() if v % p} if p else dict(row)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[lead] = row
                break
            a, b = piv[lead], row[lead]
            if not p:
                g = gcd(a, b)
                a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in piv.items():
                x = row.get(c, 0) - b * v
                if p:
                    x %= p
                if x:
                    row[c] = x
                else:
                    del row[c]
            if not p and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
    return len(pivots)


# ---------------------------------------------------------------------------
# reduced homology


def _faces_by_dim(facets, max_size):
    """dict k -> sorted k-faces (masks) with 2..max_size vertices."""
    by_size = {}
    for f in facets:
        bits = [1 << b for b in range(f.bit_length()) if f >> b & 1]
        for s in range(2, min(len(bits), max_size) + 1):
            faces = by_size.setdefault(s, set())
            faces.update(map(sum, combinations(bits, s)))
    return {s - 1: sorted(v) for s, v in by_size.items()}


def _boundary_rank(upper, lower, p):
    """Rank of the simplicial boundary map from k-faces to (k-1)-faces."""
    if not upper or not lower:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = {}
        sign = 1
        b = f
        # iterate vertices of f in increasing order for alternating signs
        while b:
            row[index[f & ~(b & -b)]] = sign
            sign = -sign
            b &= b - 1
        rows.append(row)
    return _rank(rows, p)


def _is_cone(facets):
    common = facets[0]
    for f in facets[1:]:
        common &= f
        if not common:
            return False
    return bool(common)


def _strong_core(facets):
    """Facets left after deleting dominated vertices one at a time.

    v is dominated when every facet holding it also holds one other vertex
    u: its link is then a cone over u, so deleting v keeps the homotopy
    type and every reduced homology group, over any field. The result is
    the strong core (Barmak and Minian, Discrete Comput. Geom. 2012), or a
    single facet, a simplex, when the complex is strong collapsible.
    Facets that are not maximal can only hide a domination, never fake one.

    The first deletion takes the maximal faces of all that is left. From
    then on the facets form an antichain, so after deleting v only a facet
    that held v can stop being maximal, and only inside a facet that did
    not: two facets holding v still differ off v.
    """
    verts = 0
    for f in facets:
        verts |= f
    antichain = False
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
            break       # no vertex is dominated
        verts &= ~v
        if antichain:
            others = [f for f in facets if not f & v]
            shrunk = [f & ~v for f in facets if f & v]
            facets = tuple(sorted(others + [
                s for s in shrunk if not any(s & f == s for f in others)]))
        else:
            facets = mono.max_antichain(f & ~v for f in facets)
            antichain = True
    return facets


def _components(facets):
    """Number of connected components, merging facet masks that meet."""
    comps = []
    for f in facets:
        if not f:
            continue
        rest = []
        for c in comps:
            if c & f:
                f |= c
            else:
                rest.append(c)
        rest.append(f)
        comps = rest
    return len(comps)


def reduced_ranks_from_facets(facets, field, max_degree=None):
    """Reduced homology ranks as a dict degree -> rank (zeros omitted),
    for degrees up to max_degree, or all degrees when it is None.

    The facets need not form an antichain; zero masks add nothing. Degrees
    -1 and 0 need no matrix: they read the vertices and the components.
    For higher degrees the complex is first reduced to its strong core,
    which has the same homology; a core of one facet is contractible.
    Otherwise boundary matrices are eliminated, built from the core's
    faces with at most max_degree + 2 vertices; the rank of d_1 is
    |core vertices| - |components|.
    """
    facets = tuple(sorted(set(facets)))
    top = max(f.bit_count() for f in facets) - 1 if facets else -2
    if max_degree is None or max_degree > top:
        max_degree = top
    if max_degree < -1:
        return {}
    verts = 0
    for f in facets:
        verts |= f
    if not verts:
        return {-1: 1}
    ncomps = _components(facets)
    ranks = {0: ncomps - 1} if ncomps > 1 and max_degree >= 0 else {}
    if max_degree <= 0 or _is_cone(facets):
        return ranks
    facets = _strong_core(facets)
    if len(facets) == 1:
        return ranks
    verts = 0
    for f in facets:
        verts |= f
    by_dim = _faces_by_dim(facets, max_degree + 2)
    r = verts.bit_count() - ncomps     # rank of d_k, for k = 1, 2, ...
    for k in range(1, max_degree + 1):
        # the core can lack faces of some dimension
        faces = by_dim.get(k, ())
        r_up = _boundary_rank(by_dim.get(k + 1), faces,
                              field.characteristic)
        h = len(faces) - r - r_up
        if h:
            ranks[k] = h
        r = r_up
    return ranks


def _budget_check(facets, budget):
    est = sum(1 << f.bit_count() for f in facets)
    if est > budget:
        raise BudgetExceeded(f"face estimate {est} exceeds budget {budget}")


# ---------------------------------------------------------------------------
# Reisner criterion

def reisner_cm(cx, limits=Limits()):
    """Cohen-Macaulayness of the Stanley-Reisner ring via link homology.

    CM iff for every face sigma (including the empty face), the reduced
    homology of its link vanishes below the link's dimension. The witness
    on failure is the smallest bad (face, degree) in (size, mask) order.
    """
    field = limits.field
    if cx.is_void() or cx.facets == (0,):
        return CMCertificate(True)
    try:
        _budget_check(cx.facets, limits.face_budget)
        faces = sorted(cx.faces(), key=lambda f: (f.bit_count(), f))
        for sigma in faces:
            link = cx.link(sigma).facets
            dim_link = max(f.bit_count() for f in link) - 1
            if dim_link <= 0:
                continue  # dimension <= 0 complexes are always CM
            ranks = reduced_ranks_from_facets(link, field, dim_link - 1)
            if ranks:
                return CMCertificate(False, witness=(sigma, min(ranks)))
    except BudgetExceeded:
        return CMCertificate(None)
    return CMCertificate(True)


# ---------------------------------------------------------------------------
# depth via Hochster's formula

def _lcm_lattice(ideal, budget):
    """Union-closure of the generator supports, plus the empty degree.

    Built one generator at a time: after g_1..g_k the set holds every
    union of a subset of them, so each pass is one set comprehension.
    The set only grows and ends at the lattice L, so BudgetExceeded is
    raised exactly when |L| > budget. The set is unordered."""
    closure = {0}
    for g in ideal.gens:
        closure |= {c | g for c in closure}
        if len(closure) > budget:
            raise BudgetExceeded(f"lcm lattice exceeds budget {budget}")
    return closure


def _depth_lower_bound(n, gens, topk, cap=None):
    """Certified lower bound on depth of the quotient by the ideal with
    minimal generators gens in n variables, by the depth lemma applied to
    0 -> S/(I:x) -> S/I -> S/(I+x) -> 0 recursively. A variable generator
    divides no other minimal generator, so each takes 1 off the bound of
    the rest: only variable-free ideals are split, and the I + x child is
    the bound of the generators x does not divide, less 1.

    The leaves are closed forms, each the exact depth: at most two
    generators give n - len(gens), as their Taylor resolution is minimal,
    and k pairwise-disjoint generators give n - k, a complete intersection.

    topk is the number of candidate splitting variables tried per node
    (the bound is the max over candidates): the variables dividing the
    most generators, the lower first among equals, read from the counts
    kept in binary, one bit plane per binary digit. Larger topk is sharper
    but costlier, and never lower. Never exceeds the true depth, over any
    field. Two prunes leave every value unchanged: the I + x child is
    evaluated first, and the I : x child is skipped when I + x alone is
    no more than the running max, since the min cannot then raise it; and
    candidates stop once the max reaches the ceiling n - nu, where nu
    counts generators picked greedily to be pairwise disjoint, because
    depth <= dim = n - height <= n - nu.

    A caller that needs the bound only up to cap gets a value b, no more
    than the uncapped bound B, with min(b, cap) == min(B, cap): candidates
    stop at min(ceiling, cap) = stop, the I + x child is asked up to
    stop + 1, the I : x child up to min(I + x less 1, stop), and the rest
    of k variable generators up to cap + k; a leaf returns B, whatever the
    cap. The memo maps (n, gens, topk), not ideal objects, to (b, exact),
    where exact means b == B; leaves are not stored. An entry serves a
    later call at its own topk only, when exact or when b is at least the
    call's cap.
    """
    if gens == (0,):
        raise ValueError("unit ideal: the quotient ring is zero")
    if len(gens) <= 2:
        return n - len(gens)
    if cap is None:
        cap = n     # no bound exceeds n: uncapped
    hit = _lemma_memo.get((n, gens, topk))
    if hit is not None and (hit[0] >= cap or hit[1]):
        return hit[0]
    others = tuple(g for g in gens if g & (g - 1))
    if len(others) < len(gens):
        k = len(gens) - len(others)
        out = _depth_lower_bound(n, others, topk, cap + k) - k
        return _remember(n, gens, topk, out, out < cap)
    # bit v of planes[j] is bit j of the number of generators x_v divides
    planes = []
    ceiling = n
    used = 0
    for g in gens:
        if not g & used:
            used |= g
            ceiling -= 1
        carry = g
        for j, p in enumerate(planes):
            planes[j] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            planes.append(carry)
    if ceiling == n - len(gens):
        return ceiling      # pairwise disjoint: a complete intersection
    # split on the most shared variables, the lower first among equals
    left = 0
    for p in planes:
        left |= p
    cand = []
    while left and len(cand) < topk:
        most = left
        for p in reversed(planes):
            if most & p:
                most &= p
        left &= ~most
        while most and len(cand) < topk:
            cand.append(most & -most)
            most &= most - 1
    stop = min(ceiling, cap)
    out = 0
    for x in cand:
        if out >= stop:
            break
        # x is no generator, so both are minimal as built: I + x drops the
        # generators x divides; I : x strips x from them and keeps each
        # other generator that no stripped one divides
        rest = [g for g in gens if not g & x]
        add = _depth_lower_bound(n, tuple(rest), topk, stop + 1) - 1
        if add <= out:
            continue
        stripped = [g & ~x for g in gens if g & x]
        quot = stripped + [g for g in rest
                           if not any(s & g == s for s in stripped)]
        out = max(out, min(add, _depth_lower_bound(
            n, tuple(sorted(quot)), topk, min(add, stop))))
    # below cap the bound is uncapped, and none exceeds the ceiling
    return _remember(n, gens, topk, out, out < cap or out >= ceiling)


def _remember(n, gens, topk, bound, exact):
    if len(_lemma_memo) >= _CACHE_SIZE:
        _lemma_memo.clear()
    _lemma_memo[n, gens, topk] = (bound, exact)
    return bound


def _big_height(cx):
    """The largest height of a minimal prime: the complement of the
    smallest facet. The projective dimension is never below it."""
    return cx.nverts - min(f.bit_count() for f in cx.facets)


def hochster_depth(ideal, limits=Limits(), seed=None, narrow=None):
    """depth of the quotient by a square-free monomial ideal, exactly.

    Squeeze strategy: depth <= n - pd where pd is pushed up by Hochster
    witnesses (nonzero reduced homology of induced subcomplexes, scanned
    over the lcm lattice by ascending homological degree, so cheap degrees
    come first), and depth >= the depth-lemma recursion bound, in one
    pass capped at n - pd_lb before any lattice is built: at topk 2 when
    ``narrow`` is given, and at topk 4 without it.

    pd is never below the big height, the largest height of a minimal
    prime. Without a seed, pd_lb starts there, read from the
    Stanley-Reisner complex. ``seed``, a certified (lo, hi) interval on
    the depth known from outside, starts both bounds instead: pd_lb from
    n - hi, and from the number of variable generators, as every minimal
    prime holds them. The complex is then built only when the scan is
    about to run, and pd_lb is raised to its big height, with the loop's
    test made again, before the lattice is built or charged to its
    budget. When the two bounds meet before a scan the answer is exact,
    and the witness is None. When no W is large enough to scan, n - pd_lb
    is exact: pd_lb is at least the big height, which falls below the
    number of variables the generators use unless every generator is a
    variable. If the bounds are still apart after the pass,
    ``narrow(lo, hi)``, if given, returns a certified interval within
    them, and the scan starts from it.
    The scan stops the moment the bounds meet; if they never do, the
    completed lattice scan is itself exact. It starts at degree 0: H~_-1
    of W is nonzero only when every variable of W is a generator, so |W|
    is at most the big height, which pd_lb holds by then. In degree i it
    skips W with |W| > n - depth_lb + i + 1, as pd <= n - depth_lb. The
    lattice is built, and charged to its budget, only when a scan runs; it
    is sorted by the total key (-|W|, W), so the witness is the first
    (W, i) in that order. The face budget is charged on each restricted
    complex whose homology is computed, before reduced_ranks_from_facets
    collapses it to its strong core, so the core never moves a
    budget-limited answer. When either budget in ``limits`` runs out the
    answer is still exact if the bounds have met, and otherwise the
    certified interval is reported as indeterminate instead of a guess.
    """
    if ideal.is_unit():
        raise ValueError("unit ideal: the quotient ring is zero")
    n = ideal.nvars
    if ideal.is_zero():
        return DepthResult(depth=n)
    field, face_budget = limits.field, limits.face_budget
    # the lattice's top element is the union of all generators
    top = 0
    for g in ideal.gens:
        top |= g
    max_size = top.bit_count()
    if seed is None:
        cx = mono.stanley_reisner(ideal)
        depth_lb, pd_lb = 0, _big_height(cx)
    else:
        # every minimal prime holds the variable generators
        cx = None
        depth_lb, depth_ub = seed
        pd_lb = max(n - depth_ub, sum(not g & (g - 1) for g in ideal.gens))
    if pd_lb + 2 > max_size:
        depth_lb = n - pd_lb    # no W is large enough to scan: exact
    # sharpen the bound before any lattice; it is needed only up to
    # n - pd_lb. narrow replaces the costly topk 3 and 4: after it, over
    # the graphs with n <= 7, they spared the scan no lattice and no homology
    if depth_lb < n - pd_lb:
        depth_lb = max(depth_lb, _depth_lower_bound(
            n, ideal.gens, 4 if narrow is None else 2, n - pd_lb))
    if depth_lb < n - pd_lb and narrow is not None:
        depth_lb, depth_ub = narrow(depth_lb, n - pd_lb)
        pd_lb = n - depth_ub
    witness = None
    lattice = None
    spent = 0       # faces charged to face_budget
    i = 0           # combinatorial degrees first: they carry most witnesses
    try:
        while pd_lb + i + 2 <= max_size and n - pd_lb > depth_lb:
            if cx is None:
                # the scan reads the complex: its big height may close it
                cx = mono.stanley_reisner(ideal)
                pd_lb = max(pd_lb, _big_height(cx))
                continue
            if lattice is None:
                lattice = _lcm_lattice(ideal, limits.lattice_budget)
                # by (-|W|, W): the sort by size keeps ties in mask order
                lattice = sorted(sorted(lattice), key=int.bit_count,
                                 reverse=True)
            for w in lattice:
                size = w.bit_count()
                if size < pd_lb + i + 2:
                    break   # sorted descending; nothing below can improve
                if size > n - depth_lb + i + 1:
                    continue    # pd <= n - depth_lb: H~_i(W) vanishes
                if i == 0:
                    # H~_0 counts components: the restricted faces need no
                    # antichain pass, and no rank is computed
                    nonzero = _components({f & w for f in cx.facets}) > 1
                else:
                    facets = cx.restrict(w).facets
                    if facets != (0,) and not _is_cone(facets):
                        # charge the faces a degree-i computation enumerates
                        spent += sum(comb(f.bit_count(), s)
                                     for f in facets for s in range(i + 3))
                        if spent > face_budget:
                            raise BudgetExceeded(
                                "homology face budget exceeded")
                    nonzero = i in reduced_ranks_from_facets(facets, field, i)
                if nonzero:
                    pd_lb = size - i - 1
                    witness = (w, i)
            i += 1
    except BudgetExceeded:
        if n - pd_lb > depth_lb:
            return DepthResult(depth=None, witness=witness,
                               depth_bounds=(depth_lb, n - pd_lb))
    # the bounds have met, or the scan is complete
    return DepthResult(depth=n - pd_lb, witness=witness)


def brute_depth_oracle(ideal, field=QQ):
    """Same contract as hochster_depth, scanning every vertex subset.

    pd is the max over W of |W| - i - 1 with nonzero H~_i of the induced
    subcomplex. Subsets are scanned by decreasing |W|; for each W only
    degrees i <= |W| - pd - 2 can improve the maximum, so homology is
    computed truncated to those.
    """
    if ideal.nvars > BRUTE_DEPTH_CAP:
        raise ValueError(f"brute-force depth capped at {BRUTE_DEPTH_CAP} variables")
    if ideal.is_unit():
        raise ValueError("unit ideal: the quotient ring is zero")
    n = ideal.nvars
    if ideal.is_zero():
        return DepthResult(depth=n)
    cx = mono.stanley_reisner(ideal)
    pd = 0
    witness = None
    for w in sorted(range(1 << n), key=int.bit_count, reverse=True):
        size = w.bit_count()
        max_deg = size - pd - 2
        if max_deg < -1:
            break   # sizes only fall and pd only grows from here
        ranks = reduced_ranks_from_facets(cx.restrict(w).facets, field,
                                          max_deg)
        if ranks:
            # the smallest degree already maximizes |W| - i - 1
            i = min(ranks)
            if size - i - 1 > pd:
                pd = size - i - 1
                witness = (w, i)
    return DepthResult(depth=n - pd, witness=witness)


"""Exact reduced simplicial homology, the Reisner check, and depth.

Homology ranks are computed from boundary-matrix ranks, exactly: over the
rationals via integer fraction-free elimination, or over GF(p) by modular
elimination. Depth of a square-free monomial ideal comes from projective
dimension, scanning reduced homology of induced subcomplexes over the
union-closure of the generator supports (the lcm lattice), where all
nonzero Betti degrees live.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import monomials as mono
from .monomials import SimplicialComplex

DEFAULT_FACE_BUDGET = 5_000_000
DEFAULT_LATTICE_BUDGET = 1_000_000
DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class FieldSpec:
    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p and (p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1))):
            raise ValueError(f"{p} is not prime")


QQ = FieldSpec(0)


@dataclass(frozen=True)
class CMCertificate:
    is_cm: bool | None             # None = indeterminate
    field: FieldSpec
    witness: tuple | None = None   # reisner_cm: (face mask, degree i)
    indeterminate: bool = False


@dataclass(frozen=True)
class DepthResult:
    depth: int
    pd: int
    witness: tuple | None          # (W mask, degree i) attaining pd
    indeterminate: bool = False
    depth_bounds: tuple | None = None  # (lo, hi) when indeterminate


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# exact matrix rank

def _rank_mod_p(rows, p):
    """Rank of a matrix (list of lists of ints) over GF(p)."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = [(x * inv) % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


def _rank_exact(rows):
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                if abs(rows[i][col]) == 1:
                    break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rp = rows[rank]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(ri, rp)]
        prev = pv
        rank += 1
        col += 1
    return rank


def _rank(rows, field):
    if not rows or not rows[0]:
        return 0
    if field.characteristic:
        return _rank_mod_p(rows, field.characteristic)
    return _rank_exact(rows)


# ---------------------------------------------------------------------------
# reduced homology

def _faces_by_dim(facets):
    """dict k -> sorted list of k-faces (masks), from a facet list."""
    by_dim = {}
    for f in SimplicialComplex(max(facets).bit_length(), facets).faces():
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    return {k: sorted(v) for k, v in by_dim.items()}


def _boundary_rank(upper, lower, field):
    """Rank of the simplicial boundary map from k-faces to (k-1)-faces."""
    if not upper or not lower:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for f in upper:
        row = [0] * len(lower)
        sign = 1
        b = f
        # iterate vertices of f in increasing order for alternating signs
        while b:
            low = b & -b
            row[index[f & ~low]] = sign
            sign = -sign
            b &= b - 1
        rows.append(row)
    return _rank(rows, field)


def _is_cone(facets):
    common = facets[0]
    for f in facets[1:]:
        common &= f
        if not common:
            return False
    return bool(common)


_RANKS_CACHE = {}


def reduced_ranks_from_facets(facets, field):
    """Reduced homology ranks as a dict degree -> rank (zeros omitted)."""
    facets = tuple(sorted(facets))
    if not facets:
        return {}
    if facets == (0,):
        return {-1: 1}
    key = (facets, field.characteristic)
    hit = _RANKS_CACHE.get(key)
    if hit is not None:
        return hit
    if _is_cone(facets):
        _RANKS_CACHE[key] = {}
        return {}
    by_dim = _faces_by_dim(facets)
    top = max(by_dim)
    ranks = {}
    # boundary ranks: r[k] = rank of d_k : C_k -> C_{k-1}; d_0 = augmentation
    r = {0: 1 if by_dim.get(0) else 0}
    for k in range(1, top + 1):
        r[k] = _boundary_rank(by_dim.get(k, []), by_dim.get(k - 1, []), field)
    r[top + 1] = 0
    h_minus1 = 1 - r[0]
    if h_minus1:
        ranks[-1] = h_minus1
    for k in range(0, top + 1):
        h = len(by_dim.get(k, [])) - r[k] - r[k + 1]
        if h:
            ranks[k] = h
    _check_euler(by_dim, ranks)
    _RANKS_CACHE[key] = ranks
    return ranks


def _faces_up_to(facets, max_size):
    """All faces with at most max_size vertices, grouped by dimension."""
    import itertools
    by_dim = {}
    seen = set()
    for f in facets:
        bits = [b for b in range(f.bit_length()) if f >> b & 1]
        take = min(len(bits), max_size)
        for s in range(take + 1):
            for comb in itertools.combinations(bits, s):
                m = sum(1 << b for b in comb)
                if m not in seen:
                    seen.add(m)
                    by_dim.setdefault(s - 1, []).append(m)
    return {k: sorted(v) for k, v in by_dim.items()}


def reduced_ranks_up_to(facets, field, max_degree):
    """Reduced homology ranks for degrees -1..max_degree only.

    Enumerates faces only up to dimension max_degree+1, so cheap when the
    complex is large but only low homological degrees matter. No Euler
    check (the chain complex is truncated)."""
    facets = tuple(sorted(facets))
    if not facets or max_degree < -1:
        return {}
    if facets == (0,):
        return {-1: 1}
    key = (facets, field.characteristic, max_degree)
    hit = _RANKS_CACHE.get(key)
    if hit is not None:
        return hit
    full_key = (facets, field.characteristic)
    full = _RANKS_CACHE.get(full_key)
    if full is not None:
        out = {k: v for k, v in full.items() if k <= max_degree}
        _RANKS_CACHE[key] = out
        return out
    if _is_cone(facets):
        _RANKS_CACHE[key] = {}
        return {}
    top = max(bin(f).count("1") for f in facets) - 1
    if max_degree >= top:
        out = reduced_ranks_from_facets(facets, field)
        _RANKS_CACHE[key] = out
        return out
    by_dim = _faces_up_to(facets, max_degree + 2)
    ranks = {}
    r = {0: 1 if by_dim.get(0) else 0}
    for k in range(1, max_degree + 2):
        r[k] = _boundary_rank(by_dim.get(k, []), by_dim.get(k - 1, []), field)
    if 1 - r[0]:
        ranks[-1] = 1 - r[0]
    for k in range(0, max_degree + 1):
        h = len(by_dim.get(k, [])) - r[k] - r[k + 1]
        if h:
            ranks[k] = h
    _RANKS_CACHE[key] = ranks
    return ranks


def _check_euler(by_dim, ranks):
    # by_dim includes the empty face at dimension -1
    lhs = sum((-1 if k % 2 else 1) * len(v) for k, v in by_dim.items())
    rhs = sum((-1 if k % 2 else 1) * h for k, h in ranks.items())
    if lhs != rhs:
        raise AssertionError("Euler characteristic mismatch in homology")


def reduced_homology_ranks(cx, field=QQ, face_budget=DEFAULT_FACE_BUDGET):
    """Ranks of reduced homology by degree, as a list for -1..dim."""
    if cx.is_void():
        return []
    _budget_check(cx.facets, face_budget)
    ranks = reduced_ranks_from_facets(cx.facets, field)
    d = cx.dim()
    return [ranks.get(k, 0) for k in range(-1, d + 1)]


def _budget_check(facets, budget):
    est = sum(1 << bin(f).count("1") for f in facets)
    if est > budget:
        raise BudgetExceeded(f"face estimate {est} exceeds budget {budget}")


# ---------------------------------------------------------------------------
# Reisner criterion

def reisner_cm(cx, field=QQ, face_budget=DEFAULT_FACE_BUDGET):
    """Cohen-Macaulayness of the Stanley-Reisner ring via link homology.

    CM iff for every face sigma (including the empty face), the reduced
    homology of its link vanishes below the link's dimension. The witness
    on failure is the smallest bad (face, degree) in (size, mask) order.
    """
    if cx.is_void() or cx.facets == (0,):
        return CMCertificate(True, field)
    try:
        _budget_check(cx.facets, face_budget)
        faces = sorted(cx.faces(), key=lambda f: (bin(f).count("1"), f))
        for sigma in faces:
            link = cx.link(sigma).facets
            dim_link = max(bin(f).count("1") for f in link) - 1
            if dim_link <= 0:
                continue  # dimension <= 0 complexes are always CM
            ranks = reduced_ranks_from_facets(link, field)
            bad = [k for k in ranks if k < dim_link]
            if bad:
                return CMCertificate(False, field, witness=(sigma, min(bad)))
    except BudgetExceeded:
        return CMCertificate(None, field, indeterminate=True)
    return CMCertificate(True, field)


# ---------------------------------------------------------------------------
# depth via Hochster's formula

def _pd_from_subsets(ideal, subsets, field, best_seed=0):
    """max over W of |W| - i - 1 with nonzero H_i of the induced subcomplex.

    Scans by decreasing |W|; for each W only degrees i <= |W| - best - 2
    can improve the maximum, so homology is computed truncated to those."""
    cx = mono.stanley_reisner(ideal)
    best = best_seed
    witness = None
    for w in sorted(subsets, key=lambda m: -bin(m).count("1")):
        size = bin(w).count("1")
        max_deg = size - best - 2
        if max_deg < -1:
            continue
        induced = cx.restrict(w).facets
        ranks = reduced_ranks_up_to(induced, field, max_deg)
        for i in sorted(ranks):
            if ranks[i] and size - i - 1 > best:
                best = size - i - 1
                witness = (w, i)
                break    # the smallest degree already maximizes |W|-i-1
    return best, witness


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


_DEPTH_LB_MEMO = {}


def _depth_lower_bound(ideal, topk=1):
    """Certified lower bound on depth of the quotient, by the depth lemma
    applied to 0 -> S/(I:x) -> S/I -> S/(I+x) -> 0 recursively.

    topk is the number of candidate splitting variables tried per node
    (the bound is the max over candidates); larger topk is sharper but
    costlier. Never exceeds the true depth, over any field.
    """
    key = (ideal.nvars, ideal.gens, topk)
    hit = _DEPTH_LB_MEMO.get(key)
    if hit is not None:
        return hit
    n = ideal.nvars
    if ideal.is_zero():
        out = n
    elif ideal.is_unit():
        raise ValueError("unit ideal: the quotient ring is zero")
    elif all(bin(g).count("1") == 1 for g in ideal.gens):
        out = n - len(ideal.gens)
    elif len(ideal.gens) == 1:
        out = n - 1
    else:
        # split on the most shared variables among non-variable generators
        counts = {}
        for g in ideal.gens:
            if bin(g).count("1") == 1:
                continue
            b = g
            while b:
                low = b & -b
                counts[low] = counts.get(low, 0) + 1
                b &= b - 1
        cand = sorted(counts, key=lambda m: (-counts[m], m))[:topk]
        out = 0
        for x in cand:
            quot = mono.colon(ideal, x)
            plus = mono.MonomialIdeal.make(n, ideal.gens + (x,))
            out = max(out, min(_depth_lower_bound(quot, topk),
                               _depth_lower_bound(plus, topk)))
    _DEPTH_LB_MEMO[key] = out
    return out


def _h0_rank(facets):
    """Rank of H~_0 (components minus one), by union-find; field-free."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in facets:
        bits = []
        b = f
        while b:
            bits.append(b & -b)
            b &= b - 1
        for v in bits:
            parent.setdefault(v, v)
        for v in bits[1:]:
            ra, rb = find(bits[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    if not parent:
        return 0
    return len({find(v) for v in parent}) - 1


_SCREEN_FIELD = FieldSpec(DEFAULT_PRIME)


def _homology_rank_at(facets, field, i, counter, budget):
    """Rank of H~_i for a facet list, exactly over the given field.

    Cone- and cache-aware; degrees -1 and 0 are combinatorial (no
    matrices). Over the rationals a positive-characteristic screen runs
    first: vanishing mod p certifies vanishing over QQ by universal
    coefficients, so exact integer elimination only touches candidates.
    Work is counted against a face budget.
    """
    if not facets:
        return 0
    if facets == (0,):
        return 1 if i == -1 else 0
    if i == -1:
        return 0
    if _is_cone(facets):
        return 0
    if i == 0:
        return _h0_rank(facets)
    est = sum(_binom_sum(bin(f).count("1"), i + 2) for f in facets)
    counter[0] += est
    if counter[0] > budget:
        raise BudgetExceeded("homology face budget exceeded")
    if field.characteristic == 0:
        if not reduced_ranks_up_to(facets, _SCREEN_FIELD, i).get(i, 0):
            return 0
    return reduced_ranks_up_to(facets, field, i).get(i, 0)


def _binom_sum(n, k):
    from math import comb
    return sum(comb(n, s) for s in range(0, min(n, k) + 1))


def hochster_depth(ideal, field=QQ, budget=DEFAULT_LATTICE_BUDGET,
                   face_budget=DEFAULT_FACE_BUDGET):
    """depth of the quotient by a square-free monomial ideal, exactly.

    Squeeze strategy: depth <= n - pd where pd is pushed up by Hochster
    witnesses (nonzero reduced homology of induced subcomplexes, scanned
    over the lcm lattice by ascending homological degree, so cheap degrees
    come first), and depth >= the depth-lemma recursion bound. The scan
    stops the moment the two bounds meet; if they never do, the completed
    lattice scan is itself exact. On budget overflow the certified interval
    is reported as indeterminate instead of a guess.

    The lattice is built up front, so its budget applies even when the
    bounds meet before any scan, but it is sorted only when the first
    scan runs, by the total key (-|W|, W): the witness is the first
    (W, i) in that order and does not depend on set iteration order.
    """
    if ideal.is_unit():
        raise ValueError("unit ideal: the quotient ring is zero")
    n = ideal.nvars
    if ideal.is_zero():
        return DepthResult(depth=n, pd=0, witness=None)
    try:
        lattice = _lcm_lattice(ideal, budget)
    except BudgetExceeded:
        return DepthResult(depth=None, pd=None, witness=None,
                           indeterminate=True, depth_bounds=(0, n))
    cx = mono.stanley_reisner(ideal)
    # pd >= big height = max codim of an associated prime, always
    pd_lb = n - min(bin(f).count("1") for f in cx.facets)
    depth_lb = _depth_lower_bound(ideal)
    witness = None
    # the lattice's top element is the union of all generators
    top = 0
    for g in ideal.gens:
        top |= g
    max_size = bin(top).count("1")
    by_size = []
    counter = [0]

    def scan_degree(i, pd_lb, witness):
        if not by_size:
            by_size.extend(sorted(lattice,
                                  key=lambda m: (-bin(m).count("1"), m)))
        for w in by_size:
            size = bin(w).count("1")
            if size < pd_lb + i + 2:
                break   # sorted descending; nothing below can improve
            if i <= 0:
                # H~_-1 and H~_0 see only vertices and edges, so the
                # restricted faces need no antichain pass
                facets = tuple({f & w for f in cx.facets})
            else:
                facets = cx.restrict(w).facets
            if _homology_rank_at(facets, field, i, counter, face_budget):
                if size - i - 1 > pd_lb:
                    pd_lb = size - i - 1
                    witness = (w, i)
        return pd_lb, witness

    try:
        # combinatorial degrees first: they carry most witnesses
        for i in (-1, 0):
            if n - pd_lb <= depth_lb:
                break
            pd_lb, witness = scan_degree(i, pd_lb, witness)
        # sharpen the lower bound before resorting to matrix homology
        for topk in (2, 3, 4):
            if n - pd_lb <= depth_lb:
                break
            depth_lb = max(depth_lb, _depth_lower_bound(ideal, topk))
        i = 1
        while pd_lb + i + 2 <= max_size:
            if n - pd_lb <= depth_lb:
                break   # bounds met: depth is exact
            pd_lb, witness = scan_degree(i, pd_lb, witness)
            i += 1
    except BudgetExceeded:
        if n - pd_lb <= depth_lb:
            return DepthResult(depth=depth_lb, pd=n - depth_lb,
                               witness=witness)
        return DepthResult(depth=None, pd=None, witness=witness,
                           indeterminate=True,
                           depth_bounds=(depth_lb, n - pd_lb))
    return DepthResult(depth=n - pd_lb, pd=pd_lb, witness=witness)


def brute_depth_oracle(ideal, field=QQ, cap=12):
    """Same contract as hochster_depth, scanning every vertex subset."""
    if ideal.nvars > cap:
        raise ValueError(f"brute-force depth capped at {cap} variables")
    if ideal.is_unit():
        raise ValueError("unit ideal: the quotient ring is zero")
    n = ideal.nvars
    if ideal.is_zero():
        return DepthResult(depth=n, pd=0, witness=None)
    pd, witness = _pd_from_subsets(ideal, range(1 << n), field)
    return DepthResult(depth=n - pd, pd=pd, witness=witness)


def depth_splitting_check(ideal, var_bits, field=QQ):
    """The depth-splitting disjunction over a list of variables.

    depth(R/I) must equal depth(R/<I, x_1..x_k>) or some
    depth(R/(<I, x_1..x_{j-1}> : x_j)); verified by computing every
    candidate depth outright. Variables already in I are treated as zero
    (their candidates are skipped).
    """
    if not var_bits:
        return True
    d = hochster_depth(ideal, field).depth
    cur = ideal
    candidates = []
    for b in var_bits:
        q = mono.colon(cur, 1 << b)
        if not q.is_unit():
            candidates.append(hochster_depth(q, field).depth)
        cur = mono.add_variables(cur, [b])
    if not cur.is_unit():
        candidates.append(hochster_depth(cur, field).depth)
    return d in candidates

"""Exact square-free monomial-ideal arithmetic over a fixed variable universe.

A monomial is a bit mask over the universe; an ideal is the divisibility
antichain of its minimal generators, canonically sorted. For a graph on n
vertices the universe has 2n variables: bit i-1 is x_i, bit n+i-1 is y_i.
"""

from ._record import Record


def xvar(i, n):
    """Bit position of x_i in the 2n-variable universe."""
    return i - 1


def yvar(i, n):
    return n + i - 1


def var_name(bit, n):
    return f"x{bit + 1}" if bit < n else f"y{bit - n + 1}"


def mask_name(mask, n):
    bits = [b for b in range(2 * n) if mask >> b & 1]
    return "*".join(var_name(b, n) for b in bits) if bits else "1"


def min_antichain(masks):
    """The inclusion-minimal masks of a collection, as a sorted tuple."""
    out = []
    for m in sorted(set(masks)):    # a subset sorts before its supersets
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


def max_antichain(masks):
    """The inclusion-maximal masks of a collection, as a sorted tuple."""
    out = []
    for m in sorted(set(masks), key=lambda m: -m.bit_count()):
        if not any(m & k == m for k in out):
            out.append(m)
    return tuple(sorted(out))


class MonomialIdeal(Record):
    """Square-free monomial ideal with canonical minimal generators."""

    _fields = __slots__ = ("nvars",
                           "gens")  # sorted antichain of masks

    @staticmethod
    def make(nvars, masks):
        masks = list(masks)
        for m in masks:
            if m >> nvars:
                raise ValueError("generator outside the variable universe")
        return MonomialIdeal(nvars, min_antichain(masks))

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == (0,)

    def contains(self, mask):
        return any(g & mask == g for g in self.gens)

    def to_text(self):
        """One generator per line as sorted variable names ('x1*y2')."""
        return "\n".join(mask_name(g, self.nvars // 2) for g in self.gens)


def colon(ideal, mask):
    """(I : m) for a square-free monomial m."""
    return MonomialIdeal.make(ideal.nvars, (g & ~mask for g in ideal.gens))


def add_variables(ideal, mask):
    """I + <v : v in mask>, the variables the bits of ``mask`` stand for."""
    extra = [1 << b for b in range(mask.bit_length()) if mask >> b & 1]
    return MonomialIdeal.make(ideal.nvars, list(ideal.gens) + extra)


def add_ideals(a, b):
    if a.nvars != b.nvars:
        raise ValueError("mixed universes")
    return MonomialIdeal.make(a.nvars, a.gens + b.gens)


def intersect(a, b):
    """I ∩ J by pairwise lcm (bitwise or) then minimalization."""
    if a.nvars != b.nvars:
        raise ValueError("mixed universes")
    if a.is_zero() or b.is_zero():
        return MonomialIdeal.make(a.nvars, ())
    return MonomialIdeal.make(a.nvars, (g | h for g in a.gens for h in b.gens))


def minimal_primes(ideal):
    """Inclusion-minimal transversals of the generator supports.

    Returned as a sorted tuple of variable masks, each reached exactly once
    (the MMCS search of Murakami and Uno, Discrete Appl. Math. 170, 2014).
    The search branches on the free variables of the first generator the
    partial cover misses; the k-th branch bans the variables of the earlier
    branches, so no cover is reached by two paths. A branch is kept only if
    every variable of the new cover still has a private generator, one
    that meets the cover in that variable alone. A variable that loses its
    last private generator never regains it as the cover grows, so every
    cover the search completes is minimal and none is missed.

    Sets of generators are bit masks over their indices: ``holders[x]``
    holds the generators x divides, ``uncov`` those the cover misses, and
    ``crit`` one mask per cover variable, its private generators. Adding x
    takes holders[x] out of each of them, and gives x the missed
    generators it divides.
    """
    if ideal.is_unit():
        raise ValueError("unit ideal has no minimal primes")
    gens = sorted(ideal.gens, key=int.bit_count)
    holders = {}
    for k, g in enumerate(gens):
        while g:
            low = g & -g
            holders[low] = holders.get(low, 0) | 1 << k
            g ^= low
    results = []

    def search(cover, banned, uncov, crit):
        if not uncov:
            results.append(cover)
            return
        # the first generator the cover misses
        free = gens[(uncov & -uncov).bit_length() - 1] & ~banned
        while free:
            low = free & -free
            hold = holders[low]
            kept = [c & ~hold for c in crit]
            if all(kept):
                kept.append(uncov & hold)
                search(cover | low, banned, uncov & ~hold, kept)
            banned |= low
            free ^= low

    search(0, 0, (1 << len(gens)) - 1, [])
    return tuple(sorted(results))


class SimplicialComplex(Record):
    """Facet-represented complex on vertices 0..nverts-1 (bit positions).

    Conventions: ``facets == ()`` is the void complex (no faces at all);
    ``facets == (0,)`` is the irrelevant complex whose only face is the
    empty set.
    """

    _fields = __slots__ = ("nverts",
                           "facets")    # antichain of masks, sorted

    @staticmethod
    def make(nverts, masks):
        return SimplicialComplex(nverts, max_antichain(masks))

    def is_void(self):
        return not self.facets

    def dim(self):
        if self.is_void():
            return None
        return max(f.bit_count() for f in self.facets) - 1

    def restrict(self, wmask):
        """Induced subcomplex on the vertex subset given by wmask."""
        if self.is_void():
            return self
        return SimplicialComplex.make(self.nverts,
                                      (f & wmask for f in self.facets))

    def link(self, sigma):
        fac = [f & ~sigma for f in self.facets if f & sigma == sigma]
        return SimplicialComplex.make(self.nverts, fac)

    def faces(self):
        """All faces as a set of masks (exponential; desk scale only)."""
        seen = set()
        frontier = set(self.facets)
        while frontier:
            seen |= frontier
            nxt = set()
            for f in frontier:
                b = f
                while b:
                    low = b & -b
                    nxt.add(f & ~low)
                    b &= b - 1
            frontier = nxt - seen
        return seen


def stanley_reisner(ideal):
    """Stanley-Reisner complex of a proper square-free ideal.

    Facets are the complements of the minimal primes. The zero ideal's one
    minimal prime, (0), gives the full simplex; the unit ideal gives the
    void complex."""
    full = (1 << ideal.nvars) - 1
    if ideal.is_unit():
        return SimplicialComplex(ideal.nvars, ())
    # the minimal primes are an antichain, so their complements are too
    return SimplicialComplex(ideal.nvars, tuple(sorted(
        full & ~p for p in minimal_primes(ideal))))

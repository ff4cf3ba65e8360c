"""The cutset lattice of a graph, unmixedness, and accessibility.

A cutset is a vertex set T where every t in T is a cut vertex of
G - (T - {t}); cutsets index the minimal primes of the binomial edge
ideal, with height n + |T| - c(T).
"""

import itertools

from ._record import Record
from .graphs import (component_masks, connected_components, is_free_vertex,
                     per_graph)

DEFAULT_CUTSET_CAP = 24


class Cutset(Record):
    _fields = __slots__ = ("vertices",
                           "c")     # component count of G minus the cutset

    def __len__(self):
        return len(self.vertices)


class UnmixednessReport(Record):
    _fields = __slots__ = ("unmixed",
                           "witness",   # first cutset violating c(T) = |T| + c
                           "dim")       # n + max_T (c(T) - |T|)


class AccessibilityReport(Record):
    # witness: an inaccessible cutset, or the unmixedness witness
    _fields = __slots__ = ("accessible", "witness")


def component_count(g, t=frozenset()):
    return len(connected_components(g, frozenset(t)))


def is_cutset(g, t):
    """True iff every element of t is essential: c(T - {t}) < c(T)."""
    t = frozenset(t)
    c_full = component_count(g, t)
    return all(component_count(g, t - {v}) < c_full for v in t)


def enumerate_cutsets(g):
    """All cutsets with their component counts, by size, then by vertices."""
    return list(_lattice(g))


@per_graph
def _lattice(g):
    """The cutsets of g as a tuple, once per graph. Subsets containing a
    free vertex are skipped wholesale (a free vertex lies in no cutset).
    Components are counted once per candidate, on vertex masks; is_cutset's
    c(T - {v}) is read from the counts of the size below."""
    if g.n > DEFAULT_CUTSET_CAP:
        raise ValueError(f"cutset enumeration capped at n={DEFAULT_CUTSET_CAP}")
    nonfree = [v for v in g.vertices() if not is_free_vertex(g, v)]
    prev = {0: len(component_masks(g))}     # c(S) by mask, S one size smaller
    out = [Cutset(frozenset(), prev[0])]
    for size in range(1, len(nonfree) + 1):
        counts = {}
        for combo in itertools.combinations(nonfree, size):
            t = 0
            for v in combo:
                t |= 1 << v
            c_full = counts[t] = len(component_masks(g, t))
            if all(prev[t ^ (1 << v)] < c_full for v in combo):
                out.append(Cutset(frozenset(combo), c_full))
        prev = counts
    return tuple(out)


def is_unmixed(g):
    """Combinatorial unmixedness: c(T) = |T| + c for every cutset T."""
    cuts = _lattice(g)
    c = cuts[0].c    # the empty cutset: the components of g
    witness = None
    excess = 0
    for t in cuts:
        excess = max(excess, t.c - len(t))
        if witness is None and t.c != len(t) + c:
            witness = t
    return UnmixednessReport(unmixed=witness is None, witness=witness,
                             dim=g.n + excess)


def is_accessible(g):
    """Unmixed, plus every nonempty cutset T has t with T - {t} a cutset."""
    unm = is_unmixed(g)
    if not unm.unmixed:
        return AccessibilityReport(False, unm.witness)
    cuts = _lattice(g)
    members = {t.vertices for t in cuts}
    for t in cuts[1:]:    # every cutset but the empty one, which comes first
        if not any(t.vertices - {v} in members for v in t.vertices):
            return AccessibilityReport(False, t)
    return AccessibilityReport(True, None)

"""The cutset lattice of a graph, unmixedness, and accessibility.

A cutset is a vertex set T where every t in T is a cut vertex of
G - (T - {t}); cutsets index the minimal primes of the binomial edge
ideal, with height n + |T| - c(T).
"""

from ._record import Record
from .graphs import (_bits, component_masks, connected_components,
                     is_free_vertex, per_graph)

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
    """The cutsets of g as a tuple, once per graph, by size and then in
    the order of itertools.combinations over the sorted vertices. A free
    vertex lies in no cutset, so only subsets T of the non-free vertices
    are candidates. They are walked depth-first from the full set, each
    child restoring one vertex of its parent, later in that order than any
    restored before; the child's components are the parent's, with those
    the restored vertex touches merged into one through it. T is a cutset
    when every t in T touches two or more components of G - T, since
    c(T - {t}) = c(T) + 1 - (the components t touches)."""
    if g.n > DEFAULT_CUTSET_CAP:
        raise ValueError(f"cutset enumeration capped at n={DEFAULT_CUTSET_CAP}")
    nbr = g.neighbor_masks()
    nonfree = [1 << v for v in g.vertices() if not is_free_vertex(g, v)]
    full = sum(nonfree)
    found = []
    # (T, the components of G - T, index of the first vertex to restore)
    stack = [(full, component_masks(g, full), 0)]
    while stack:
        t, comps, first = stack.pop()
        cutset = True
        for k in range(first, len(nonfree)):
            bit = nonfree[k]
            nb = nbr[bit.bit_length() - 1]
            merged = bit
            rest = []
            for c in comps:
                if c & nb:
                    merged |= c
                else:
                    rest.append(c)
            if len(rest) + 2 > len(comps):
                cutset = False      # it touches at most one component
            rest.append(merged)
            stack.append((t ^ bit, rest, k + 1))
        # the vertices of T before the first to restore have no child here
        b = t & (nonfree[first] - 1) if first < len(nonfree) else t
        while cutset and b:
            low = b & -b
            nb = nbr[low.bit_length() - 1] & ~t
            cutset = False
            for c in comps:
                if c & nb:
                    cutset = nb & ~c != 0   # it touches another one
                    break
            b ^= low
        if cutset:
            found.append((_bits(t), len(comps)))
    found.sort(key=lambda vc: (len(vc[0]), vc[0]))
    return tuple(Cutset(frozenset(vs), c) for vs, c in found)


@per_graph
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


@per_graph
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

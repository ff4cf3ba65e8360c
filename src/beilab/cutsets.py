"""The cutset lattice of a graph, unmixedness, and accessibility.

A cutset is a vertex set T where every t in T is a cut vertex of
G - (T - {t}); cutsets index the minimal primes of the binomial edge
ideal, with height n + |T| - c(T).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import connected_components, is_free_vertex

DEFAULT_CUTSET_CAP = 24


@dataclass(frozen=True)
class Cutset:
    vertices: frozenset
    c: int  # component count of G minus the cutset

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class UnmixednessReport:
    unmixed: bool
    witness: Cutset | None     # first cutset violating c(T) = |T| + c
    dim: int                   # n + max_T (c(T) - |T|)


@dataclass(frozen=True)
class AccessibilityReport:
    accessible: bool
    witness: Cutset | None     # inaccessible cutset, or unmixedness witness


def component_count(g, t=frozenset()):
    return len(connected_components(g, frozenset(t)))


def is_cutset(g, t):
    """True iff every element of t is essential: c(T - {t}) < c(T)."""
    t = frozenset(t)
    c_full = component_count(g, t)
    return all(component_count(g, t - {v}) < c_full for v in t)


def enumerate_cutsets(g, cap=DEFAULT_CUTSET_CAP):
    """All cutsets, each with its cached component count.

    Order: by increasing size, then lexicographically on the sorted vertex
    tuple. Subsets containing a free vertex are skipped wholesale (a free
    vertex lies in no cutset). Components are counted once per candidate;
    is_cutset's c(T - {v}) is read from the counts of the size below.
    """
    if g.n > cap:
        raise ValueError(f"cutset enumeration capped at n={cap}")
    nonfree = sorted(v for v in g.vertices() if not is_free_vertex(g, v))
    prev = {frozenset(): component_count(g)}    # c(S), S one size smaller
    out = [Cutset(frozenset(), prev[frozenset()])]
    for size in range(1, len(nonfree) + 1):
        counts = {}
        for combo in itertools.combinations(nonfree, size):
            t = frozenset(combo)
            c_full = counts[t] = component_count(g, t)
            if all(prev[t - {v}] < c_full for v in t):
                out.append(Cutset(t, c_full))
        prev = counts
    return out


def is_unmixed(g, cap=DEFAULT_CUTSET_CAP, cutsets=None):
    """Combinatorial unmixedness: c(T) = |T| + c for every cutset T."""
    cuts = cutsets if cutsets is not None else enumerate_cutsets(g, cap)
    c = component_count(g)
    witness = None
    excess = 0
    for t in cuts:
        excess = max(excess, t.c - len(t))
        if witness is None and t.c != len(t) + c:
            witness = t
    return UnmixednessReport(unmixed=witness is None, witness=witness,
                             dim=g.n + excess)


def is_accessible(g, cap=DEFAULT_CUTSET_CAP, cutsets=None):
    """Unmixed, plus every nonempty cutset T has t with T - {t} a cutset."""
    cuts = cutsets if cutsets is not None else enumerate_cutsets(g, cap)
    unm = is_unmixed(g, cap, cutsets=cuts)
    if not unm.unmixed:
        return AccessibilityReport(False, unm.witness)
    members = {t.vertices for t in cuts}
    for t in cuts:
        if not t.vertices:
            continue
        if not any(t.vertices - {v} in members for v in t.vertices):
            return AccessibilityReport(False, t)
    return AccessibilityReport(True, None)


def accessibility_chain(g, t, cap=DEFAULT_CUTSET_CAP):
    """A decreasing chain t = T_k > ... > T_0 = {} inside the cutset lattice
    with unit steps, if one exists (constructive witness for accessible
    graphs). Returns the list of cutsets or None."""
    members = {c.vertices for c in enumerate_cutsets(g, cap)}
    t = frozenset(t)
    if t not in members:
        return None
    chain = [t]
    cur = t
    while cur:
        for v in sorted(cur):
            nxt = cur - {v}
            if nxt in members:
                chain.append(nxt)
                cur = nxt
                break
        else:
            return None
    return chain

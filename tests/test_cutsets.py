import itertools
import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from beilab.cutsets import (Cutset, _lattice, component_count,
                            enumerate_cutsets, is_accessible, is_cutset,
                            is_unmixed)
from beilab.graphs import (Graph, complete_graph, cut_vertices, cycle_graph,
                           is_free_vertex, path_graph)
from beilab.corpus import connected_graphs, random_connected_graph
from conftest import random_graphs_any


def accessibility_chain(g, t):
    """A chain t = T_k > ... > T_0 = {} of cutsets of g with unit steps,
    or None if t is not a cutset or no such chain descends from it."""
    members = {c.vertices for c in enumerate_cutsets(g)}
    chain = [frozenset(t)]
    if chain[0] not in members:
        return None
    while chain[-1]:
        cur = chain[-1]
        nxt = next((cur - {v} for v in sorted(cur) if cur - {v} in members),
                   None)
        if nxt is None:
            return None
        chain.append(nxt)
    return chain


def brute_cutsets(g):
    """Literal definition: every t in T separates G minus (T minus t)."""
    out = []
    verts = sorted(g.vertices())
    for r in range(g.n + 1):
        for t in itertools.combinations(verts, r):
            ts = frozenset(t)
            if all(component_count(g, ts) > component_count(g, ts - {v})
                   for v in ts):
                out.append(ts)
    return set(out)


def components_by_sets(g, removed):
    """The number of connected classes of g minus ``removed``, by a
    depth-first walk over neighbor sets built here from the edges."""
    adj = {v: set() for v in g.vertices()}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set(removed)
    count = 0
    for s in g.vertices():
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def lattice_by_sets(g):
    """_lattice on frozensets: each candidate over the non-free vertices,
    by size and then in combination order, is a cutset when removing any
    one of its vertices leaves fewer components. The oracle of the
    bitmask lattice."""
    nonfree = sorted(v for v in g.vertices() if not is_free_vertex(g, v))
    prev = {frozenset(): components_by_sets(g, ())}
    out = [Cutset(frozenset(), prev[frozenset()])]
    for size in range(1, len(nonfree) + 1):
        counts = {}
        for combo in itertools.combinations(nonfree, size):
            t = frozenset(combo)
            c_full = counts[t] = components_by_sets(g, t)
            if all(prev[t - {v}] < c_full for v in t):
                out.append(Cutset(t, c_full))
        prev = counts
    return tuple(out)


def test_lattice_matches_the_set_lattice():
    # the same cutsets with the same counts in the same order on every
    # connected graph with n = 7 and on seeded random graphs with
    # 8 <= n <= 13, disconnected ones included; the sparse ones with
    # 11 <= n <= 13 have many non-free vertices, so the walk restores
    # vertices into components many levels deep
    rng = random.Random(88)
    graphs = list(connected_graphs(7))
    assert len(graphs) == 853
    graphs += [random_connected_graph(rng, 10, n_min=8) for _ in range(30)]
    graphs += [g for g in random_graphs_any(89, 60, n_max=10) if g.n >= 8]
    graphs += [random_connected_graph(rng, 13, n_min=11) for _ in range(4)]
    for _ in range(8):
        n = rng.randint(11, 13)
        p = rng.uniform(0.15, 0.4)
        graphs.append(Graph.from_edges(n, [
            e for e in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p]))
    assert sum(len(_lattice(g)) > 20 for g in graphs if g.n >= 11) >= 4
    for g in graphs:
        assert _lattice(g) == lattice_by_sets(g), g


def test_component_count():
    assert component_count(path_graph(4)) == 1
    assert component_count(path_graph(4), frozenset([2])) == 2
    assert component_count(cycle_graph(5), frozenset([1, 3])) == 2


def test_cutsets_small_examples():
    assert {c.vertices for c in enumerate_cutsets(path_graph(3))} == \
        {frozenset(), frozenset([2])}
    assert {c.vertices for c in enumerate_cutsets(cycle_graph(4))} == \
        {frozenset(), frozenset([1, 3]), frozenset([2, 4])}
    assert {c.vertices for c in enumerate_cutsets(complete_graph(4))} == \
        {frozenset()}


def test_enumerate_matches_brute_definition():
    rng = random.Random(11)
    connected = [random_connected_graph(rng, 7) for _ in range(40)]
    for g in connected + random_graphs_any(12, 60, n_max=7):
        got = {c.vertices for c in enumerate_cutsets(g)}
        assert got == brute_cutsets(g)
        for c in enumerate_cutsets(g):
            assert c.c == component_count(g, c.vertices)


def test_singleton_cutsets_are_cut_vertices():
    rng = random.Random(22)
    for _ in range(40):
        g = random_connected_graph(rng, 8)
        singles = {next(iter(c.vertices))
                   for c in enumerate_cutsets(g) if len(c.vertices) == 1}
        assert singles == set(cut_vertices(g))


def test_free_vertices_never_in_cutsets():
    rng = random.Random(33)
    for _ in range(40):
        g = random_connected_graph(rng, 7)
        free = {v for v in g.vertices() if is_free_vertex(g, v)}
        for c in enumerate_cutsets(g):
            assert not (c.vertices & free)


def test_unmixed_examples():
    assert is_unmixed(path_graph(5)).unmixed
    assert is_unmixed(complete_graph(5)).unmixed
    r = is_unmixed(cycle_graph(4))
    assert not r.unmixed and r.witness.vertices in \
        (frozenset([1, 3]), frozenset([2, 4]))
    assert is_unmixed(cycle_graph(3)).unmixed


def test_unmixed_dim():
    # dim S/J_G = max over cutsets of (n - |T|) + (|T| + c(T) - |T|)
    assert is_unmixed(path_graph(4)).dim == 5
    assert is_unmixed(cycle_graph(4)).dim == 5   # witness excess 1
    assert is_unmixed(complete_graph(4)).dim == 5


def test_unmixed_dim_is_brute_max():
    rng = random.Random(44)
    for _ in range(30):
        g = random_connected_graph(rng, 7)
        expect = g.n + max(component_count(g, t) - len(t)
                           for t in brute_cutsets(g))
        assert is_unmixed(g).dim == expect


def test_accessible_examples():
    assert is_accessible(path_graph(4)).accessible
    assert is_accessible(complete_graph(4)).accessible
    assert not is_accessible(cycle_graph(5)).accessible
    assert not is_accessible(cycle_graph(4)).accessible


def test_accessible_implies_unmixed():
    rng = random.Random(55)
    for _ in range(60):
        g = random_connected_graph(rng, 7)
        if is_accessible(g).accessible:
            assert is_unmixed(g).unmixed


def test_accessibility_chain():
    g = path_graph(5)
    t = frozenset([2, 4])
    chain = accessibility_chain(g, t)
    assert chain is not None
    assert chain[0] == t and chain[-1] == frozenset()
    for a, b in zip(chain, chain[1:]):
        assert len(a - b) == 1 and b < a and is_cutset(g, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_cutsets_downward_accessible_when_accessible(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, 7)
    if not is_accessible(g).accessible:
        return
    for c in enumerate_cutsets(g):
        assert accessibility_chain(g, c.vertices) is not None

"""Exhaustive and random small-graph corpora.

Non-isomorphic connected graphs are generated by orbit dedup over the full
symmetric group: cheap at desk scale because the orbit of each
representative is expanded once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, is_connected


def _edge_index(n):
    pairs = list(itertools.combinations(range(n), 2))
    return pairs, {p: k for k, p in enumerate(pairs)}


@lru_cache(maxsize=8)
def all_graphs(n):
    """One representative per isomorphism class of graphs on n vertices,
    as a tuple (memoized, so it must not be mutable)."""
    if n == 0:
        return ()
    pairs, index = _edge_index(n)
    nbits = len(pairs)
    perm_tables = []
    for perm in itertools.permutations(range(n)):
        perm_tables.append(tuple(
            index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs))
    reps = []
    seen = bytearray(1 << nbits)
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        reps.append(mask)
        for table in perm_tables:
            img = 0
            m = mask
            while m:
                low = m & -m
                img |= 1 << table[low.bit_length() - 1]
                m &= m - 1
            seen[img] = 1
    return tuple(
        Graph.from_edges(n, [(a + 1, b + 1) for k, (a, b) in enumerate(pairs)
                             if mask >> k & 1])
        for mask in reps)


def connected_graphs(n):
    """Non-isomorphic connected graphs on n vertices."""
    return [g for g in all_graphs(n) if is_connected(g)]


def connected_graphs_upto(n):
    out = []
    for k in range(1, n + 1):
        out.extend(connected_graphs(k))
    return out


def random_connected_graph(rng, n_max, n_min=2):
    """A random connected labeled graph (for seeded regression suites)."""
    while True:
        n = rng.randint(n_min, n_max)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g

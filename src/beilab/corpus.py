"""Exhaustive and random small-graph corpora.

Non-isomorphic graphs are generated by orbit dedup over the full symmetric
group: the edge masks are scanned in increasing order, and each mask no
earlier orbit holds is a class's orbit-minimal representative, whose
orbit is then marked. The orbit is read off per-chunk tables built once
per n: for each 5-bit chunk of the mask and each value of that chunk,
its images under all n! permutations, so that a representative's orbit
is one C-level ``map(operator.or_, ...)`` per chunk. The exhaustive corpus
is capped at CORPUS_CAP vertices: at n = 8 the array of seen masks alone is
268 MB, and the scan takes hours.
"""

import itertools
from functools import lru_cache
from operator import or_

from .graphs import Graph, is_connected

CORPUS_CAP = 7      # vertices; all_graphs(n) marks 2^(n choose 2) masks
_CHUNK = 5          # mask bits per orbit table


def _orbit_tables(n, pairs):
    """One table per _CHUNK-bit chunk of an edge mask: table[v] lists the
    images of the chunk value v, its bits in place, under every
    permutation of the vertices, in one order shared by all tables."""
    index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    # column k: the image bit of edge k under each permutation
    columns = [[1 << index[tuple(sorted((p[a], p[b])))] for p in perms]
               for a, b in pairs]
    tables = []
    for lo in range(0, len(pairs), _CHUNK):
        table = [[0] * len(perms)]
        for v in range(1, 1 << min(_CHUNK, len(pairs) - lo)):
            # v's images are those of v less its lowest bit, or that bit's
            table.append(list(map(or_, table[v & (v - 1)],
                                  columns[lo + (v & -v).bit_length() - 1])))
        tables.append(table)
    return tables


@lru_cache(maxsize=8)
def all_graphs(n):
    """One representative per isomorphism class of graphs on n vertices,
    as a tuple (memoized, so it must not be mutable): the orbit-minimal
    edge mask of each class, in increasing mask order. Raises ValueError
    above CORPUS_CAP vertices."""
    if n > CORPUS_CAP:
        raise ValueError(f"exhaustive corpus capped at n={CORPUS_CAP}")
    if n < 2:       # no edge, so no chunk to tabulate
        return (Graph(n),)
    pairs = list(itertools.combinations(range(n), 2))
    tables = _orbit_tables(n, pairs)
    low = (1 << _CHUNK) - 1
    reps = []
    seen = bytearray(1 << len(pairs))
    mask = 0
    while mask >= 0:
        reps.append(mask)
        orbit = tables[0][mask & low]
        for c in range(1, len(tables)):
            orbit = map(or_, orbit, tables[c][mask >> c * _CHUNK & low])
        for img in orbit:
            seen[img] = 1
        mask = seen.find(0, mask + 1)     # -1 once every mask is seen
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

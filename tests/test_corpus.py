import itertools
import pathlib
import random
import time

import networkx as nx
import pytest

from beilab.corpus import (CORPUS_CAP, all_graphs, connected_graphs,
                           connected_graphs_upto, random_connected_graph)
from beilab.graphs import emit_graph6, is_connected

DATA = pathlib.Path(__file__).parent / "data"

# OEIS A000088 (graphs) and A001349 (connected graphs) up to isomorphism
GRAPH_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_graph_counts():
    for n, expect in GRAPH_COUNTS.items():
        assert len(list(all_graphs(n))) == expect


def test_connected_counts():
    for n, expect in CONNECTED_COUNTS.items():
        assert len(list(connected_graphs(n))) == expect
        assert all(is_connected(g) for g in connected_graphs(n))


def test_all_graphs_is_not_changed_by_a_caller():
    # the memo is bounded and hands out tuples, so a caller cannot add a
    # graph that later calls would return
    gs = all_graphs(3)
    try:
        gs.append(gs[0])
    except AttributeError:
        pass
    assert len(all_graphs(3)) == GRAPH_COUNTS[3]
    assert len(connected_graphs(3)) == CONNECTED_COUNTS[3]
    assert all_graphs.cache_info().maxsize is not None


def test_connected_graphs_7_matches_golden_records():
    # connected_7.g6 is the n = 7 corpus that `beilab analyze` reads in CI
    want = (DATA / "connected_7.g6").read_text().split()
    assert [emit_graph6(g) for g in connected_graphs(7)] == want


def test_corpus_is_capped_before_any_allocation():
    # at n = 8 the mask table alone would be 268 MB
    assert CORPUS_CAP == 7
    start = time.process_time()
    with pytest.raises(ValueError, match="capped"):
        all_graphs(8)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("n", range(1, 6))
def test_representatives_are_orbit_minima_partitioning_all_masks(n):
    # the orbits of the representatives, expanded here edge by edge over
    # all n! permutations, partition the 2^(n choose 2) edge masks, and
    # each representative is its orbit's least mask, in increasing order
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    masks = [sum(1 << pairs.index(e) for e in g.edges) for g in all_graphs(n)]
    assert masks == sorted(set(masks))
    covered = set()
    for mask in masks:
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        orbit = {sum(1 << pairs.index(tuple(sorted((p[a - 1], p[b - 1]))))
                     for a, b in edges) for p in perms}
        assert min(orbit) == mask
        assert not orbit & covered
        covered |= orbit
    assert covered == set(range(1 << len(pairs)))


def test_upto_is_union():
    got = list(connected_graphs_upto(5))
    assert len(got) == sum(CONNECTED_COUNTS[k] for k in range(1, 6))


def test_representatives_pairwise_nonisomorphic():
    gs = list(all_graphs(5))
    hs = [nx.from_graph6_bytes(emit_graph6(g).encode()) for g in gs]
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if len(hs[i].edges) == len(hs[j].edges):
                assert not nx.is_isomorphic(hs[i], hs[j])


def test_random_connected_graph_is_connected_and_seeded():
    rng = random.Random(5)
    gs = [random_connected_graph(rng, 8) for _ in range(50)]
    assert all(is_connected(g) for g in gs)
    rng2 = random.Random(5)
    assert gs == [random_connected_graph(rng2, 8) for _ in range(50)]

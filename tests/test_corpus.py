import random

import networkx as nx

from beilab.corpus import (all_graphs, connected_graphs,
                           connected_graphs_upto, random_connected_graph)
from beilab.graphs import emit_graph6, is_connected


# OEIS A000088 (graphs) and A001349 (connected graphs) up to isomorphism
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


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

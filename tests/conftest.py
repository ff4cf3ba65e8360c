import itertools
import random

import pytest

from beilab.graphs import Graph, parse_edge_list
from beilab.corpus import connected_graphs, connected_graphs_upto
import beilab.lab as lab

# the n=12 running example: two blocks of girth 3 and 4 joined through a
# tree of cut vertices; decomposable at 2, 6, 8, 11
FIG_EDGES = [(1, 2), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 5),
             (4, 8), (5, 6), (6, 7), (6, 8), (8, 9), (8, 11), (9, 10),
             (10, 11), (11, 12)]


def fig_text():
    lines = [f"12 {len(FIG_EDGES)}"] + [f"{a} {b}" for a, b in FIG_EDGES]
    return "\n".join(lines) + "\n"


def random_graphs_any(seed, count, n_max=9):
    """The empty graph, then ``count`` random labeled graphs with 0..n_max
    vertices and a random edge density: disconnected graphs and isolated
    vertices included."""
    rng = random.Random(seed)
    out = [Graph(0)]
    for _ in range(count):
        n = rng.randint(0, n_max)
        p = rng.random()
        out.append(Graph.from_edges(n, [
            e for e in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p]))
    return out


@pytest.fixture(autouse=True)
def fresh_depth_memo():
    """Each test starts and ends with an empty depth memo, so a test that
    fakes or counts lab.hochster_depth neither reads nor leaves a depth
    from another test."""
    lab._depth.cache_clear()
    yield
    lab._depth.cache_clear()


@pytest.fixture(scope="session")
def fig():
    return parse_edge_list(fig_text())


@pytest.fixture(scope="session")
def corpus5():
    return list(connected_graphs_upto(5))


@pytest.fixture(scope="session")
def corpus6():
    return list(connected_graphs_upto(6))


@pytest.fixture(scope="session")
def corpus6_only():
    return list(connected_graphs(6))

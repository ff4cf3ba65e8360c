import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from beilab.graphs import (Graph, GraphParseError, INFINITY,
                           add_whisker, blocks,
                           block_with_whiskers, complete_graph,
                           connected_components, cut_vertices, cycle_graph,
                           decompose_at, delete_vertices, diameter,
                           emit_graph6, girth, glue_at, induced_cycle_lengths,
                           is_connected, is_free_vertex, parse_edge_list,
                           parse_graph6, path_graph, relabel, saturate)
from beilab.corpus import random_connected_graph
from beilab.lab import depth_JG
from conftest import random_graphs_any

import random


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges)
    return h


def random_graphs(seed, count, n_max=8):
    rng = random.Random(seed)
    return [random_connected_graph(rng, n_max) for _ in range(count)]


# ---------------------------------------------------------------------------
# parsing and serialization

def test_graph6_roundtrip_small():
    for g6, n, m in [("Bg", 3, 2), ("C~", 4, 6), ("Dhc", 5, 5)]:
        g = parse_graph6(g6)
        assert g.n == n and len(g.edges) == m
        assert emit_graph6(g) == g6


def test_graph6_header_tolerated():
    assert parse_graph6(">>graph6<<Bg") == parse_graph6("Bg")


def test_graph6_matches_networkx_oracle():
    for g in random_graphs(101, 40, n_max=9):
        g6 = emit_graph6(g)
        h = nx.from_graph6_bytes(g6.encode())
        # networkx labels 0..n-1, ours 1..n
        assert {(a + 1, b + 1) for a, b in h.edges()} == \
            {tuple(sorted(e)) for e in g.edges}
        assert parse_graph6(g6) == g


def test_graph6_large_n_size_field():
    g = path_graph(70)   # needs the 3-byte N(n) encoding
    assert parse_graph6(emit_graph6(g)) == g


def test_parse_edge_list_and_errors():
    g = parse_edge_list("3 2\n1 2\n2 3\n")
    assert g == path_graph(3)
    with pytest.raises(GraphParseError):
        parse_edge_list("3 2\n1 2\n")          # missing edge line
    with pytest.raises(GraphParseError, match="^line 2: .* out of range$"):
        parse_edge_list("3 1\n1 4\n")          # vertex out of range
    with pytest.raises(GraphParseError, match="^line 2: .* out of range$"):
        parse_edge_list("3 1\n0 2\n")
    # either order of an edge is the same edge
    assert parse_edge_list("3 2\n2 1\n3 2\n") == path_graph(3)
    with pytest.raises(GraphParseError, match="^line 3: loop at vertex 1$"):
        parse_edge_list("2 2\n1 2\n1 1\n")
    # a repeated edge, in either order, would leave fewer than m edges
    for again in ("1 2", "2 1"):
        with pytest.raises(GraphParseError,
                           match=r"^line 3: edge \(\d,\d\) repeats line 2$"):
            parse_edge_list(f"2 2\n1 2\n{again}\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("3 1\n1 x\n")          # non-integer vertex
    # a token is an ASCII decimal integer, though int() reads more
    for head, edge, line in (("3 2", "\u0661 2", 2), ("3 2", "+1 2", 2),
                             ("3 2", "1_0 2", 2), ("0_3 2", "1 2", 1),
                             ("+3 2", "1 2", 1)):
        with pytest.raises(GraphParseError,
                           match=f"^line {line}: expected integers"):
            parse_edge_list(f"{head}\n{edge}\n2 3\n")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("-1 0\n")              # negative n
    with pytest.raises(GraphParseError, match="line 1"):
        parse_edge_list("3 -1\n")              # negative m
    with pytest.raises(GraphParseError):
        parse_graph6("\x01")


def test_graph_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError):
        Graph(-1)


# ---------------------------------------------------------------------------
# connectivity, cut vertices, blocks

def test_components_against_networkx():
    for g in random_graphs(202, 40):
        for removed in [frozenset(), frozenset([1]), frozenset([1, 2])]:
            h = to_nx(g)
            h.remove_nodes_from(removed)
            parts = connected_components(g, removed)
            theirs = {frozenset(c) for c in nx.connected_components(h)}
            assert set(parts) == theirs
            assert [min(c) for c in parts] == sorted(min(c) for c in parts)


def test_neighbor_masks_match_the_neighbor_sets():
    # the neighbor sets of networkx, as neighbors() reads the masks
    for g in random_graphs_any(203, 40):
        masks = g.neighbor_masks()
        h = to_nx(g)
        assert len(masks) == g.n + 1 and masks[0] == 0
        for v in g.vertices():
            assert masks[v] == sum(1 << u for u in h.neighbors(v))
            assert g.neighbors(v) == frozenset(h.neighbors(v))
            assert g.degree(v) == h.degree(v)


def test_graph_freezes_any_edge_iterable():
    # a list, a tuple or a generator of edges is the frozen edge set of
    # the same graph, which hashes, so every memoized call takes it
    edges = [(1, 2), (2, 3)]
    for given_edges in (edges, tuple(edges), (e for e in edges)):
        g = Graph(3, given_edges)
        assert g == path_graph(3) and hash(g) == hash(path_graph(3))
        assert isinstance(g.edges, frozenset)
        assert depth_JG(g).depth == 4
    assert Graph(3, [(1, 2)]) == Graph(3, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        Graph(3, [(2, 1)])


def test_free_vertices_against_networkx():
    # v is free when its neighbors span a clique, isolated vertices too
    for g in random_graphs_any(204, 60):
        h = to_nx(g)
        for v in g.vertices():
            nb = list(h.neighbors(v))
            clique = h.subgraph(nb).number_of_edges() == \
                len(nb) * (len(nb) - 1) // 2
            assert is_free_vertex(g, v) == clique


def test_block_with_whiskers_reuses_the_block_decomposition(fig):
    blocks.cache_clear()
    bd = blocks(fig)
    for b in bd.blocks:
        block_with_whiskers(fig, b)
    # one Tarjan pass for the graph, none more per block
    assert blocks.cache_info().misses == 1


def test_cut_vertices_against_networkx():
    for g in random_graphs(303, 60) + random_graphs_any(305, 300):
        assert cut_vertices(g) == frozenset(nx.articulation_points(to_nx(g)))


def test_blocks_against_networkx():
    for g in random_graphs(404, 60) + random_graphs_any(405, 300):
        bd = blocks(g)
        h = to_nx(g)
        theirs = {frozenset(b) for b in nx.biconnected_components(h)}
        # isolated vertices have no biconnected component in networkx;
        # here each is a block of its own
        theirs |= {frozenset([v]) for v in nx.isolates(h)}
        assert set(bd.blocks) == theirs and len(bd.blocks) == len(theirs)
        assert bd.cut_vertices == cut_vertices(g)


def test_fig_cut_vertices_and_blocks(fig):
    assert cut_vertices(fig) == frozenset({2, 6, 8, 11})
    bd = blocks(fig)
    block_sets = {frozenset(b) for b in bd.blocks}
    assert frozenset({2, 3, 4, 5, 6, 8}) in block_sets
    assert frozenset({8, 9, 10, 11}) in block_sets
    assert frozenset({1, 2}) in block_sets


# ---------------------------------------------------------------------------
# girth and induced cycles

def test_girth_examples(fig):
    assert girth(path_graph(5)) == INFINITY
    assert girth(cycle_graph(7)) == 7
    assert girth(complete_graph(4)) == 3
    assert girth(fig) == 3


def test_girth_against_networkx():
    # exact on connected graphs, and on disconnected ones, isolated
    # vertices and forests
    for g in random_graphs(505, 60) + random_graphs_any(507, 300):
        assert girth(g) == nx.girth(to_nx(g)), emit_graph6(g)


def test_diameter_against_networkx(fig):
    assert diameter(Graph(1)) == 0
    assert diameter(path_graph(5)) == 4 and diameter(cycle_graph(7)) == 3
    for g in random_graphs(506, 60) + [fig]:
        assert diameter(g) == nx.diameter(to_nx(g))


def test_induced_cycles(fig):
    assert induced_cycle_lengths(cycle_graph(6)) == {6}
    assert induced_cycle_lengths(complete_graph(4)) == {3}
    assert induced_cycle_lengths(path_graph(4)) == set()
    assert induced_cycle_lengths(fig) == {3, 4}


def test_induced_cycles_against_networkx():
    for g in random_graphs(606, 30, n_max=7) + random_graphs_any(607, 60,
                                                                 n_max=7):
        h = to_nx(g)
        expect = set()
        for cyc in nx.simple_cycles(h):
            if len(cyc) >= 3 and len(h.subgraph(cyc).edges) == len(cyc):
                expect.add(len(cyc))
        assert induced_cycle_lengths(g) == expect


def test_min_induced_cycle_is_girth():
    for g in random_graphs(707, 60):
        lens = induced_cycle_lengths(g)
        assert (min(lens) if lens else INFINITY) == girth(g)


# ---------------------------------------------------------------------------
# surgery: saturation, deletion, whiskers, decomposition, gluing

def test_free_vertex_and_saturation():
    p = path_graph(4)
    assert is_free_vertex(p, 1) and not is_free_vertex(p, 2)
    gv = saturate(p, 2)
    assert (1, 3) in gv.edges
    assert saturate(gv, 2) == gv        # idempotent
    assert is_free_vertex(saturate(p, 2), 2)


def test_delete_vertices_relabels_order_preserving():
    g = cycle_graph(5)
    h, new_of = delete_vertices(g, [2])
    assert h.n == 4
    assert new_of == {1: 1, 3: 2, 4: 3, 5: 4}
    assert (1, 4) in h.edges and (2, 3) in h.edges


def test_relabel_identity_and_inverse_round_trip():
    rng = random.Random(31)
    for g in random_graphs(31, 40):
        assert relabel(g, tuple(g.vertices())) == g
        perm = list(g.vertices())
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert len(h.edges) == len(g.edges)
        assert all(h.has_edge(perm[i - 1], perm[j - 1]) for i, j in g.edges)
        inverse = [0] * g.n
        for old, new in enumerate(perm, start=1):
            inverse[new - 1] = old
        assert relabel(h, inverse) == g


@pytest.mark.parametrize("perm", [(1, 1, 3), (0, 1, 2), (2, 3, 4), (1, 2),
                                  (1, 2, 3, 4)])
def test_relabel_rejects_a_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(path_graph(3), perm)


def test_add_whisker():
    g = add_whisker(path_graph(3), 2)
    assert g.n == 4 and (2, 4) in g.edges


def test_decompose_glue_roundtrip():
    rng = random.Random(808)
    checked = 0
    for _ in range(60):
        g = random_connected_graph(rng, 8)
        for v in sorted(cut_vertices(g)):
            dec = decompose_at(g, v)
            (g1, v1), (g2, v2) = dec.sides
            # glue back: largest label of side 1 = smallest of side 2 = v
            glued = glue_at(g1, v1, g2, v2)
            assert glued == dec.graph
            assert is_connected(g1) and is_connected(g2)
            checked += 1
    assert checked > 30


def test_decompose_labels_sides():
    # after relabeling, side 1 is 1..m with v=m, side 2 is m..n with v=m
    g = parse_edge_list("5 4\n1 3\n2 3\n3 4\n3 5\n")
    dec = decompose_at(g, 3)
    (g1, v1), (g2, v2) = dec.sides
    assert (v1, v2) == (dec.m, 1)
    assert all(u <= dec.m for e in g1.edges for u in e)
    with pytest.raises(ValueError):
        decompose_at(g, 1)


def test_saturate_rejects_a_vertex_outside_1_to_n():
    # -2 once indexed the adjacency from its end and saturated vertex 3
    for v in (-2, 0, 5):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            saturate(path_graph(4), v)


def test_is_free_vertex_rejects_a_vertex_outside_1_to_n():
    # 0 once read the empty entry 0 of the adjacency and called it free
    for v in (-1, 0, 4):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            is_free_vertex(complete_graph(3), v)


def test_decompose_at_rejects_a_vertex_outside_1_to_n():
    # -2 once failed as a negative shift count, 5 as no cut vertex
    for v in (-2, 0, 5):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            decompose_at(path_graph(4), v)


def test_block_with_whiskers(fig):
    bd = blocks(fig)
    b = next(x for x in bd.blocks if frozenset(x) == frozenset({8, 9, 10, 11}))
    bw = block_with_whiskers(fig, b)
    # block (4 vertices) + one whisker per cut vertex among {8, 11}
    assert bw.n == 6
    assert len(cut_vertices(bw)) == 2
    # a union of two blocks, and a part of one, is no block
    for other in ({7, 8, 9, 10, 11}, {8, 9, 10}):
        with pytest.raises(ValueError, match="not a block"):
            block_with_whiskers(fig, other)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_whisker_tip_is_free_and_cut_base(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, 7)
    v = rng.choice(sorted(g.vertices()))
    w = add_whisker(g, v)
    assert is_free_vertex(w, w.n)
    if g.n > 1:
        assert v in cut_vertices(w)

import itertools
import random

import pytest
import sympy as sp
from sympy import groebner, symbols

from beilab.binomial_edge import (_induced, admissible_paths, ass_initial,
                                  colon_saturation_identity, initial_ideal,
                                  path_monomial, prime_ideal,
                                  setup_identities, verify_decomposition)
from beilab.graphs import (Graph, complete_graph, cut_vertices, cycle_graph,
                           glue_at, parse_edge_list, path_graph)
from beilab.monomials import mask_name, minimal_primes, xvar, yvar
from beilab.corpus import connected_graphs, random_connected_graph
from conftest import random_graphs_any


def gens_as_text(ideal, n):
    return sorted(mask_name(g, n) for g in ideal.gens)


def sympy_initial(g):
    """Independent oracle: lex Groebner basis of the edge binomials."""
    n = g.n
    xs = symbols(f"x1:{n + 1}")
    ys = symbols(f"y1:{n + 1}")
    order_vars = list(xs) + list(ys)
    gens = [xs[i - 1] * ys[j - 1] - xs[j - 1] * ys[i - 1]
            for i, j in sorted(g.edges)]
    if not gens:
        return set()
    gb = groebner(gens, *order_vars, order="lex")
    return {str(sp.LT(p, order_vars, order="lex")) for p in gb.exprs}


def our_initial_as_sympy_text(g):
    out = set()
    for gen in initial_ideal(g).gens:
        names = [mask_name(1 << b, g.n) for b in range(2 * g.n)
                 if gen >> b & 1]
        out.add("*".join(names))
    return out


def test_path_and_triangle_generators():
    assert gens_as_text(initial_ideal(path_graph(3)), 3) == \
        ["x1*y2", "x2*y3"]
    assert gens_as_text(initial_ideal(complete_graph(3)), 3) == \
        ["x1*y2", "x1*y3", "x2*y3"]
    # path 1-3-2: the long admissible path 1..3..2 contributes x1*x3*y2
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert gens_as_text(initial_ideal(g), 3) == \
        ["x1*x3*y2", "x1*y3", "x2*y3"]


def test_single_vertex_and_edgeless():
    assert initial_ideal(Graph.from_edges(1, [])).is_zero()
    assert initial_ideal(Graph.from_edges(3, [])).is_zero()


def test_admissible_paths_are_induced():
    g = cycle_graph(6)
    for p in admissible_paths(g):
        vs = p
        assert vs[0] < vs[-1]
        for k in vs[1:-1]:
            assert k < vs[0] or k > vs[-1]


def admissible_paths_by_sets(g):
    """admissible_paths on neighbor sets: each i < j grows its paths by a
    depth-first walk over sorted neighbors, testing every earlier path
    vertex for a chord. The oracle of the bitmask walk, on neighbor sets
    built here from the edges."""
    adj = {v: set() for v in g.vertices()}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    out = []

    def grow(i, j, path, members):
        last = path[-1]
        for w in sorted(adj[last]):
            if w == j:
                if len(path) == 1 or all(w not in adj[u] for u in path[:-1]):
                    out.append(tuple(path) + (j,))
                continue
            if w in members or not (w < i or w > j):
                continue
            if any(w in adj[u] for u in path[:-1]):
                continue  # chord against the growing path
            path.append(w)
            members.add(w)
            grow(i, j, path, members)
            members.discard(w)
            path.pop()

    for i, j in itertools.combinations(g.vertices(), 2):
        grow(i, j, [i], {i})
    return out


def test_admissible_paths_match_the_set_walk():
    # the same tuples in the same order on every connected graph with
    # n = 7 and on seeded random graphs with 8 <= n <= 10, disconnected
    # ones included
    rng = random.Random(77)
    graphs = list(connected_graphs(7))
    assert len(graphs) == 853
    graphs += [random_connected_graph(rng, 10, n_min=8) for _ in range(30)]
    graphs += [g for g in random_graphs_any(78, 60, n_max=10) if g.n >= 8]
    for g in graphs:
        assert admissible_paths(g) == admissible_paths_by_sets(g), g


def test_initial_ideal_matches_groebner_oracle():
    cases = [path_graph(3), path_graph(4), path_graph(5),
             cycle_graph(4), cycle_graph(5), complete_graph(4),
             Graph.from_edges(3, [(1, 3), (2, 3)])]
    rng = random.Random(99)
    cases += [random_connected_graph(rng, 5) for _ in range(15)]
    for g in cases:
        assert our_initial_as_sympy_text(g) == sympy_initial(g)


def test_minimal_primes_of_path3():
    i = initial_ideal(path_graph(3))
    got = set()
    for p in minimal_primes(i):
        got.add(frozenset(mask_name(1 << b, 3)
                          for b in range(6) if p >> b & 1))
    assert got == {frozenset({"x1", "x2"}), frozenset({"x2", "y2"}),
                   frozenset({"x1", "y3"}), frozenset({"y2", "y3"})}


def test_ass_counts():
    assert len(ass_initial(path_graph(3))) == 4
    assert len(ass_initial(complete_graph(3))) == 3
    assert len(ass_initial(cycle_graph(4))) == 6


def test_ass_initial_is_the_minimal_primes_of_the_initial_ideal(corpus6,
                                                                fig):
    # in(J_G) is square-free, so its associated primes are its minimal
    # primes: the P_T(v) fold and the transversal search must agree, K1's
    # zero ideal (one minimal prime, (0)) included
    total = 0
    for g in corpus6 + [fig]:
        masks = {p.mask for p in ass_initial(g)}
        assert masks == set(minimal_primes(initial_ideal(g))), g
        total += len(masks)
    assert total == 1861 + 376


def test_decomposition_small_corpus():
    rng = random.Random(123)
    cases = [path_graph(k) for k in (2, 3, 4)] + \
        [cycle_graph(4), cycle_graph(5), complete_graph(4)] + \
        [random_connected_graph(rng, 5) for _ in range(20)]
    for g in cases:
        assert verify_decomposition(g)


def test_colon_saturation_identity_seeded():
    rng = random.Random(2024)
    for _ in range(100):
        g = random_connected_graph(rng, 8)
        v = rng.choice(sorted(g.vertices()))
        assert colon_saturation_identity(g, v)


def test_induced_subgraph_ideal_is_made_of_its_own_paths():
    """in(J_H) for H induced on S with g's labels: the monomials of g's
    admissible paths inside S, in the same 2n variables as in(J_G)."""
    rng = random.Random(606)
    for _ in range(150):
        g = random_connected_graph(rng, 8)
        paths = admissible_paths(g)
        for _ in range(3):
            s = {v for v in g.vertices() if rng.random() < 0.6}
            h = _induced(g, s)
            assert h.n == g.n
            inside = {path_monomial(p, g.n) for p in paths
                      if set(p) <= s}
            assert set(initial_ideal(h).gens) == inside


def random_two_block_gluing(rng, n_total=9):
    """Two random connected graphs joined at a single shared cut vertex."""
    while True:
        n1 = rng.randint(2, n_total - 1)
        n2 = n_total - n1 + 1
        if n2 < 2:
            continue
        a = random_connected_graph(rng, n1, n_min=n1)
        b = random_connected_graph(rng, n2, n_min=n2)
        va = rng.choice(sorted(a.vertices()))
        g = glue_at(a, va, b, rng.choice(sorted(b.vertices())))
        cvs = sorted(cut_vertices(g))
        if not cvs:
            continue
        return g, rng.choice(cvs)


def test_setup_identities_path3():
    rep = setup_identities(path_graph(3), 2)
    assert rep.all_hold(), rep.results


def test_setup_identities_fig_at_8(fig):
    rep = setup_identities(fig, 8)
    assert rep.all_hold(), rep.results
    assert rep.memberships_ok


def test_setup_identities_seeded_gluings():
    rng = random.Random(777)
    for _ in range(50):
        g, v = random_two_block_gluing(rng, rng.randint(5, 9))
        rep = setup_identities(g, v)
        assert rep.all_hold(), (g, v, rep.results)

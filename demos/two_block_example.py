"""The 12-vertex two-block graph where the additive depth formula fails.

Two blocks glued at the cut vertex 8: a dense block on {1..8} and a
near-cycle on {8..12}. The graph is not even unmixed, its binomial edge
ideal is not Cohen-Macaulay, and the depth of the whole differs from
depth(side one whiskered) + depth(side two whiskered) - 4. A free-free
gluing of two paths serves as the control where the formula does hold.

Run: python3 demos/two_block_example.py   (about 0.2 s on a 2-core Intel Xeon)
"""

from beilab import (Graph, analyze, cut_vertices, depth_equality_check,
                    depth_question_filter, glue_at, path_graph,
                    whiskered_sides)
from beilab.cutsets import is_unmixed

EDGES = [(1, 2), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 5), (4, 8),
         (5, 6), (6, 7), (6, 8), (8, 9), (8, 11), (9, 10), (10, 11),
         (11, 12)]


def main():
    g = Graph.from_edges(12, EDGES)
    r = analyze(g)
    cuts = tuple(sorted(cut_vertices(g)))
    print(f"n={r.n}  girth={r.girth}  cut vertices={cuts}")
    print(f"unmixed={r.unmixed}  witness cutset={r.unmixed_witness}")
    print(f"cm={r.cm}  depth={r.depth}  dim={r.dim}")

    w1, w2 = whiskered_sides(g, 8)
    print(f"\nwhiskered sides at v=8: {w1.n} and {w2.n} vertices")
    rec = depth_equality_check(g, 8)
    print(f"depth equality: lhs={rec.lhs}  rhs={rec.rhs}  equal={rec.equal}")

    f = depth_question_filter(g, 8)
    print(f"open-question filter satisfied: {f.satisfied}  ({f})")

    # control: paths glued end to end (free vertex on both sides)
    ctrl = glue_at(path_graph(4), 4, path_graph(4), 1)
    crec = depth_equality_check(ctrl, 4)
    print(f"\ncontrol P_4 + P_4 glued at a free-free vertex:")
    print(f"unmixed={is_unmixed(ctrl).unmixed}  "
          f"lhs={crec.lhs}  rhs={crec.rhs}  equal={crec.equal}")
    print(f"filter satisfied: {depth_question_filter(ctrl, 4).satisfied}")


if __name__ == "__main__":
    main()

"""Labeled simple graphs and the constructions used throughout the library.

Vertices are the integers 1..n and every operation is label-sensitive,
because the monomial machinery downstream depends on the vertex order.
All graphs are immutable; operations return new graphs.
"""

import itertools
from functools import lru_cache

from ._record import Record, _set

INFINITY = float("inf")

DEFAULT_INDUCED_CYCLE_CAP = 16
# blocks, the cutset lattice and the depth, each once per graph (and
# limits); 64 holds one graph and the graphs derived from it
per_graph = lru_cache(maxsize=64)


class GraphParseError(ValueError):
    """Raised on malformed graph6 or edge-list input."""


class Graph(Record):
    """Simple graph on vertices 1..n with a canonical edge set (i < j)."""

    _fields = ("n", "edges")
    __slots__ = _fields + ("_nbr",)

    def __init__(self, n, edges=frozenset()):
        if n < 0:
            raise ValueError(f"negative vertex count n={n}")
        # frozen before the check, so that a list hashes and a generator
        # is not used up; a frozenset is returned as it is
        edges = frozenset(edges)
        for (i, j) in edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge ({i},{j}) for n={n}")
        super().__init__(n, edges)

    @staticmethod
    def from_edges(n, edge_iter):
        canon = set()
        for u, v in edge_iter:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            canon.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(canon))

    def vertices(self):
        return range(1, self.n + 1)

    def neighbor_masks(self):
        """The adjacency, as a tuple of bitmasks: entry v has bit u set for
        each neighbor u of v; entry 0 is 0, so bit v stands for vertex v.
        Built on first use, so a graph that is only checked against a size
        cap allocates no per-vertex state."""
        try:
            return self._nbr
        except AttributeError:
            nbr = [0] * (self.n + 1)
            for (i, j) in self.edges:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
            _set(self, "_nbr", tuple(nbr))
            return self._nbr

    def neighbors(self, v):
        return frozenset(_bits(self.neighbor_masks()[v]))

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, v):
        return self.neighbor_masks()[v].bit_count()


class BlockDecomposition(Record):
    _fields = __slots__ = ("blocks",        # tuple of frozensets of vertices
                           "cut_vertices")  # frozenset


class Decomposition(Record):
    """A two-sided split of a connected graph at a cut vertex.

    ``graph`` is the relabeled graph: side one occupies 1..m with the cut
    vertex at m and its side-one neighbors at m-1..m-r; side two occupies
    m..n with the side-two neighbors of m at m+1..m+s. ``sides`` is
    ((side one, m), (side two, 1)): each side as a graph of its own,
    relabeled order-preservingly, with the cut vertex's label on it.
    """

    _fields = __slots__ = ("graph", "m", "sides")


# ---------------------------------------------------------------------------
# graph6 (McKay's format)

_G6_HEADER = b">>graph6<<"


def _g6_decode_size(data, pos):
    if pos >= len(data):
        raise GraphParseError(f"byte {pos}: missing size field")
    b = data[pos]
    if b == 126:
        if pos + 1 < len(data) and data[pos + 1] == 126:
            if pos + 8 > len(data):
                raise GraphParseError(f"byte {pos}: truncated 6-byte size field")
            n = 0
            for k in range(pos + 2, pos + 8):
                n = (n << 6) | (data[k] - 63)
            return n, pos + 8
        if pos + 4 > len(data):
            raise GraphParseError(f"byte {pos}: truncated 3-byte size field")
        n = 0
        for k in range(pos + 1, pos + 4):
            n = (n << 6) | (data[k] - 63)
        return n, pos + 4
    if not (63 <= b <= 125):
        raise GraphParseError(f"byte {pos}: invalid size byte {b}")
    return b - 63, pos + 1


def parse_graph6(record):
    """Decode one graph6 record (bytes or str) into a Graph."""
    if isinstance(record, str):
        record = record.encode("ascii")
    data = record.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, pos = _g6_decode_size(data, 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphParseError(f"byte {len(data)}: truncated adjacency bits "
                              f"(need {nbytes} bytes after size field)")
    if len(data) - pos > nbytes:
        raise GraphParseError(f"byte {pos + nbytes}: trailing garbage")
    bits = []
    for k in range(pos, pos + nbytes):
        b = data[k]
        if not (63 <= b <= 126):
            raise GraphParseError(f"byte {k}: non-printable value {b}")
        v = b - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    # column-major upper triangle: x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i + 1, j + 1))
            idx += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g):
    """Encode a Graph as a canonical graph6 record (str, no header)."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= 258047:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        out = [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i + 1, j + 1) else 0)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        out.append(v + 63)
    return bytes(out).decode("ascii")


def _decimal(tok):
    """An ASCII decimal integer with an optional leading '-'. int() alone
    would also read '+1', '1_0' and digits of other scripts."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(tok)
    return int(tok)


def parse_edge_list(text):
    """Parse the 'n m' / 'u v' edge-list text format. An edge may come in
    either order; an endpoint outside 1..n, a loop or a repeated edge is an
    error that names its line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphParseError("line 1: empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError("line 1: expected 'n m'")
    try:
        n, m = _decimal(head[0]), _decimal(head[1])
    except ValueError:
        raise GraphParseError("line 1: expected integers 'n m'") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line 1: negative 'n m' ({n} {m})")
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {m} edge lines, got {len(lines) - 1}")
    line_of = {}    # canonical edge -> the line that gave it
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {k}: expected 'u v'")
        try:
            u, v = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise GraphParseError(f"line {k}: expected integers 'u v'") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"line {k}: edge ({u},{v}) out of range")
        if u == v:
            raise GraphParseError(f"line {k}: loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in line_of:
            raise GraphParseError(
                f"line {k}: edge ({u},{v}) repeats line {line_of[e]}")
        line_of[e] = k
    return Graph(n, frozenset(line_of))


# ---------------------------------------------------------------------------
# basic structure

def connected_components(g, removed=frozenset()):
    """Partition of the surviving vertices into connected classes, by
    least vertex."""
    dead = 0
    for v in removed:
        dead |= 1 << v
    return [frozenset(_bits(c)) for c in component_masks(g, dead)]


def component_masks(g, removed=0):
    """The connected classes of g minus the vertex mask ``removed``, as
    masks in order of their least vertex."""
    nbr = g.neighbor_masks()
    alive = ((1 << (g.n + 1)) - 2) & ~removed
    parts = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            frontier = _reach(nbr, frontier) & alive & ~comp
            comp |= frontier
        parts.append(comp)
        alive &= ~comp
    return parts


def _reach(nbr, mask):
    """The union of the neighbor masks of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nbr[low.bit_length() - 1]
        mask ^= low
    return out


def _bits(mask):
    """The vertices of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(g):
    return len(component_masks(g)) <= 1


def cut_vertices(g):
    """Articulation vertices: those of the one Tarjan pass in blocks()."""
    return blocks(g).cut_vertices


@per_graph
def blocks(g):
    """Blocks (maximal biconnected subgraphs) and cut vertices of any
    graph, by one depth-first pass per component (Hopcroft-Tarjan). An
    isolated vertex is a block of its own; the empty graph has none."""
    nbr = g.neighbor_masks()
    disc = [0] * (g.n + 1)      # 0 until the vertex is reached
    low = [0] * (g.n + 1)
    stack = []          # edge stack
    out_blocks = []
    cuts = set()
    timer = itertools.count(1)
    for root in g.vertices():
        if disc[root]:
            continue
        disc[root] = low[root] = next(timer)
        if not nbr[root]:
            out_blocks.append(frozenset([root]))
            continue
        root_children = 0
        # iterative DFS
        call = [(root, None, iter(_bits(nbr[root])))]
        while call:
            u, parent, it = call[-1]
            for w in it:
                if w == parent:
                    continue
                if not disc[w]:
                    stack.append((u, w))
                    disc[w] = low[w] = next(timer)
                    call.append((w, u, iter(_bits(nbr[w]))))
                    break
                if disc[w] < disc[u]:
                    stack.append((u, w))
                    low[u] = min(low[u], disc[w])
            else:
                call.pop()
                if not call:
                    continue
                p = call[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    # (p, u) and the edges above it on the stack: one block
                    comp = set()
                    while True:
                        e = stack.pop()
                        comp.update(e)
                        if e == (p, u):
                            break
                    out_blocks.append(frozenset(comp))
                    if p != root:
                        cuts.add(p)
                    else:
                        root_children += 1
        if root_children > 1:
            cuts.add(root)
    return BlockDecomposition(tuple(sorted(out_blocks, key=lambda b: sorted(b))),
                              frozenset(cuts))


def diameter(g):
    """The largest distance between two vertices of a connected graph, by
    one breadth-first search from each vertex, a layer of masks at a time;
    0 for at most one vertex."""
    nbr = g.neighbor_masks()
    best = 0
    for root in g.vertices():
        seen = frontier = 1 << root
        depth = -1
        while frontier:
            depth += 1
            frontier = _reach(nbr, frontier) & ~seen
            seen |= frontier
        best = max(best, depth)
    return best


def girth(g):
    """Length of a shortest cycle; INFINITY for forests.

    One breadth-first search from each root, a layer of masks at a time.
    An edge inside layer d closes a cycle of at most 2d + 1, and a vertex
    of layer d + 1 with two neighbors in layer d one of at most 2d + 2;
    from a root on a shortest cycle the search meets its exact length. A
    shortest cycle is automatically chordless, so this is the induced
    girth as well.
    """
    nbr = g.neighbor_masks()
    best = INFINITY
    for root in g.vertices():
        seen = layer = 1 << root
        d = 0
        while layer and 2 * d + 1 < best:
            inside = twice = nxt = 0
            for u in _bits(layer):
                out = nbr[u]
                inside |= out & layer
                out &= ~seen
                twice |= nxt & out
                nxt |= out
            if inside or twice:
                best = 2 * d + (1 if inside else 2)
                break
            seen |= nxt
            layer = nxt
            d += 1
    return best


def induced_cycle_lengths(g):
    """Set of lengths of chordless cycles, by exhaustive path search."""
    if g.n > DEFAULT_INDUCED_CYCLE_CAP:
        raise ValueError("induced-cycle enumeration capped at "
                         f"n={DEFAULT_INDUCED_CYCLE_CAP}")
    nbr = g.neighbor_masks()
    lengths = set()

    def extend(s, first, last, inner, length):
        # the chordless path s, first, ..., last has ``length`` vertices,
        # all above s; ``inner`` masks those strictly between s and last
        for w in _bits(nbr[last] & ~inner & -(2 << s)):
            if nbr[w] & inner:
                continue  # a chord to the path's interior
            if nbr[s] >> w & 1:
                # closing edge: cycle s, ..., last, w (each reported once)
                if first < w:
                    lengths.add(length + 1)
                continue  # extending past w would leave the chord {w, s}
            extend(s, first, w, inner | 1 << last, length + 1)

    for s in g.vertices():
        for first in _bits(nbr[s] & -(2 << s)):
            extend(s, first, first, 0, 2)
    return lengths


def is_free_vertex(g, v):
    """True iff the neighborhood of v induces a complete graph: each
    neighbor u of v is adjacent to every other neighbor of v."""
    nbr = g.neighbor_masks()
    nb = b = nbr[v]
    while b:
        low = b & -b
        if nb & ~low & ~nbr[low.bit_length() - 1]:
            return False
        b ^= low
    return True


# ---------------------------------------------------------------------------
# constructions

def saturate(g, v):
    """Complete the neighborhood of v (the local clique closure)."""
    nb = _bits(g.neighbor_masks()[v])
    return Graph.from_edges(g.n, list(g.edges)
                            + list(itertools.combinations(nb, 2)))


def delete_vertices(g, removed):
    """Induced subgraph on the complement, with an order-preserving relabeling.

    Returns (graph, new_of), where the dict new_of maps each surviving old
    label to its label in 1..n-|removed|.
    """
    removed = set(removed)
    survivors = [v for v in g.vertices() if v not in removed]
    new_of = {old: i for i, old in enumerate(survivors, start=1)}
    edges = [(new_of[i], new_of[j]) for i, j in g.edges
             if i not in removed and j not in removed]
    return Graph.from_edges(len(survivors), edges), new_of


def add_whisker(g, v):
    """Attach a pendant vertex n+1 at v."""
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} out of range")
    return Graph.from_edges(g.n + 1, list(g.edges) + [(v, g.n + 1)])


def relabel(g, perm):
    """The graph with each vertex i renamed perm[i-1], for a permutation
    perm of 1..n given as a tuple."""
    perm = tuple(perm)
    if sorted(perm) != list(g.vertices()):
        raise ValueError("relabeling is not a permutation of 1..n")
    return Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1])
                                  for i, j in g.edges])


def _relabel_around(g, v, side1):
    """g relabeled so that the vertex set side1, which holds v, comes first
    with v last in it and v's neighbors just below v; the other vertices
    follow with v's neighbors first. Each group keeps its order."""
    nb = g.neighbor_masks()[v]

    def group(inside, near):
        return [u for u in g.vertices()
                if u != v and (u in side1) == inside and (nb >> u & 1) == near]

    order = (group(True, False) + group(True, True) + [v]
             + group(False, True) + group(False, False))
    mapping = [0] * g.n
    for new, old in enumerate(order, start=1):
        mapping[old - 1] = new
    return relabel(g, mapping)


def decompose_at(g, v):
    """Split a connected graph at the cut vertex v into two sides.

    The lowest-labeled component of g - v (plus v) forms side one; the rest
    plus v forms side two. Returns a Decomposition whose relabeled graph
    satisfies the interval conditions on the neighbors of the cut vertex.
    Raises ValueError for a disconnected graph or when v is not a cut
    vertex.
    """
    if not is_connected(g):
        raise ValueError("decompose_at requires a connected graph")
    comps = connected_components(g, frozenset([v]))
    if len(comps) < 2:
        raise ValueError(f"{v} is not a cut vertex")
    m = len(comps[0]) + 1
    gp = _relabel_around(g, v, comps[0] | {v})
    return Decomposition(gp, m, (
        (delete_vertices(gp, range(m + 1, g.n + 1))[0], m),
        (delete_vertices(gp, range(1, m))[0], 1)))


def glue_at(g, v, h, w):
    """Disjoint union of g and h with v and w identified (label of v)."""
    if not (1 <= v <= g.n and 1 <= w <= h.n):
        raise ValueError("glue vertex out of range")
    edges = list(g.edges)
    # h's vertices other than w come after g's, order preserved
    new_of = {}
    nxt = g.n + 1
    for u in h.vertices():
        if u == w:
            new_of[u] = v
        else:
            new_of[u] = nxt
            nxt += 1
    edges += [(min(new_of[i], new_of[j]), max(new_of[i], new_of[j]))
              for i, j in h.edges]
    return Graph.from_edges(g.n + h.n - 1, edges)


def block_with_whiskers(g, block):
    """A block of g with a fresh whisker at each cut vertex of g in it, in
    place of the branches hanging there.

    ``block`` is a vertex set that must be a block of g. The block's
    vertices are relabeled order-preservingly, and the whisker tips are
    appended as the largest labels.
    """
    bd = blocks(g)
    block = frozenset(block)
    if block not in set(bd.blocks):
        raise ValueError("not a block of the graph")
    h, new_of = delete_vertices(g, set(g.vertices()) - block)
    for v in sorted(bd.cut_vertices & block):
        h = add_whisker(h, new_of[v])
    return h


# small builders used everywhere in tests

def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))

"""Finite simple graphs on {0, ..., n-1} with neighbour-tuple adjacency.

Vertex numbering conventions for the named families are part of the
interface: complete_bipartite puts the first part at 0..a-1, cycle(n) runs
around the cycle in order, odd_graph(m) orders the (m-1)-subsets
colexicographically, paley_incidence(q) numbers (x, 0) as x and (x, 1) as
q + x, and composition(g, m) numbers the copy pair (eta, i) as i*n + eta.

The neighbour tuples are the one adjacency format: a row costs its degree,
not n, and every row names vertex v by one shared int object, so a graph
with thousands of vertices holds one int per vertex besides its tuples.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from .perms import Perm


class Graph:
    """An undirected simple graph; adj[u] holds u's neighbours, increasing."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        nbrs = [[] for _ in range(n)]
        ids = list(range(n))
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            nbrs[u].append(ids[v])
            nbrs[v].append(ids[u])
        # row by row, so each list is freed as its tuple is made
        for u, row in enumerate(nbrs):
            nbrs[u] = tuple(sorted(set(row)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(nbrs))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _raw(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def neighbors(self, u: int) -> list[int]:
        return list(self.adj[u])

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v in lexicographic order."""
        return [(u, v) for u, row in enumerate(self.adj) for v in row[bisect_right(row, u):]]

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def apply_perm(self, p: Perm) -> "Graph":
        """Relabel: the image has an edge (p(u), p(v)) for each edge (u, v)."""
        if p.degree != self.n:
            raise ValueError("degree mismatch")
        adj = [()] * self.n
        im = p.images
        for u, row in enumerate(self.adj):
            adj[im[u]] = tuple(sorted(map(im.__getitem__, row)))
        return Graph._raw(self.n, tuple(adj))

    def is_automorphism(self, p: Perm) -> bool:
        """Whether p maps each u's neighbours onto p(u)'s; builds no copy."""
        im, adj = p.images, self.adj
        return p.degree == self.n and all(tuple(sorted(map(im.__getitem__, row))) == adj[im[u]]
                                          for u, row in enumerate(adj))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return "Graph(n=%d, m=%d)" % (self.n, self.num_edges)


class Matching:
    """An ordered list of vertex pairs (a_i, b_i).

    Structure only: each pair has distinct entries and no pair repeats.
    Whether the pairs are disjoint edges of a given graph is checked by
    validate_matching.
    """

    __slots__ = ("edges",)

    def __init__(self, edges: Iterable[Sequence[int]]):
        pairs = []
        seen = set()
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError("pair (%d, %d) is degenerate" % (a, b))
            key = frozenset((a, b))
            if key in seen:
                raise ValueError("pair (%d, %d) repeats" % (a, b))
            seen.add(key)
            pairs.append((int(a), int(b)))
        object.__setattr__(self, "edges", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    @classmethod
    def parse(cls, text: str) -> "Matching":
        """Parse "0-3,1-4,2-5" (0-based vertex ids)."""
        pairs = []
        for part in text.strip().split(","):
            part = part.strip()
            if not part:
                continue
            bits = part.split("-")
            if len(bits) != 2:
                raise ValueError("malformed matching entry: %r" % part)
            pairs.append((int(bits[0]), int(bits[1])))
        return cls(pairs)

    def __str__(self) -> str:
        return ",".join("%d-%d" % e for e in self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return "Matching(%s)" % self

    def vertices(self) -> list[int]:
        out = []
        for a, b in self.edges:
            out.extend((a, b))
        return sorted(out)

    def edge_keys(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.edges)

    def partner_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.edges:
            out[a] = b
            out[b] = a
        return out


def validate_matching(g: Graph, matching: Matching) -> bool:
    """Raise ValueError, naming the first bad pair, unless the pairs are
    disjoint edges of g; return whether they cover every vertex."""
    used: set[int] = set()
    for a, b in matching:
        if not (0 <= a < g.n and 0 <= b < g.n) or not g.has_edge(a, b):
            raise ValueError("matching edge (%d, %d) is not an edge of the graph" % (a, b))
        if a in used or b in used:
            raise ValueError("matching edges are not disjoint at (%d, %d)" % (a, b))
        used.update((a, b))
    return len(used) == g.n


# ---------------------------------------------------------------------------
# named families


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_bipartite(a: int, b: int) -> Graph:
    """First part is 0..a-1, second part a..a+b-1."""
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def _colex_rank(key: Sequence[int]) -> int:
    """The colex rank of a sorted subset s_0 < s_1 < ..., sum of C(s_i, i + 1)."""
    return sum(math.comb(s, i + 1) for i, s in enumerate(key))


def odd_graph(m: int) -> tuple[Graph, list[Perm]]:
    """The Kneser graph of (m-1)-subsets of a (2m-1)-set, disjointness edges.

    Vertices are the (m-1)-subsets in colexicographic order.  Also returns
    the natural generators of the symmetric group on the 2m-1 symbols acting
    on the vertices (a transposition and a full cycle).
    """
    if m < 2:
        raise ValueError("odd graph needs m >= 2")
    k = 2 * m - 1
    edges = []
    # s is adjacent to the m (m-1)-subsets of its complement
    for s in itertools.combinations(range(k), m - 1):
        u = _colex_rank(s)
        rest = [x for x in range(k) if x not in s]
        edges += ((u, _colex_rank(rest[:i] + rest[i + 1:])) for i in range(m))
    g = Graph(math.comb(k, m - 1), edges)
    sym_gens = [Perm.from_cycles(k, [(0, 1)]), Perm.from_cycles(k, [tuple(range(k))])]
    return g, [odd_graph_action(m, s) for s in sym_gens]


def odd_graph_vertex(m: int, symbols: Iterable[int]) -> int:
    """The vertex id of a given (m-1)-subset of {0, ..., 2m-2}: its colex
    rank, sum of C(s_i, i + 1) over the sorted symbols s_0 < s_1 < ..."""
    key = tuple(sorted(symbols))
    if (len(key) != m - 1 or len(set(key)) != len(key)
            or any(not 0 <= s <= 2 * m - 2 for s in key)):
        raise ValueError("not an (m-1)-subset: %r" % (key,))
    return _colex_rank(key)


def odd_graph_action(m: int, sym_perm: Perm) -> Perm:
    """The vertex permutation of odd_graph(m) induced by a permutation of
    the 2m-1 symbols."""
    k = 2 * m - 1
    if sym_perm.degree != k:
        raise ValueError("symbol permutation must have degree 2m-1")
    im = sym_perm.images
    images = [0] * math.comb(k, m - 1)
    for s in itertools.combinations(range(k), m - 1):
        images[_colex_rank(s)] = _colex_rank(sorted(im[x] for x in s))
    return Perm(images)


def hypercube(m: int) -> Graph:
    if m < 1:
        raise ValueError("hypercube needs m >= 1")
    n = 1 << m
    return Graph(n, ((x, x ^ (1 << b)) for x in range(n) for b in range(m)))


def folded_hypercube(m: int) -> Graph:
    """The m-dimensional hypercube with antipodal vertices identified.

    Representatives are the 2^(m-1) vertices with top bit clear; x ~ x ^ f for
    each single bit f < 2^(m-1) and for f = 2^(m-1) - 1, x's top bit flipped.
    """
    if m < 2:
        raise ValueError("folded hypercube needs m >= 2")
    n = 1 << (m - 1)
    flips = [1 << b for b in range(m - 1)] + [n - 1]
    return Graph(n, ((x, x ^ f) for x in range(n) for f in flips))


# Miller-Rabin to the first 13 prime bases is exact below _PRIME_LIMIT; the
# first 12 already fail at 318665857834031151167461 (Sorenson & Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; q must lie below _PRIME_LIMIT."""
    if q >= _PRIME_LIMIT:
        raise ValueError("primality is decided only below %d (got %d)" % (_PRIME_LIMIT, q))
    if q < 2:
        return False
    for b in _PRIME_BASES:
        if q % b == 0:
            return q == b
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def paley_incidence(q: int) -> Graph:
    """Bipartite graph on GF(q) x {0, 1}: (x, 0) ~ (y, 1) iff y - x is a
    square mod q, with 0 counted as a square.  (x, 0) is vertex x and
    (x, 1) is vertex q + x."""
    if not _is_prime(q):
        raise ValueError("q must be prime (got %d)" % q)
    if q % 4 != 3:
        raise ValueError("q must be congruent to 3 mod 4 (got %d)" % q)
    squares = frozenset((x * x) % q for x in range(q))
    edges = [(x, q + y) for x in range(q) for y in range(q) if (y - x) % q in squares]
    return Graph(2 * q, edges)


def paley_incidence_cliques(q: int) -> Graph:
    """paley_incidence(q) with each side completed to a clique."""
    edges = paley_incidence(q).edges()
    edges += [(s + x, s + y) for s in (0, q) for x, y in itertools.combinations(range(q), 2)]
    return Graph(2 * q, edges)


# ---------------------------------------------------------------------------
# binary constructions


def _union(g1: Graph, g2: Graph, cross: list[tuple[int, int]]) -> Graph:
    """The disjoint union, g2 shifted past g1, plus the cross edges."""
    n1 = g1.n
    return Graph(n1 + g2.n, g1.edges() + [(n1 + u, n1 + v) for u, v in g2.edges()] + cross)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides; g1 comes first."""
    n1 = g1.n
    return _union(g1, g2, [(u, n1 + v) for u in range(n1) for v in range(g2.n)])


def matching_join(g1: Graph, g2: Graph, phi: Sequence[int]) -> Graph:
    """Disjoint union plus the perfect matching i -- n1 + phi[i].

    phi must be a bijection from the vertices of g1 onto the vertices of g2.
    """
    n1 = g1.n
    if g2.n != n1 or sorted(phi) != list(range(n1)):
        raise ValueError("phi must be a bijection between equal vertex sets")
    return _union(g1, g2, [(i, n1 + phi[i]) for i in range(n1)])


def composition(g: Graph, m: int) -> Graph:
    """m independent copies of each vertex; (eta, i) ~ (theta, j) iff
    eta ~ theta in g.  (eta, i) is vertex i*n + eta."""
    if m < 1:
        raise ValueError("need m >= 1 copies")
    n = g.n
    edges = []
    for u, v in g.edges():
        for i in range(m):
            for j in range(m):
                edges.append((i * n + u, j * n + v))
    return Graph(m * n, edges)


# ---------------------------------------------------------------------------
# subdivisions


def _subdivide(g: Graph, inner) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Replace each edge (u, v), u < v, by a path through inner((u, v)) new
    vertices.  New vertices are numbered upward from n in lexicographic edge
    order, the u-side first; the map sends each subdivided edge to its
    u-side new vertex."""
    edges = []
    first = {}
    w = g.n
    for e in g.edges():
        k = inner(e)
        if k:
            first[e] = w
        path = [e[0], *range(w, w + k), e[1]]
        edges += zip(path, path[1:])
        w += k
    return Graph(w, edges), first


def subdivide_all(g: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Replace every edge by a path of length 2.

    New vertices are appended in lexicographic edge order; the returned map
    sends each original edge (u, v), u < v, to its subdivision vertex.
    """
    return _subdivide(g, lambda e: 1)


def subdivide_non_matching(g: Graph, matching: Matching) -> Graph:
    """Subdivide every edge not in the matching once; matching edges stay."""
    validate_matching(g, matching)
    keys = matching.edge_keys()
    return _subdivide(g, lambda e: 0 if frozenset(e) in keys else 1)[0]


def subdivide_matching_twice(g: Graph, matching: Matching) -> Graph:
    """Replace each matching edge (u, v) by a path u - w1 - w2 - v; other
    edges stay.  New vertex pairs are appended in lexicographic edge order,
    the u-side vertex first."""
    validate_matching(g, matching)
    keys = matching.edge_keys()
    return _subdivide(g, lambda e: 2 if frozenset(e) in keys else 0)[0]


# ---------------------------------------------------------------------------
# small utilities


def complement(g: Graph) -> Graph:
    return Graph(g.n, [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)])


def _bfs_arcs(adj: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The arcs (parent, child) of the breadth-first tree from vertex 0,
    neighbors taken in increasing order; it spans iff it has n - 1 arcs."""
    seen = [True] + [False] * (len(adj) - 1)
    arcs = []
    order = [0]
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                arcs.append((u, v))
                order.append(v)
    return arcs


def is_connected(g: Graph) -> bool:
    return len(_bfs_arcs(g.adj)) == g.n - 1


def degree_sequence(g: Graph) -> list[int]:
    return sorted((g.degree(v) for v in range(g.n)), reverse=True)


# ---------------------------------------------------------------------------
# graph6


def graph6_encode(g: Graph) -> str:
    """Standard graph6: size header then the upper triangle column-major,
    packed into 6-bit chunks offset by 63."""
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    elif n <= 258047:
        header = chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this encoder")
    # column v holds the pairs (u, v) with u < v, u increasing, so (u, v) is
    # bit v(v-1)/2 + u; each 6-bit chunk starts at its high bit
    data = [0] * ((n * (n - 1) // 2 + 5) // 6)
    for v, row in enumerate(g.adj):
        start = v * (v - 1) // 2
        for u in row:
            if u >= v:
                break
            data[(start + u) // 6] |= 32 >> (start + u) % 6
    return header + "".join(chr(63 + d) for d in data)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(not (0 <= d <= 63) for d in data):
        raise ValueError("character out of graph6 range")
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise ValueError("malformed graph6 header")
    if n < 1:
        raise ValueError("graph6 with no vertices")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 length mismatch for n=%d" % n)
    bits = "".join(format(d, "06b") for d in body)
    edges = []
    k = bits.find("1", 0, nbits)
    while k >= 0:
        v = (1 + math.isqrt(8 * k + 1)) // 2
        edges.append((k - v * (v - 1) // 2, v))
        k = bits.find("1", k + 1, nbits)
    return Graph(n, edges)

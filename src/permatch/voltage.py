"""Voltage assignments over Z_p^k and the derived regular covers.

An assignment puts a vector xi(u, v) on every arc with xi(v, u) = -xi(u, v),
zero on a chosen spanning tree.  The standard assignment gives the i-th
cotree edge (in lexicographic order, oriented low to high) the i-th standard
basis vector.  The derived cover has vertex set V x Z_p^k, with (u, h)
adjacent to (v, h + xi(u, v)); vertex (v, h) gets index num(h)*|V| + v where
num reads h as a little-endian base-p number.

Every automorphism a of the base lifts: (v, h) -> (a(v), h*M_a + c_v(a)).
One pass over the tree arcs u -> v in breadth-first order from the root
gives the shifts, c_root = 0 and c_v = c_u + xi(a(u), a(v)); row i of M_a is
then c_u + xi(a(u), a(v)) - c_v for the i-th cotree edge (u, v).  The
covering transformations are the same fiber map with a = 1, M = I and every
shift e_i.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Sequence

from .graphs import Graph, Matching, _is_prime, is_connected, validate_matching
from .matchings import check_group_action
from .perms import Perm, PermGroup, _schreier_sims

DEFAULT_COVER_CAP = 100000


def spanning_tree(g: Graph, required_edges: Iterable[tuple[int, int]] = ()) -> frozenset[tuple[int, int]]:
    """A deterministic spanning tree containing the required edges.

    The required edges are planted first (an error if they close a cycle),
    then a breadth-first scan from vertex 0 with ascending neighbor order
    attaches the remaining components.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: set[tuple[int, int]] = set()
    for u, v in required_edges:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError("required edge (%d, %d) is not an edge" % (u, v))
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("required edges contain a cycle")
        parent[rv] = ru
        tree.add((min(u, v), max(u, v)))

    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(find(v), []).append(v)

    visited = {find(0)}
    queue = deque(sorted(members[find(0)]))
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            rv = find(v)
            if rv not in visited:
                visited.add(rv)
                tree.add((min(u, v), max(u, v)))
                queue.extend(sorted(members[rv]))
    if len(tree) != g.n - 1:
        raise ValueError("graph is not connected")
    return frozenset(tree)


def _vadd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((x + y) % p for x, y in zip(a, b))


def _vneg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((-x) % p for x in a)


def _rank_mod_p(rows: list[tuple[int, ...]], k: int, p: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class VoltageAssignment:
    """An arc voltage map into Z_p^k, zero on a spanning tree."""

    def __init__(self, base: Graph, p: int, tree: Iterable[tuple[int, int]],
                 cotree_voltages: dict[tuple[int, int], tuple[int, ...]]):
        if not _is_prime(p):
            raise ValueError("p must be prime (got %d)" % p)
        tree_set = frozenset((min(u, v), max(u, v)) for u, v in tree)
        edges = base.edges()
        edge_set = set(edges)
        if not tree_set <= edge_set:
            raise ValueError("tree edges must be edges of the base graph")
        if len(tree_set) != base.n - 1:
            raise ValueError("tree has wrong size")
        cotree = [e for e in edges if e not in tree_set]
        k = len(cotree)
        vectors = []
        arc: dict[tuple[int, int], tuple[int, ...]] = {}
        zero = (0,) * k
        for u, v in tree_set:
            arc[(u, v)] = zero
            arc[(v, u)] = zero
        for e in cotree:
            vec = tuple(x % p for x in cotree_voltages[e])
            if len(vec) != k:
                raise ValueError("voltage vector has wrong length on %r" % (e,))
            vectors.append(vec)
            arc[e] = vec
            arc[(e[1], e[0])] = _vneg(vec, p)
        if _rank_mod_p(vectors, k, p) != k:
            raise ValueError("voltages do not generate Z_p^k")
        self.base = base
        self.p = p
        self.k = k
        self.tree = tree_set
        self.cotree = tuple(cotree)
        self._arc = arc
        self._tree_arcs = self._bfs_tree_arcs()

    def _bfs_tree_arcs(self) -> tuple[tuple[int, int], ...]:
        """The tree arcs (parent, child) in breadth-first order from the
        root, vertex 0, with ascending neighbor order."""
        adj: dict[int, list[int]] = {v: [] for v in range(self.base.n)}
        for u, v in self.tree:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        arcs = []
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in seen:
                    seen.add(v)
                    arcs.append((u, v))
                    queue.append(v)
        if len(seen) != self.base.n:
            raise ValueError("tree does not span the graph")
        return tuple(arcs)

    def voltage(self, u: int, v: int) -> tuple[int, ...]:
        vec = self._arc.get((u, v))
        if vec is None:
            raise ValueError("(%d, %d) is not an arc" % (u, v))
        return vec

    def walk_voltage(self, walk: Sequence[int]) -> tuple[int, ...]:
        """Sum of arc voltages along a vertex walk."""
        total = (0,) * self.k
        for u, v in zip(walk, walk[1:]):
            total = _vadd(total, self.voltage(u, v), self.p)
        return total

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "tree": sorted(list(e) for e in self.tree),
            "voltages": {"%d-%d" % e: list(self._arc[e]) for e in self.base.edges()},
        }

    @classmethod
    def from_json_dict(cls, base: Graph, data: dict) -> "VoltageAssignment":
        p = int(data["p"])
        tree = [tuple(e) for e in data["tree"]]
        tree_set = {(min(u, v), max(u, v)) for u, v in tree}
        volts = {}
        for key, vec in data["voltages"].items():
            u, v = (int(x) for x in key.split("-"))
            e = (min(u, v), max(u, v))
            vec = tuple(int(x) for x in vec)
            if e in tree_set:
                if any(vec):
                    raise ValueError("tree arc %r must carry zero voltage" % (e,))
            else:
                volts[e] = vec
        xi = cls(base, p, tree_set, volts)
        if int(data["k"]) != xi.k:
            raise ValueError("k does not match the cotree size")
        return xi


def standard_assignment(g: Graph, p: int, tree: Iterable[tuple[int, int]]) -> VoltageAssignment:
    """Basis voltages: the i-th cotree edge, low-to-high, gets e_i."""
    tree_set = frozenset((min(u, v), max(u, v)) for u, v in tree)
    cotree = [e for e in g.edges() if e not in tree_set]
    k = len(cotree)
    volts = {}
    for i, e in enumerate(cotree):
        vec = [0] * k
        vec[i] = 1
        volts[e] = tuple(vec)
    return VoltageAssignment(g, p, tree_set, volts)


class CoverGraph:
    """The derived cover of a voltage assignment, with its fiber structure;
    derived_cover builds it."""

    def __init__(self, assignment: VoltageAssignment, max_vertices: int = DEFAULT_COVER_CAP):
        base = assignment.base
        p, k = assignment.p, assignment.k
        n_cover = base.n * p ** k
        if n_cover > max_vertices:
            raise ValueError("cover would have %d vertices (cap %d)" % (n_cover, max_vertices))
        self.assignment = assignment
        self.base = base
        self.p = p
        self.k = k
        vectors = [tuple(h) for h in itertools.product(range(p), repeat=k)]
        vectors.sort(key=lambda h: sum(x * p ** i for i, x in enumerate(h)))
        self.vectors = tuple(vectors)  # vectors[num] is the fiber label
        self._num = {h: i for i, h in enumerate(vectors)}
        n = base.n
        edges = []
        for u, v in base.edges():
            vec = assignment.voltage(u, v)
            for num_h, h in enumerate(vectors):
                h2 = self._num[_vadd(h, vec, p)]
                edges.append((num_h * n + u, h2 * n + v))
        self.graph = Graph(n_cover, edges)
        for idx in range(n_cover):
            if self.graph.degree(idx) != base.degree(idx % n):
                raise AssertionError("cover is not a local bijection at %d" % idx)
        if not is_connected(self.graph):
            raise AssertionError("derived cover is disconnected")

    def vertex_id(self, v: int, h: tuple[int, ...]) -> int:
        return self._num[tuple(x % self.p for x in h)] * self.base.n + v

    def fiber_of(self, idx: int) -> tuple[int, tuple[int, ...]]:
        """(base vertex, fiber vector) of a cover vertex."""
        return idx % self.base.n, self.vectors[idx // self.base.n]

    def fiber(self, v: int) -> list[int]:
        return [num * self.base.n + v for num in range(len(self.vectors))]

    def fiber_partition(self) -> list[list[int]]:
        return [self.fiber(v) for v in range(self.base.n)]

    def to_fiber_json(self) -> dict:
        return {str(idx): [idx % self.base.n, list(self.vectors[idx // self.base.n])]
                for idx in range(self.graph.n)}


def derived_cover(assignment: VoltageAssignment,
                  max_vertices: int = DEFAULT_COVER_CAP) -> CoverGraph:
    return CoverGraph(assignment, max_vertices)


def _fiber_map(cover: CoverGraph, images: Sequence[int],
               products: Sequence[tuple[int, ...]], shifts: Sequence[tuple[int, ...]]) -> Perm:
    """The cover map (v, h) -> (images[v], h*M + shifts[v]), where M is given
    by its action on every fiber label, products[num] = vectors[num]*M.
    Vertices sharing a shift share their image fiber, so each h costs one
    fiber lookup per distinct shift.

    Not checked to be a permutation: on a cover without isolated vertices,
    is_automorphism rejects any map that is not one.
    """
    n, p = cover.base.n, cover.p
    num = cover._num
    by_shift: dict[tuple[int, ...], list[int]] = {}
    for v, s in enumerate(shifts):
        by_shift.setdefault(s, []).append(v)
    groups = [(s, vs, [images[v] for v in vs]) for s, vs in by_shift.items()]
    out = [0] * cover.graph.n
    for num_h, hm in enumerate(products):
        offset = num_h * n
        for s, sources, targets in groups:
            fiber = num[tuple((x + y) % p for x, y in zip(hm, s))] * n
            for v, w in zip(sources, targets):
                out[offset + v] = fiber + w
    return Perm._raw(tuple(out))


def lift_automorphism(cover: CoverGraph, a: Perm) -> Perm:
    """The lift of a base automorphism fixing the zero vector over the root:
    (v, h) maps to (a(v), h*M_a + c_v(a))."""
    xi = cover.assignment
    base = cover.base
    if not base.is_automorphism(a):
        raise ValueError("not an automorphism of the base graph")
    p, im, volt = xi.p, a.images, xi.voltage
    shifts = [(0,) * xi.k] * base.n
    for u, v in xi._tree_arcs:
        shifts[v] = _vadd(shifts[u], volt(im[u], im[v]), p)
    # h*M_a for every h, a coordinate at a time: the first varies fastest
    products = [(0,) * xi.k]
    for u, v in xi.cotree:
        row = [(x + y - z) % p for x, y, z in zip(shifts[u], volt(im[u], im[v]), shifts[v])]
        products = [tuple((x + c * y) % p for x, y in zip(t, row))
                    for c in range(p) for t in products]
    lift = _fiber_map(cover, im, products, shifts)
    if not cover.graph.is_automorphism(lift):
        raise AssertionError("lift is not an automorphism of the cover")
    n = base.n
    for idx in range(cover.graph.n):
        if lift.images[idx] % n != im[idx % n]:
            raise AssertionError("lift does not commute with the projection")
    return lift


def covering_transformations(cover: CoverGraph) -> PermGroup:
    """The group of fiber translations (v, h) -> (v, h + t).

    The translations act regularly on each fiber, so the stabilizer of
    vertex 0 is trivial: its chain is one level, the fiber of vertex 0 on
    base (0,), and no Schreier-Sims runs.
    """
    return PermGroup._from_strong_generators((0,), _translations(cover), cover.graph.n)


def _translations(cover: CoverGraph) -> list[Perm]:
    """The translations by each basis vector, in basis order."""
    n, k = cover.base.n, cover.k
    eye = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return [_fiber_map(cover, range(n), cover.vectors, [e] * n) for e in eye]


def lift_group(cover: CoverGraph, base_group: PermGroup) -> PermGroup:
    """The group generated by lifts of the base generators together with the
    covering transformations; its order is |base group| * p^k.  No larger
    group projects onto the base group with kernel in the p^k covering
    transformations, so Schreier-Sims stops at that order."""
    check_group_action(cover.base, base_group)
    gens = [lift_automorphism(cover, a) for a in base_group.generators]
    gens.extend(_translations(cover))
    expected = base_group.order() * cover.p ** cover.k
    lifted = PermGroup._from_chain(gens, cover.graph.n, _schreier_sims([], gens, expected))
    if lifted.order() != expected:
        raise AssertionError("lifted group has order %d, expected %d"
                             % (lifted.order(), expected))
    return lifted


def lift_matching_in_tree(cover: CoverGraph, matching: Matching) -> Matching:
    """Lift a base matching contained in the spanning tree to the zero fiber.

    Tree edges carry zero voltage, so {(a, 0), (b, 0)} is an edge of the
    cover for every matching edge (a, b); with the zero fiber first in the
    numbering, the lifted matching reuses the base vertex ids.
    """
    tree = cover.assignment.tree
    for a, b in matching:
        if (min(a, b), max(a, b)) not in tree:
            raise ValueError("matching edge (%d, %d) is not in the tree" % (a, b))
    lifted = Matching(matching.edges)
    validate_matching(cover.graph, lifted)
    return lifted


def cycle_system_matching(cover: CoverGraph, alpha: int, cycles) -> Matching:
    """A matching over the star of alpha built from distinguished cycles.

    cycles must cover each 2-path (beta_i, alpha, beta_j) through alpha by a
    unique cycle C_ij.  With h_i the sum over j != i of the voltage of C_ij
    traversed from alpha toward beta_i, the matching joins (alpha, h_i) to
    (beta_i, xi(alpha, beta_i) + h_i) for each neighbor beta_i of alpha.
    """
    if hasattr(cycles, "cycles"):
        cycles = cycles.cycles
    xi = cover.assignment
    base = cover.base
    if not (0 <= alpha < base.n):
        raise ValueError("alpha out of range")
    nbrs = base.neighbors(alpha)

    def oriented_walk(bi: int, bj: int) -> tuple[int, ...]:
        hits = []
        for cyc in cycles:
            if alpha not in cyc:
                continue
            t = cyc.index(alpha)
            around = {cyc[t - 1], cyc[(t + 1) % len(cyc)]}
            if around == {bi, bj}:
                hits.append((cyc, t))
        if len(hits) != 1:
            raise ValueError("2-path (%d, %d, %d) lies in %d cycles, need exactly 1"
                             % (bi, alpha, bj, len(hits)))
        cyc, t = hits[0]
        seq = cyc[t:] + cyc[:t]
        if seq[1] != bi:
            seq = (seq[0],) + tuple(reversed(seq[1:]))
        assert seq[0] == alpha and seq[1] == bi
        return seq + (alpha,)

    pairs = []
    for bi in nbrs:
        h = (0,) * xi.k
        for bj in nbrs:
            if bj == bi:
                continue
            h = _vadd(h, xi.walk_voltage(oriented_walk(bi, bj)), xi.p)
        shift = _vadd(h, xi.voltage(alpha, bi), xi.p)
        pairs.append((cover.vertex_id(alpha, h), cover.vertex_id(bi, shift)))
    lifted = Matching(pairs)
    validate_matching(cover.graph, lifted)
    return lifted

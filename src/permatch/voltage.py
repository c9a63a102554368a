"""Voltage assignments over Z_p^k and the derived regular covers.

An assignment puts a vector xi(u, v) on every arc with xi(v, u) = -xi(u, v),
zero on a chosen spanning tree.  The standard assignment gives the i-th
cotree edge (in lexicographic order, oriented low to high) the i-th standard
basis vector.  The derived cover has vertex set V x Z_p^k, with (u, h)
adjacent to (v, h + xi(u, v)); vertex (v, h) gets index num(h)*|V| + v where
num reads h as a little-endian base-p number.

Every automorphism a of the base lifts: (v, h) -> (a(v), h*M_a + c_v(a)).
One pass over the tree arcs u -> v in breadth-first order from the root
gives the shifts, c_root = 0 and c_v = c_u + xi(a(u), a(v)).  Then
M_a = V^-1 R_a, where row i of V is the voltage of the i-th cotree edge
(u, v) and row i of R_a is c_u + xi(a(u), a(v)) - c_v; the standard
assignment has V = I.  The covering transformations are the same fiber map
with a = 1, M = I and every shift e_i.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .autiso import check_group_action
from .graphs import Graph, Matching, _bfs_arcs, _is_prime, is_connected, validate_matching
from .perms import Perm, PermGroup, _find, _schreier_sims
from .polygonal import CycleSystem

DEFAULT_COVER_CAP = 100000


def spanning_tree(g: Graph, required_edges: Iterable[tuple[int, int]] = ()) -> frozenset[tuple[int, int]]:
    """A deterministic spanning tree containing the required edges.

    The required edges are planted first (an error if they close a cycle),
    then a breadth-first scan from vertex 0 with ascending neighbor order
    attaches the remaining components.
    """
    parent = list(range(g.n))

    tree: set[tuple[int, int]] = set()
    for u, v in required_edges:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError("required edge (%d, %d) is not an edge" % (u, v))
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise ValueError("required edges contain a cycle")
        parent[rv] = ru
        tree.add((min(u, v), max(u, v)))

    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(_find(parent, v), []).append(v)

    visited = {_find(parent, 0)}
    queue = list(members[_find(parent, 0)])
    for u in queue:
        for v in g.neighbors(u):
            rv = _find(parent, v)
            if rv not in visited:
                visited.add(rv)
                tree.add((min(u, v), max(u, v)))
                queue.extend(members[rv])
    if len(tree) != g.n - 1:
        raise ValueError("graph is not connected")
    return frozenset(tree)


def _vadd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((x + y) % p for x, y in zip(a, b))


def _vneg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((-x) % p for x in a)


def _inverse_mod_p(rows: Sequence[tuple[int, ...]], p: int) -> list[tuple[int, ...]]:
    """The inverse over Z_p of the matrix V with these rows, the cotree
    voltages (entries in 0..p-1), by Gauss-Jordan elimination."""
    k = len(rows)
    mat = [list(r) + list(e) for r, e in zip(rows, _eye(k))]
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col]), None)
        if piv is None:
            raise ValueError("voltages do not generate Z_p^k")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = pow(mat[col][col], -1, p)
        mat[col] = [(x * inv) % p for x in mat[col]]
        for r in range(k):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[col])]
    return [tuple(r[k:]) for r in mat]


class VoltageAssignment:
    """An arc voltage map into Z_p^k, zero on a spanning tree.

    cotree_voltages lists the vectors of the cotree edges (u, v), u < v, in
    cotree order (lexicographic edge order); they must form a basis of Z_p^k.
    """

    def __init__(self, base: Graph, p: int, tree: Iterable[tuple[int, int]],
                 cotree_voltages: Sequence[tuple[int, ...]]):
        if not _is_prime(p):
            raise ValueError("p must be prime (got %d)" % p)
        tree_set = frozenset((min(u, v), max(u, v)) for u, v in tree)
        edges = base.edges()
        if not tree_set <= set(edges):
            raise ValueError("tree edges must be edges of the base graph")
        if len(tree_set) != base.n - 1:
            raise ValueError("tree has wrong size")
        cotree = [e for e in edges if e not in tree_set]
        k = len(cotree)
        if len(cotree_voltages) != k:
            raise ValueError("need %d cotree voltages (got %d)" % (k, len(cotree_voltages)))
        vectors = []
        arc: dict[tuple[int, int], tuple[int, ...]] = {}
        zero = (0,) * k
        for u, v in tree_set:
            arc[(u, v)] = zero
            arc[(v, u)] = zero
        for e, given in zip(cotree, cotree_voltages):
            vec = tuple(x % p for x in given)
            if len(vec) != k:
                raise ValueError("voltage vector has wrong length on %r" % (e,))
            vectors.append(vec)
            arc[e] = vec
            arc[(e[1], e[0])] = _vneg(vec, p)
        self._inverse = _inverse_mod_p(vectors, p)  # V^-1
        self.base = base
        self.p = p
        self.k = k
        self.tree = tree_set
        self.cotree = tuple(cotree)
        self._arc = arc
        # the tree arcs (parent, child) in breadth-first order from vertex 0
        self._tree_arcs = _bfs_arcs(Graph(base.n, tree_set).adj)
        if len(self._tree_arcs) != base.n - 1:
            raise ValueError("tree does not span the graph")

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


def standard_assignment(g: Graph, p: int, tree: Iterable[tuple[int, int]]) -> VoltageAssignment:
    """Basis voltages: the i-th cotree edge, low-to-high, gets e_i."""
    return VoltageAssignment(g, p, tree, _eye(g.num_edges - g.n + 1))


def _eye(k: int) -> list[tuple[int, ...]]:
    """The standard basis e_0, ..., e_{k-1} of Z^k."""
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


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
        # vectors[num] is the fiber label h with num = sum of h_i * p^i
        self.vectors = tuple(h[::-1] for h in itertools.product(range(p), repeat=k))
        self._num = {h: i for i, h in enumerate(self.vectors)}
        n = base.n
        edges = []
        for u, v in base.edges():
            vec = assignment.voltage(u, v)
            for num_h, h in enumerate(self.vectors):
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

    def fiber_partition(self) -> list[list[int]]:
        """The fibers as vertex lists, fiber v (over base vertex v) at index v."""
        n = self.base.n
        return [list(range(v, self.graph.n, n)) for v in range(n)]


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
    if not cover.base.is_automorphism(a):
        raise ValueError("not an automorphism of the base graph")
    lift = _lift(cover, a)
    if not cover.graph.is_automorphism(lift):
        raise AssertionError("lift is not an automorphism of the cover")
    n, im = cover.base.n, a.images
    for idx in range(cover.graph.n):
        if lift.images[idx] % n != im[idx % n]:
            raise AssertionError("lift does not commute with the projection")
    return lift


def _lift(cover: CoverGraph, a: Perm) -> Perm:
    """lift_automorphism without its checks."""
    xi = cover.assignment
    p, im, volt = xi.p, a.images, xi.voltage
    shifts = [(0,) * xi.k] * cover.base.n
    for u, v in xi._tree_arcs:
        shifts[v] = _vadd(shifts[u], volt(im[u], im[v]), p)
    r = [[(x + y - z) % p for x, y, z in zip(shifts[u], volt(im[u], im[v]), shifts[v])]
         for u, v in xi.cotree]
    # h*M_a for every h, a row of M_a = V^-1 R_a at a time: the first varies fastest
    products = [(0,) * xi.k]
    for inv_row in xi._inverse:
        row = [sum(c * y for c, y in zip(inv_row, col)) % p for col in zip(*r)]
        products = [tuple((x + c * y) % p for x, y in zip(t, row))
                    for c in range(p) for t in products]
    return _fiber_map(cover, im, products, shifts)


def covering_transformations(cover: CoverGraph) -> PermGroup:
    """The group of fiber translations (v, h) -> (v, h + t).

    The translations act regularly on each fiber, so the stabilizer of
    vertex 0 is trivial: its chain is one level, the fiber of vertex 0 on
    base (0,), and no Schreier-Sims runs.
    """
    return PermGroup._from_strong_generators((0,), _translations(cover), cover.graph.n)


def _translations(cover: CoverGraph) -> list[Perm]:
    """The translations by each basis vector, in basis order."""
    n = cover.base.n
    return [_fiber_map(cover, range(n), cover.vectors, [e] * n) for e in _eye(cover.k)]


def lift_group(cover: CoverGraph, base_group: PermGroup) -> PermGroup:
    """The group generated by lifts of the base generators together with the
    covering transformations; its order is |base group| * p^k.  No larger
    group projects onto the base group with kernel in the p^k covering
    transformations, so Schreier-Sims stops at that order."""
    check_group_action(cover.base, base_group)
    gens = [_lift(cover, a) for a in base_group.generators]
    gens.extend(_translations(cover))
    expected = base_group.order() * cover.p ** cover.k
    lifted = PermGroup._from_chain(gens, cover.graph.n, _schreier_sims([], gens, expected))
    try:
        check_group_action(cover.graph, lifted)
    except ValueError as exc:
        raise AssertionError("lift is not an automorphism of the cover") from exc
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


def cycle_system_matching(cover: CoverGraph, alpha: int, system: CycleSystem) -> Matching:
    """A matching over the star of alpha built from distinguished cycles.

    The system's cycles must cover each 2-path (beta_i, alpha, beta_j)
    through alpha by a unique cycle C_ij.  With h_i the sum over j != i of
    the voltage of C_ij traversed from alpha toward beta_i, the matching
    joins (alpha, h_i) to (beta_i, xi(alpha, beta_i) + h_i) for each
    neighbor beta_i of alpha.  C_ij traversed the other way has the
    opposite voltage, so one walk of each cycle serves both ends.
    """
    xi = cover.assignment
    p = xi.p
    if not (0 <= alpha < cover.base.n):
        raise ValueError("alpha out of range")
    # each cycle through alpha, rotated to start there, under the pair of
    # its vertices on either side of alpha
    through: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for cyc in system.cycles:
        if alpha in cyc:
            t = cyc.index(alpha)
            around = frozenset((cyc[t - 1], cyc[(t + 1) % len(cyc)]))
            through.setdefault(around, []).append(tuple(cyc[t:]) + tuple(cyc[:t]))
    nbrs = cover.base.neighbors(alpha)
    h = {b: (0,) * xi.k for b in nbrs}
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            hits = through.get(frozenset((x, y)), ())
            if len(hits) != 1:
                raise ValueError("2-path (%d, %d, %d) lies in %d cycles, need exactly 1"
                                 % (x, alpha, y, len(hits)))
            seq = hits[0] if hits[0][1] == x else (alpha,) + hits[0][:0:-1]
            w = xi.walk_voltage(seq + (alpha,))
            h[x] = _vadd(h[x], w, p)
            h[y] = _vadd(h[y], _vneg(w, p), p)
    lifted = Matching((cover.vertex_id(alpha, h[b]),
                       cover.vertex_id(b, _vadd(h[b], xi.voltage(alpha, b), p))) for b in nbrs)
    validate_matching(cover.graph, lifted)
    return lifted

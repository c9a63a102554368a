"""Graph automorphisms, isomorphism testing and canonical forms.

Equitable-partition refinement (splitting cells by neighbor counts into
every cell) drives a backtracking search over individualized vertices
(McKay 1981, Practical graph isomorphism).  A leaf is a discrete partition,
read as a labeling; its key is the relabeled graph's adjacency rows as a
tuple, and the canonical form is the leaf with the least key.  A leaf whose
key equals the first leaf's gives an automorphism, and the search jumps back
to the node where it left the first path: the subtree it abandons is that
automorphism's image of the first path's fully explored subtree, so the set
of leaf keys, and the canonical form, is unchanged.  A node skips a child in
the orbit (perms.orbits) of an explored sibling under the automorphisms
found so far that fix the node's prefix.  Each automorphism found joins two
orbits of those found before it, so there are at most n - 1.

The automorphisms found are a strong generating set relative to the first
path (McKay 1981), so automorphism_group reads its chain off the search:
at the first-path node of depth i, each child in the Aut_{path[:i]}-orbit
of path[i] is explored, which records an automorphism fixing path[:i] and
carrying path[i] onto it, or pruned by one; only the identity fixes the path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import Graph, graph6_encode
from .perms import Perm, PermGroup, orbits


def _refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by (neighbor count into each cell) until equitable."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells: list[list[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in c:
                rv = rows[v]
                sig = tuple((rv & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        if not changed:
            return new_cells
        cells = new_cells


class _Search:
    def __init__(self, g: Graph):
        self.g = g
        self.autos: list[Perm] = []
        self.path: tuple[int, ...] = ()  # individualized vertices of the first leaf
        self.first: tuple[tuple[int, ...], Perm] | None = None  # rows, labeling
        self.best: tuple[tuple[int, ...], Perm] | None = None

    def run(self) -> None:
        self._recurse([list(range(self.g.n))], ())

    def _recurse(self, cells: list[list[int]], prefix: tuple[int, ...]) -> int:
        """Search below prefix; return the depth at which the search resumes."""
        cells = _refine(self.g.rows, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            return self._leaf(cells, prefix)
        fixers: list[Perm] = []
        tested = 0
        explored: list[int] = []
        pruned: set[int] = set()
        for v in sorted(cells[target]):
            if v in pruned:
                continue
            child = cells[:target] + [[v], [x for x in cells[target] if x != v]] + cells[target + 1:]
            depth = self._recurse(child, prefix + (v,))
            if depth < len(prefix):
                return depth
            explored.append(v)
            fixers += [a for a in self.autos[tested:] if all(a.images[p] == p for p in prefix)]
            tested = len(self.autos)
            if fixers:
                pruned = {x for tree in orbits(fixers, explored) for x in tree}
        return len(prefix)

    def _leaf(self, cells: list[list[int]], prefix: tuple[int, ...]) -> int:
        lab = [0] * self.g.n  # vertex -> position
        for pos, (v,) in enumerate(cells):
            lab[v] = pos
        labeling = Perm._raw(tuple(lab))
        rows = self.g.apply_perm(labeling).rows
        if self.first is None:
            self.path, self.first, self.best = prefix, (rows, labeling), (rows, labeling)
        elif rows == self.first[0]:
            # an automorphism carrying the first leaf here, and so the first
            # path's subtree below the divergence onto the one holding this leaf
            self.autos.append(self.first[1] * labeling.inverse())
            return next(i for i, (a, b) in enumerate(zip(prefix, self.path)) if a != b)
        elif rows < self.best[0]:
            self.best = (rows, labeling)
        return len(prefix)


@functools.lru_cache(maxsize=256)
def _search_graph(g: Graph) -> _Search:
    s = _Search(g)
    s.run()
    return s


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical labeling (vertex -> canonical position) and the graph6
    text of the relabeled graph.  Isomorphic graphs get equal graph6 texts."""

    labeling: Perm
    graph6: str


def automorphism_group(g: Graph) -> PermGroup:
    """Aut(g), generators verified and sifted through its read-off chain."""
    s = _search_graph(g)
    group = PermGroup._from_strong_generators(s.path, s.autos, g.n)
    for a in s.autos:
        if not g.is_automorphism(a):
            raise AssertionError("search produced a non-automorphism")
        if a not in group:
            raise AssertionError("an automorphism does not sift through the chain")
    return group


def canonical_form(g: Graph) -> CanonicalForm:
    s = _search_graph(g)
    assert s.best is not None
    rows, labeling = s.best
    return CanonicalForm(labeling, graph6_encode(Graph._raw(g.n, rows)))


def canonical_graph6(g: Graph) -> str:
    return canonical_form(g).graph6


def are_isomorphic(g1: Graph, g2: Graph) -> Perm | None:
    """An isomorphism from g1 onto g2 as a vertex map, or None.

    Cheap invariants first, then canonical forms; any witness returned has
    been verified edge-by-edge.
    """
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if sorted(g1.rows[v].bit_count() for v in range(g1.n)) != \
       sorted(g2.rows[v].bit_count() for v in range(g2.n)):
        return None
    c1 = canonical_form(g1)
    c2 = canonical_form(g2)
    if c1.graph6 != c2.graph6:
        return None
    inv2 = c2.labeling.inverse()
    sigma = c1.labeling * inv2
    if g1.apply_perm(sigma) != g2:
        raise AssertionError("canonical forms agree but witness failed")
    return sigma

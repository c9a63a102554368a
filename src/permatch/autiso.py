"""Graph automorphisms, isomorphism testing and canonical forms.

Partition refinement drives a backtracking search over individualized
vertices (McKay 1981, Practical graph isomorphism).  One ordered partition
lives for the whole search (_Partition): the vertices in position order,
the cell of each vertex, and a trail of the splits made, so that stepping
back to a node undoes the splits below it instead of copying its cells.

Refinement pops a splitter cell from a queue (McKay 1981, section 2;
Junttila & Kaski 2007, Engineering an efficient canonical labeling tool).
It counts each vertex's neighbours in the splitter only, visits only the
cells that hold such a neighbour, and splits each of them into parts
ordered by count.  Every part but the first largest joins the queue, or
every part when the split cell was itself waiting.  The root queues the
unit cell and a child only its new singleton, so each node's partition is
the coarsest equitable one finer than where it started.  Splits depend on
positions and counts only, never on vertex labels, so relabeling the graph
relabels the whole search tree.

The search is a loop over a stack of nodes, so Python's recursion limit
does not bound its depth.  A node's children individualize each vertex of
its first non-singleton cell: the first at once, the rest from a generator
that the loop resumes after each undo to the node.  A leaf is a discrete
partition, read as a labeling; its key lists each position's neighbour
positions in decreasing order (so the highest differing neighbour decides,
as in bitmask rows), and the canonical form is the leaf with the least key.
A leaf whose key equals the first leaf's gives an automorphism, and the
search jumps back to the node where it left the first path: the subtree it
abandons is that automorphism's image of the first path's fully explored
subtree, so the set of leaf keys, and the canonical form, is unchanged.

A node skips a child in the orbit of an explored sibling under the
automorphisms found that fix the node's prefix, and reads those orbits off
one union-find.  Every automorphism found so far fixes the prefix of each
open first-path node, so those nodes share one, merged as each automorphism
arrives.  Any other node builds its own from the automorphisms that fix its
prefix, once, when its second child is due; it meets no new one, since an
automorphism found below it jumps back above it.  Each automorphism found
joins two orbits of those found before it, so there are at most n - 1.

The automorphisms found are a strong generating set relative to the first
path (McKay 1981), so automorphism_group reads its chain off the search:
at the first-path node of depth i, each child in the Aut_{path[:i]}-orbit
of path[i] is explored, which records an automorphism fixing path[:i] and
carrying path[i] onto it, or pruned by one; only the identity fixes the path.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, degree_sequence, graph6_encode
from .perms import Perm, PermGroup, _find


class _Partition:
    """An ordered partition of the vertices, refined in place and undone by
    its trail.

    perm lists the vertices in position order and pos is its inverse.  A
    cell is a run of positions, named by its first: cell_of[v] is the cell
    holding v and size[c] the length of cell c.  trail lists (c, parent)
    for each cell c split off a parent cell, in the order made.
    """

    __slots__ = ("adj", "perm", "pos", "cell_of", "size", "trail")

    def __init__(self, g: Graph):
        n = g.n
        self.adj = g.adj
        self.perm = list(range(n))
        self.pos = list(range(n))
        self.cell_of = [0] * n
        self.size = [n] + [0] * (n - 1)
        self.trail: list[tuple[int, int]] = []

    def individualize(self, v: int) -> int:
        """Split v off the end of its cell; return its singleton cell."""
        perm, pos = self.perm, self.pos
        c = self.cell_of[v]
        last = c + self.size[c] - 1
        w = perm[last]
        perm[pos[v]], pos[w] = w, pos[v]
        perm[last], pos[v] = v, last
        self.size[c] -= 1
        self.size[last] = 1
        self.cell_of[v] = last
        self.trail.append((last, c))
        return last

    def undo(self, mark: int) -> None:
        """Merge back every cell split off since the trail held mark entries."""
        perm, cell_of, size, trail = self.perm, self.cell_of, self.size, self.trail
        while len(trail) > mark:
            c, parent = trail.pop()
            for v in perm[c:c + size[c]]:
                cell_of[v] = parent
            size[parent] += size[c]

    def refine(self, queue: list[int]) -> None:
        """Split cells by neighbour counts into each splitter taken from the
        queue, which grows as cells split, until it is used up or every
        cell is a singleton."""
        adj, perm, pos, cell_of, size, trail = (
            self.adj, self.perm, self.pos, self.cell_of, self.size, self.trail)
        waiting = set(queue)
        for w in queue:
            if len(trail) == len(perm) - 1:
                return  # discrete: each split made one cell
            waiting.discard(w)
            if size[w] == 1:
                counts = dict.fromkeys(adj[perm[w]], 1)
            else:
                counts = Counter(chain.from_iterable(map(adj.__getitem__, perm[w:w + size[w]])))
            touched: dict[int, list[int]] = {}
            for u in counts:
                c = cell_of[u]
                if size[c] > 1:
                    if c in touched:
                        touched[c].append(u)
                    else:
                        touched[c] = [u]
            for c in sorted(touched):
                hit = touched[c]
                end = c + size[c]
                front = end - len(hit)
                if front == c and len(set(map(counts.__getitem__, hit))) == 1:
                    continue
                hit.sort(key=counts.__getitem__)
                # the vertices without a neighbour in w keep [c, front)
                holes = [pos[u] for u in hit if pos[u] < front]
                for k, x in zip(holes, [x for x in perm[front:end] if x not in counts]):
                    perm[k] = x
                    pos[x] = k
                perm[front:end] = hit
                starts = [c] if front > c else []
                last = None
                for k, u in enumerate(hit, front):
                    pos[u] = k
                    if counts[u] != last:
                        last = counts[u]
                        starts.append(k)
                lens = [b - a for a, b in zip(starts, starts[1:] + [end])]
                size[c] = lens[0]
                for a, m in zip(starts[1:], lens[1:]):
                    size[a] = m
                    trail.append((a, c))
                    for u in perm[a:a + m]:
                        cell_of[u] = a
                if c in waiting:
                    new = starts[1:]
                else:
                    largest = lens.index(max(lens))
                    new = starts[:largest] + starts[largest + 1:]
                queue.extend(new)
                waiting.update(new)


def _merge(orbit: list[int], a: Perm) -> None:
    """Join the orbits of a in the union-find orbit."""
    for x, y in enumerate(a.images):
        orbit[_find(orbit, x)] = _find(orbit, y)


class _Search:
    def __init__(self, g: Graph):
        self.g = g
        self.autos: list[Perm] = []
        self.path: tuple[int, ...] = ()  # individualized vertices of the first leaf
        self.first: tuple[tuple, Perm] | None = None  # key, labeling
        self.best: tuple[tuple, Perm] | None = None
        self.labeling: Perm | None = None  # the best leaf's, once run returns
        self._orbit = list(range(g.n))  # union-find of the orbits of autos

    def run(self) -> None:
        n = self.g.n
        part = _Partition(self.g)
        part.refine([0])
        nodes: list[tuple[int, int, Iterator[int]]] = []  # nodes[i] has the prefix prefix[:i]
        prefix: list[int] = []
        cell = 0
        while True:
            # the target: the first cell above size 1 (those before the parent's are singletons)
            while cell < n and part.size[cell] == 1:
                cell += 1
            if cell < n:
                v = part.perm[cell]
                nodes.append((cell, len(part.trail), self._children(cell, part, prefix, v)))
            else:
                # resume the node the leaf names, or the nearest ancestor with a child left
                depth = min(self._leaf(part.cell_of, prefix), len(prefix) - 1)
                for depth in range(depth, -1, -1):
                    cell, mark, children = nodes[depth]
                    del nodes[depth + 1:], prefix[depth:]
                    part.undo(mark)
                    v = next(children, None)
                    if v is not None:
                        break
                else:
                    # nothing reads the leaf keys after the search
                    self.labeling, self.first, self.best = self.best[1], None, None
                    return
            prefix.append(v)
            part.refine([part.individualize(v)])

    def _children(self, cell: int, part: _Partition, prefix: list[int], first: int) -> Iterator[int]:
        """The children of the node whose target is cell after its first:
        each time the loop resumes it (part undone and prefix cut back to
        the node's), the next vertex of the cell whose orbit holds no
        explored child.  It first runs at the second child, so dropping a
        node that never got there is free."""
        if tuple(prefix) == self.path[:len(prefix)]:  # every automorphism found fixes it
            orbit = self._orbit
        else:
            orbit = list(range(self.g.n))
            for a in self.autos:
                if all(a.images[p] == p for p in prefix):
                    _merge(orbit, a)
        explored = [first]
        rest = iter(part.perm[cell:cell + part.size[cell]])
        while True:
            roots = {_find(orbit, u) for u in explored}
            v = next((v for v in rest if _find(orbit, v) not in roots), None)
            if v is None:
                return
            explored.append(v)
            yield v

    def _leaf(self, lab: list[int], prefix: list[int]) -> int:
        """Record the leaf whose labeling (vertex -> position) is lab; return
        the depth at which the search resumes."""
        labeling = Perm._raw(tuple(lab))
        key = [()] * len(lab)  # position lab[u]: u's neighbour positions, decreasing
        for u, row in enumerate(self.g.adj):
            key[lab[u]] = tuple(sorted(map(lab.__getitem__, row), reverse=True))
        key = tuple(key)
        if self.first is None:
            self.path, self.first, self.best = tuple(prefix), (key, labeling), (key, labeling)
        elif key == self.first[0]:
            # an automorphism carrying the first leaf here, and so the first
            # path's subtree below the divergence onto the one holding this leaf
            a = self.first[1] * labeling.inverse()
            self.autos.append(a)
            _merge(self._orbit, a)
            return next(i for i, (x, y) in enumerate(zip(prefix, self.path)) if x != y)
        elif key < self.best[0]:
            self.best = (key, labeling)
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
    labeling = _search_graph(g).labeling
    return CanonicalForm(labeling, graph6_encode(g.apply_perm(labeling)))


def canonical_graph6(g: Graph) -> str:
    return canonical_form(g).graph6


def are_isomorphic(g1: Graph, g2: Graph) -> Perm | None:
    """An isomorphism from g1 onto g2 as a vertex map, or None.

    Cheap invariants first, then canonical forms; any witness returned has
    been verified edge-by-edge.
    """
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    if degree_sequence(g1) != degree_sequence(g2):
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

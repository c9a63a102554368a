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
its first non-singleton cell.  A leaf is a discrete partition, read as a
labeling; its key is the relabeled graph's adjacency rows as a tuple, and
the canonical form is the leaf with the least key.  A leaf whose key equals
the first leaf's gives an automorphism, and the search jumps back to the
node where it left the first path: the subtree it abandons is that
automorphism's image of the first path's fully explored subtree, so the set
of leaf keys, and the canonical form, is unchanged.

A node skips a child in the orbit of an explored sibling under
automorphisms found that fix the node's prefix.  Every automorphism found
so far fixes the prefix of each open first-path node, so those nodes read
orbits off one union-find, merged as each automorphism arrives.  Any other
node takes the orbits (perms.orbits) of the automorphisms that fix its
prefix; it meets no new one, since an automorphism found below it jumps
back above it.  Each automorphism found joins two orbits of those found
before it, so there are at most n - 1.

The automorphisms found are a strong generating set relative to the first
path (McKay 1981), so automorphism_group reads its chain off the search:
at the first-path node of depth i, each child in the Aut_{path[:i]}-orbit
of path[i] is explored, which records an automorphism fixing path[:i] and
carrying path[i] onto it, or pruned by one; only the identity fixes the path.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, _bits, graph6_encode
from .perms import Perm, PermGroup, orbits


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
        self.adj = [_bits(row) for row in g.rows]
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


class _Node:
    """A search node: its target cell, the trail length after its
    refinement, and its children so far."""

    __slots__ = ("cell", "mark", "first_path", "child", "rest", "explored", "pruned", "fixers")

    def __init__(self, cell: int, mark: int, first_path: bool):
        self.cell = cell
        self.mark = mark
        self.first_path = first_path
        self.child: int | None = None  # the child explored last
        self.rest = None  # an iterator over the target cell, from the second child on
        self.explored: list[int] = []
        self.pruned: set[int] = set()  # off the first path: orbits of explored children
        self.fixers: list[Perm] | None = None


class _Search:
    def __init__(self, g: Graph):
        self.g = g
        self.autos: list[Perm] = []
        self.path: tuple[int, ...] = ()  # individualized vertices of the first leaf
        self.first: tuple[tuple[int, ...], Perm] | None = None  # rows, labeling
        self.best: tuple[tuple[int, ...], Perm] | None = None
        self._orbit = list(range(g.n))  # union-find of the orbits of autos

    def run(self) -> None:
        n = self.g.n
        part = _Partition(self.g)
        part.refine([0])
        nodes: list[_Node] = []  # nodes[i] has the prefix prefix[:i]
        prefix: list[int] = []
        cell = 0
        while True:
            # the target: the first cell above size 1 (those before the parent's are singletons)
            while cell < n and part.size[cell] == 1:
                cell += 1
            if cell < n:
                nodes.append(_Node(cell, len(part.trail), self.first is None))
                depth = len(prefix)
            else:
                depth = min(self._leaf(part.cell_of, prefix), len(prefix) - 1)
            # resume the node at depth, or the nearest ancestor with a child left
            while True:
                if depth < 0:
                    return
                node = nodes[depth]
                del nodes[depth + 1:], prefix[depth:]
                part.undo(node.mark)
                v = self._next_child(node, part, prefix)
                if v is not None:
                    break
                depth -= 1
            prefix.append(v)
            cell = node.cell
            part.refine([part.individualize(v)])

    def _next_child(self, node: _Node, part: _Partition, prefix: list[int]) -> int | None:
        """The node's next child not in the orbit of an explored one, or None."""
        if node.child is None:
            node.child = part.perm[node.cell]
            return node.child
        u = node.child
        node.explored.append(u)
        if node.rest is None:
            node.rest = iter(part.perm[node.cell:node.cell + part.size[node.cell]])
        if node.first_path:
            find = self._find
            roots = {find(x) for x in node.explored}
            node.child = next((v for v in node.rest if find(v) not in roots), None)
        else:
            if node.fixers is None:
                node.fixers = [a for a in self.autos if all(a.images[p] == p for p in prefix)]
            if u not in node.pruned:
                node.pruned.update(orbits(node.fixers, [u])[0])
            node.child = next((v for v in node.rest if v not in node.pruned), None)
        return node.child

    def _find(self, x: int) -> int:
        orbit = self._orbit
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    def _leaf(self, lab: list[int], prefix: list[int]) -> int:
        """Record the leaf whose labeling (vertex -> position) is lab; return
        the depth at which the search resumes."""
        labeling = Perm._raw(tuple(lab))
        rows = self.g.apply_perm(labeling).rows
        if self.first is None:
            self.path, self.first, self.best = tuple(prefix), (rows, labeling), (rows, labeling)
        elif rows == self.first[0]:
            # an automorphism carrying the first leaf here, and so the first
            # path's subtree below the divergence onto the one holding this leaf
            a = self.first[1] * labeling.inverse()
            self.autos.append(a)
            for x, y in enumerate(a.images):
                self._orbit[self._find(x)] = self._find(y)
            return next(i for i, (x, y) in enumerate(zip(prefix, self.path)) if x != y)
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

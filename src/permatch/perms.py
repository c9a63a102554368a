"""Permutations and permutation groups on {0, ..., n-1}.

Permutations act on the right: x^(g*h) == (x^g)^h.  Groups carry a
deterministic base and strong generating set, which makes orders,
membership tests and stabilizers exact and reproducible.  A chain level
holds a base point, generators and a Schreier tree: no coset
representatives, and inverses only as sifts compute them (Sims 1971;
Seress 2003, section 4.1).  Chains come from the one Schreier-Sims
(PermGroup, which stops it at n!; rebase and lift_group, at the order), from
conjugating another chain (rebase), from the one backtrack over a chain
(subgroup_search), or are read off strong generators (_from_strong_generators).
A chain's trees grow only as _append_gen files a generator; orbits answers
orbit queries.  Orders are Python ints.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from typing import Callable, Iterable, Sequence


class Perm:
    """An immutable permutation stored as a tuple of images."""

    __slots__ = ("images", "_inv")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (images,))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Perm":
        # internal: trusted images, skip validation
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_inv", None)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build a permutation of degree n from disjoint cycles."""
        images = list(range(n))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not (0 <= x < n):
                    raise ValueError("cycle entry %d out of range" % x)
                if x in seen:
                    raise ValueError("cycles are not disjoint at %d" % x)
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, n: int) -> "Perm":
        """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
        text = text.strip()
        if text in ("", "()"):
            return cls.identity(n)
        if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", text):
            raise ValueError("malformed cycle notation: %r" % text)
        cycles = []
        for part in re.findall(r"\(([^()]*)\)", text):
            entries = [int(tok) for tok in re.split(r"[\s,]+", part.strip()) if tok]
            if entries:
                cycles.append(entries)
        return cls.from_cycles(n, cycles)

    def apply(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # x^(self*other) == (x^self)^other
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Perm._raw(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        """The inverse, computed on the first call and kept."""
        if self._inv is None:
            inv = [0] * len(self.images)
            for i, x in enumerate(self.images):
                inv[x] = i
            object.__setattr__(self, "_inv", Perm._raw(tuple(inv)))
        return self._inv

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def moved_points(self) -> list[int]:
        return [i for i, x in enumerate(self.images) if i != x]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)

    def __repr__(self) -> str:
        return "Perm[%s]" % self.cycle_string()

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)


class BlockSystem:
    """A G-invariant partition of a domain into blocks."""

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blks = sorted(tuple(sorted(b)) for b in blocks)
        if any(not b for b in blks):
            raise ValueError("empty block")
        self.blocks: tuple[tuple[int, ...], ...] = tuple(blks)
        self.block_of: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                if x in self.block_of:
                    raise ValueError("blocks overlap at %d" % x)
                self.block_of[x] = i

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockSystem) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return "BlockSystem(%r)" % (self.blocks,)


def orbits(gens: Sequence[Perm], seeds: Iterable, act: Callable = operator.getitem) -> list[dict]:
    """The orbits of <gens> through the seeds, one Schreier tree each.

    Trees come in the order of the first seed of each orbit; a seed already
    in an earlier orbit starts none.  A tree is a dict in discovery
    (breadth-first) order that maps its root, the seed, to None and every
    other member y to (x, k) with y == act(gens[k].images, x), so following
    the links from y back to the root spells a group element carrying the
    root to y (Seress 2003, section 4.1).  act defaults to the action on
    points; callers pass their own for tuples, edges or cycles.
    """
    ims = [g.images for g in gens]
    seen: set = set()
    out = []
    for s in seeds:
        if s in seen:
            continue
        tree = {s: None}
        queue = [s]
        for x in queue:
            for k, im in enumerate(ims):
                y = act(im, x)
                if y not in tree:
                    tree[y] = (x, k)
                    queue.append(y)
        seen.update(tree)
        out.append(tree)
    return out


class _Level:
    """A chain level: base point, generators of the subgroup fixing the
    earlier base points (strong generators filed here or deeper, or their
    conjugates), and the Schreier tree (see orbits) of the basic orbit under
    them, grown only by _append_gen."""

    __slots__ = ("point", "gens", "tree")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Perm] = []
        self.tree: dict[int, tuple[int, int] | None] = {point: None}


def _spell(tree: dict, ims: Sequence[tuple[int, ...]], y, t: tuple[int, ...]) -> tuple[int, ...]:
    """The images of u * t, with u the element a Schreier tree spells from
    its root to y: the product of the generators (images ims) on its links."""
    while tree[y] is not None:
        y, k = tree[y]
        t = tuple(map(t.__getitem__, ims[k]))
    return t


def _sift(levels: list[_Level], p: Perm, start: int = 0) -> tuple[Perm, int]:
    """Strip p through the chain, walking each tree back from the image of
    its root; return (residue, level where it stuck)."""
    im = p.images
    for i in range(start, len(levels)):
        lvl = levels[i]
        tree, gens = lvl.tree, lvl.gens
        d = im[lvl.point]
        if d not in tree:
            return Perm._raw(im), i
        while tree[d] is not None:
            d, k = tree[d]
            im = tuple(map(gens[k].inverse().images.__getitem__, im))
    return Perm._raw(im), len(levels)


def _append_gen(levels: list[_Level], p: Perm, j: int) -> None:
    """File p at level j and every earlier one (creating level j if the
    chain ends there) and extend their trees to the orbits: p from the old
    points, then every generator from the new ones only.  Old links stay, so
    no coset representative changes, as _schreier_sims's record needs."""
    if j == len(levels):
        levels.append(_Level(min(p.moved_points())))
    im = p.images
    for lvl in levels[:j + 1]:
        tree, gens, k = lvl.tree, lvl.gens, len(lvl.gens)
        gens.append(p)
        new = {im[x]: (x, k) for x in tree if im[x] not in tree}
        tree.update(new)
        queue, ims = list(new), [g.images for g in gens] if new else ()
        for x in queue:
            for k, gim in enumerate(ims):
                y = gim[x]
                if y not in tree:
                    tree[y] = (x, k)
                    queue.append(y)


def _schreier_residue(levels: list[_Level], done: dict[int, set[tuple[int, int]]],
                      j: int, n0: int) -> tuple[Perm | None, int]:
    """Sift the Schreier generators u_d * g * u_{d^g}^-1 of levels j, j-1,
    ..., 0 not sifted before: done[i] holds (d, k) for each one of level i
    sifted with g its k-th generator.  Return the first residue that is not
    the identity with the level where it stuck, or (None, -1).  At level 0,
    g is one of the first n0 generators: they generate the group, which is
    all Schreier's lemma asks of g (Seress 2003, section 4.2)."""
    for i in range(j, -1, -1):
        tree = levels[i].tree
        ims = [g.images for g in levels[i].gens]
        sifted = done.setdefault(i, set())
        for d in tree:
            u = None
            for k, im in enumerate(ims if i else ims[:n0]):
                if (d, k) in sifted or tree[im[d]] == (d, k):
                    continue  # sifted before, or u_d * g is u_{d^g}
                sifted.add((d, k))
                if u is None:
                    u = _spell(tree, ims, d, tuple(range(len(im))))
                residue, stuck = _sift(levels, Perm._raw(tuple(map(im.__getitem__, u))), i)
                if not residue.is_identity():
                    return residue, stuck
    return None, -1


def _schreier_sims(levels: list[_Level], gens: Iterable[Perm], order: int) -> list[_Level]:
    """Sift gens into the chain, then re-establish the chain condition from
    the deepest level upward (Seress 2003, section 4.2); return the levels.
    Stop once the product of the tree sizes reaches order, a bound on
    |<gens>|: each tree is an orbit of a subgroup of <gens> fixing the
    earlier base points, so reaching it proves the chain complete."""
    for g in gens:
        residue, j = _sift(levels, g)
        if not residue.is_identity():
            _append_gen(levels, residue, j)
            if math.prod(len(lvl.tree) for lvl in levels) == order:
                return levels
    # the residues filed so far generate <gens>, and a residue stuck at
    # level j leaves every level deeper than j complete
    n0 = len(levels[0].gens) if levels else 0
    done: dict[int, set[tuple[int, int]]] = {}
    residue, j = _schreier_residue(levels, done, len(levels) - 1, n0)
    while residue is not None:
        _append_gen(levels, residue, j)
        if math.prod(len(lvl.tree) for lvl in levels) == order:
            return levels
        residue, j = _schreier_residue(levels, done, j, n0)
    return levels


class PermGroup:
    """A permutation group with a deterministic base and strong generating set.

    The constructor runs Schreier-Sims on the generators, and each new level
    picks the smallest moved point as base point; rebase pins a base first,
    and subgroup_search and automorphism_group read chains off searches.
    """

    def __init__(self, generators: Iterable[Perm], degree: int | None = None):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generator list")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators have mismatched degrees")
        self.degree = degree
        self.generators = gens
        self._levels = _schreier_sims([], gens, math.factorial(degree))

    @classmethod
    def _from_chain(cls, generators: Iterable[Perm], degree: int,
                    levels: list[_Level]) -> "PermGroup":
        # internal: levels must be a complete chain of <generators>
        group = object.__new__(cls)
        group.degree, group.generators, group._levels = degree, tuple(generators), levels
        return group

    @classmethod
    def _from_strong_generators(cls, base: Sequence[int], gens: Sequence[Perm],
                                degree: int) -> "PermGroup":
        # internal: gens, each moving some base point, must be a strong
        # generating set relative to base; each is filed at the first it moves
        levels = [_Level(b) for b in base]
        for g in gens:
            _append_gen(levels, g, next(i for i, b in enumerate(base) if g.images[b] != b))
        return cls._from_chain(gens, degree, levels)

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._levels)

    @property
    def strong_generators(self) -> tuple[Perm, ...]:
        """The distinct generators of all levels, in level order."""
        return tuple(dict.fromkeys(g for lvl in self._levels for g in lvl.gens))

    def basic_orbits(self) -> list[tuple[int, ...]]:
        return [tuple(sorted(lvl.tree)) for lvl in self._levels]

    def order(self) -> int:
        return math.prod(len(lvl.tree) for lvl in self._levels)

    def __contains__(self, p: Perm) -> bool:
        return p.degree == self.degree and _sift(self._levels, p)[0].is_identity()

    def rebase(self, base_hint: Sequence[int]) -> "PermGroup":
        """The same group and generators, with a base starting with base_hint.

        Base change by conjugation (Seress 2003, section 5.4).  With L the
        next level of this chain and c the conjugator built so far, a hint
        point h = x^c keeps L, relabeled by c, if x is L's base point, or
        after c takes on the coset representative of x if x is in L's basic
        orbit; an x that L's generators fix gets a trivial level.  At any
        other point Schreier-Sims builds the rest of the chain from L's
        generators conjugated by c.  This chain is left as it was.
        """
        if any(not (0 <= b < self.degree) for b in base_hint):
            raise ValueError("base hint point out of range")
        source, levels, s = self._levels, [], 0  # source[s] is L
        ident = c = cinv = tuple(range(self.degree))
        conj: dict[int, tuple[int, ...]] = {}  # id(t) -> images of c^-1 * t * c

        def conjugate(t: tuple[int, ...]) -> tuple[int, ...]:
            if id(t) not in conj:
                conj[id(t)] = tuple(map(c.__getitem__, map(t.__getitem__, cinv)))
            return conj[id(t)]

        def relabeled(lvl: _Level) -> _Level:
            if c is ident:
                return lvl  # a level is never changed once its chain is built
            new = _Level(c[lvl.point])
            new.gens = [Perm._raw(conjugate(g.images)) for g in lvl.gens]
            new.tree = {c[y]: link and (c[link[0]], link[1]) for y, link in lvl.tree.items()}
            return new

        for i, h in enumerate(base_hint):
            x = cinv[h]
            lvl = source[s] if s < len(source) else _Level(x)  # past the chain: trivial
            if x in lvl.tree:
                if x != lvl.point:
                    c = _spell(lvl.tree, [g.images for g in lvl.gens], x, c)
                    cinv = Perm._raw(c).inverse().images
                    conj.clear()
                levels.append(relabeled(lvl))
                s += 1
            elif all(g.images[x] == x for g in lvl.gens):
                levels.append(_Level(h))
                levels[-1].gens = relabeled(lvl).gens
            else:
                order = math.prod(len(rest.tree) for rest in source[s:])
                levels += _schreier_sims([_Level(b) for b in base_hint[i:]], relabeled(lvl).gens,
                                         order)
                break
        else:
            levels += map(relabeled, source[s:])
        return PermGroup._from_chain(self.generators, self.degree, levels)

    def orbit(self, point: int) -> tuple[int, ...]:
        if not (0 <= point < self.degree):
            raise ValueError("point out of range")
        return tuple(sorted(orbits(self.generators, [point])[0]))

    def orbits(self) -> list[tuple[int, ...]]:
        return [tuple(sorted(tree)) for tree in orbits(self.generators, range(self.degree))]

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        """The subgroup fixing every listed point, via base change."""
        pts = tuple(points)
        if not pts:
            return self
        tail = self.rebase(pts)._levels[len(pts):]  # a complete chain of its own
        return PermGroup._from_chain(tail[0].gens if tail else (), self.degree, tail)


def subgroup_search(group: PermGroup, test: Callable[[Perm], bool],
                    prune: Callable[[int, int, list[int]], bool] | None = None) -> PermGroup:
    """H = {g in group : test(g)}, which must be a subgroup, with its chain.

    For each level i of the group's chain (base b_0, b_1, ...), deepest
    first, and each d in the basic orbit of b_i outside the orbit of b_i
    under the elements found so far, the search scans the elements fixing
    b_0..b_{i-1} and sending b_i to d until one passes test.  prune(level,
    img, imgs) sees the images of base[0..level-1] in imgs and a candidate
    image img of base[level]; False cuts the branch, and prune may cut only
    branches where no element passes test.  The elements found at levels i
    and deeper lie in H_i = H fixing b_0..b_{i-1} and reach every point of
    its orbit of b_i, so they generate H_i and are strong generators of H
    (Seress 2003, chapter 9), so H's chain on the group's base is built as
    the search goes: filing each (_append_gen) extends level i's tree to
    the orbit of b_i they reach.  A scanned element is carried as the
    generators along the tree paths it descended, base images are followed
    point by point, and a whole element is spelled only at a leaf, for test.
    Generators come deepest level first, in tree order of d.
    """
    levels = group._levels
    k, limit = len(levels), sys.getrecursionlimit()
    base_pts = [lvl.point for lvl in levels]
    chain = [_Level(b) for b in base_pts]
    ident = tuple(range(group.degree))
    # generator images along the tree paths descended, each path from its
    # point back to its root and the shallowest level first: the element
    # applies them last to first
    word: list[tuple[int, ...]] = []

    def descend(i: int, d: int) -> None:
        tree, gens = levels[i].tree, levels[i].gens
        while tree[d] is not None:
            d, j = tree[d]
            word.append(gens[j].images)

    def extend(i: int, imgs: list[int]) -> Perm | None:
        if i == k:
            t = ident
            for im in word:
                t = tuple(map(t.__getitem__, im))
            p = Perm._raw(t)
            return p if test(p) else None
        mark = len(word)
        for d in levels[i].tree:
            img = d
            for im in reversed(word):
                img = im[img]
            if prune is not None and not prune(i, img, imgs):
                continue
            imgs.append(img)
            descend(i, d)
            r = extend(i + 1, imgs)
            del word[mark:]
            imgs.pop()
            if r is not None:
                return r
        return None

    sys.setrecursionlimit(limit + k)  # extend recurses once per level
    try:
        for i in range(k - 1, -1, -1):
            found, prefix = chain[i].tree, base_pts[:i]
            for d in levels[i].tree:
                if d in found or prune is not None and not prune(i, d, prefix):
                    continue
                descend(i, d)
                g = extend(i + 1, prefix + [d])
                word.clear()
                if g is not None:
                    _append_gen(chain, g, i)
    finally:
        sys.setrecursionlimit(limit)
    # extend refers to itself through its closure; emptying that cell frees
    # the group's chain now rather than at the next cyclic collection
    del extend
    return PermGroup._from_chain(chain[0].gens if chain else (), group.degree, chain)


def is_transitive(group: PermGroup) -> bool:
    return group.degree <= 1 or len(group.orbit(0)) == group.degree


def is_2transitive(group: PermGroup) -> bool:
    """One orbit on ordered pairs of distinct points (vacuously true in
    degree at most 1)."""
    n = group.degree
    if n <= 1:
        return True
    (pairs,) = orbits(group.generators, [(0, 1)], lambda im, t: (im[t[0]], im[t[1]]))
    return len(pairs) == n * (n - 1)


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def minimal_block(group: PermGroup, pair: tuple[int, int]) -> BlockSystem:
    """The finest G-invariant partition of the points merging the given pair.

    Union-find closure: whenever two points are identified, every generator
    image of the pair is identified too.
    """
    if not is_transitive(group):
        raise ValueError("group is not transitive")
    n = group.degree
    a, b = pair
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError("bad pair %r" % (pair,))

    parent = list(range(n))
    queue = [(a, b)]
    parent[b] = a
    while queue:
        x, y = queue.pop()
        for g in group.generators:
            gx, gy = g.images[x], g.images[y]
            rx, ry = _find(parent, gx), _find(parent, gy)
            if rx != ry:
                parent[ry] = rx
                queue.append((gx, gy))

    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(_find(parent, x), []).append(x)
    return BlockSystem(blocks.values())


def is_primitive(group: PermGroup) -> bool:
    """Transitive with no nontrivial block system."""
    if not is_transitive(group):
        raise ValueError("group is not transitive")
    for omega in range(1, group.degree):
        if len(minimal_block(group, (0, omega))) > 1:
            return False
    return True


def induced_action(group: PermGroup, cells: Sequence[Iterable[int]]) -> PermGroup:
    """The action of the group on a list of cells it permutes: the image
    group on cell indices.  Its generators are the distinct non-identity
    images of the group's generators, in first-seen order.  Raises if some
    generator fails to map every cell onto a cell.
    """
    cell_sets = [frozenset(c) for c in cells]
    index = {c: i for i, c in enumerate(cell_sets)}
    if len(index) != len(cell_sets):
        raise ValueError("duplicate cells")
    img_gens: dict[Perm, None] = {}
    for g in group.generators:
        images = []
        for c in cell_sets:
            target = frozenset(g.images[x] for x in c)
            j = index.get(target)
            if j is None:
                raise ValueError("generator %r does not permute the cells" % g)
            images.append(j)
        img = Perm(images)
        if not img.is_identity():
            img_gens[img] = None
    return PermGroup(list(img_gens), degree=len(cell_sets))

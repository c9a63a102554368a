"""Cycle systems covering 2-paths, and quotients by vertex partitions.

A graph is near-polygonal when some orbit of c-cycles covers every 2-path
exactly once.  For a 2-arc-transitive graph there is a one-cycle-orbit
criterion: fix a 2-arc (a, b, c) with pointwise stabilizer H; if H fixes a
neighbor of c other than b, then some element normalizing H maps (a, b) to
(b, c), and the cycle it traces through a generates a candidate system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, is_connected
from .matchings import _first_2arc, _group_or_aut, check_group_action, is_2arc_transitive
from .perms import BlockSystem, Perm, PermGroup, find_elements, orbits


@dataclass(frozen=True)
class CycleSystem:
    """An orbit of cycles, each stored in canonical rotation/reflection form."""

    length: int
    cycles: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"length": self.length, "cycles": [list(c) for c in self.cycles]}


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for s in (seq, tuple(reversed(seq))):
        for r in range(len(s)):
            rot = s[r:] + s[:r]
            if best is None or rot < best:
                best = rot
    return best


def verify_cycle_system(g: Graph, system: CycleSystem) -> bool:
    """True when every 2-path of g lies in exactly one cycle of the system.

    Malformed cycles (repeated vertices, non-edges, wrong length) raise.
    """
    counts: dict[tuple[int, frozenset[int]], int] = {}
    for cyc in system.cycles:
        if len(cyc) != system.length or system.length < 3:
            raise ValueError("cycle %r has wrong length" % (cyc,))
        if len(set(cyc)) != len(cyc):
            raise ValueError("cycle %r repeats a vertex" % (cyc,))
        for i, mid in enumerate(cyc):
            prev, nxt = cyc[i - 1], cyc[(i + 1) % len(cyc)]
            if not g.has_edge(mid, nxt):
                raise ValueError("cycle %r uses a non-edge" % (cyc,))
            key = (mid, frozenset((prev, nxt)))
            counts[key] = counts.get(key, 0) + 1
    for mid in range(g.n):
        nbrs = g.neighbors(mid)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if counts.get((mid, frozenset((a, b)))) != 1:
                    return False
    return all(v == 1 for v in counts.values())


def _on_cycle(im: tuple[int, ...], cyc: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical_cycle(tuple(map(im.__getitem__, cyc)))


def near_polygonal_certificate(g: Graph, group: PermGroup | None = None) -> CycleSystem | None:
    """Search for a single group orbit of cycles covering each 2-path once.

    Requires a connected, 2-arc-transitive pair (g, group); returns the first
    verified system found, or None when the fixed-neighbor criterion fails or
    no normalizing element yields a valid system.
    """
    group = _group_or_aut(g, group)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not is_2arc_transitive(g, group):
        raise ValueError("group is not 2-arc-transitive on the graph")
    first = _first_2arc(g)
    if first is None:
        raise ValueError("graph has no 2-path")
    a, b, c = first
    stab = group.pointwise_stabilizer((a, b, c))
    others = [x for x in g.neighbors(c) if x != b]
    fixed = [x for x in others
             if all(p.images[x] == x for p in stab.generators)]
    if not fixed:
        return None

    sgens = stab.generators

    def normalizes(p: Perm) -> bool:
        q = p.inverse()
        return all((q * h * p) in stab for h in sgens)

    test = None
    if any(not h.is_identity() for h in sgens):
        test = normalizes
    for cand in find_elements(group, [(a, b), (b, c)], test=test):
        cyc = [a]
        x = cand.images[a]
        while x != a:
            cyc.append(x)
            x = cand.images[x]
        if len(cyc) < 3 or len(cyc) > g.n:
            continue
        (orbit,) = orbits(group.generators, [_canonical_cycle(tuple(cyc))], _on_cycle)
        system = CycleSystem(len(cyc), tuple(sorted(orbit)))
        if verify_cycle_system(g, system):
            return system
    return None


@dataclass(frozen=True)
class QuotientResult:
    graph: Graph
    blocks: BlockSystem
    regular_cover: bool

    def to_json_dict(self) -> dict:
        from .graphs import graph6_encode

        return {
            "quotient_graph6": graph6_encode(self.graph),
            "blocks": [sorted(b) for b in self.blocks.blocks],
            "regular_cover": self.regular_cover,
        }


def orbit_partition(group: PermGroup) -> BlockSystem:
    return BlockSystem(group.orbits())


def quotient_by_partition(g: Graph, partition, group: PermGroup | None = None) -> QuotientResult:
    """Collapse each block to a vertex; blocks are adjacent when any edge
    joins them.

    regular_cover reports whether g covers the quotient in the strong sense:
    no edge inside a block, and each vertex has exactly one neighbor in every
    adjacent block.  When a group is given, every generator must permute the
    blocks.
    """
    blocks = partition if isinstance(partition, BlockSystem) else BlockSystem(partition)
    covered = sorted(v for blk in blocks.blocks for v in blk)
    if covered != list(range(g.n)):
        raise ValueError("partition must cover every vertex exactly once")
    if group is not None:
        check_group_action(g, group)
        key = {frozenset(b) for b in blocks.blocks}
        for p in group.generators:
            for blk in blocks.blocks:
                if frozenset(p.images[x] for x in blk) not in key:
                    raise ValueError("group does not permute the partition blocks")

    index = {}
    for i, blk in enumerate(blocks.blocks):
        for v in blk:
            index[v] = i
    masks = [0] * len(blocks.blocks)
    for v in range(g.n):
        masks[index[v]] |= 1 << v

    qedges = set()
    intra = False
    for u, v in g.edges():
        bu, bv = index[u], index[v]
        if bu == bv:
            intra = True
        else:
            qedges.add((min(bu, bv), max(bu, bv)))
    quotient = Graph(len(blocks.blocks), sorted(qedges))

    regular = not intra
    if regular:
        for v in range(g.n):
            bv = index[v]
            for qb in quotient.neighbors(bv):
                if (g.rows[v] & masks[qb]).bit_count() != 1:
                    regular = False
                    break
            if not regular:
                break
    return QuotientResult(quotient, blocks, regular)

"""Cycle systems covering 2-paths, and quotients by vertex partitions.

A graph is near-polygonal when some orbit of c-cycles covers every 2-path
exactly once.  For a 2-arc-transitive graph each candidate orbit comes from
one group element: fix the least 2-arc (a, b, c) with pointwise stabilizer
H.  For each neighbor d != b of c that H fixes, the elements sending
(a, b, c) to (b, c, d) form one coset H*t_d, and since 2-arc stabilizers
are conjugate they all normalize H.  H then fixes every point of the cycle
of t_d through a, so the whole coset traces that one cycle, whose orbit is
the candidate system.  Conversely an element sending (a, b) to (b, c) that
normalizes H sends c to a neighbor H fixes, so no candidate is missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, graph6_encode, is_connected
from .matchings import _arc_tree, _group_or_aut, _on_tuple, check_group_action
from .perms import BlockSystem, PermGroup, _spell, induced_action, orbits


@dataclass(frozen=True)
class CycleSystem:
    """An orbit of cycles, each stored in canonical rotation/reflection form."""

    length: int
    cycles: tuple[tuple[int, ...], ...]


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
    return _canonical_cycle(_on_tuple(im, cyc))


def near_polygonal_certificate(g: Graph, group: PermGroup | None = None) -> CycleSystem | None:
    """Search for a single group orbit of cycles covering each 2-path once.

    Requires a connected, 2-arc-transitive pair (g, group).  With (a, b, c)
    the least 2-arc and H its pointwise stabilizer, each neighbor d != b of
    c that H fixes, in increasing order, gives one candidate: the cycle
    through a of an element t_d sending (a, b, c) to (b, c, d), read off
    the Schreier tree of the 2-arc orbit (see the module docstring for why
    one element per d suffices).  Returns the first candidate whose orbit
    is a verified system, or None when no candidate is.
    """
    group = _group_or_aut(g, group)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    tree = _arc_tree(g, group, 2)
    if tree is None:
        raise ValueError("group is not 2-arc-transitive on the graph")
    if not tree:
        raise ValueError("graph has no 2-path")
    a, b, c = next(iter(tree))
    stab = group.pointwise_stabilizer((a, b, c)).generators
    ims = [p.images for p in group.generators]
    for d in g.neighbors(c):
        if d == b or any(h.images[d] != d for h in stab):
            continue
        t = _spell(tree, ims, (b, c, d), tuple(range(g.n)))
        cyc = [a]
        while t[cyc[-1]] != a:
            cyc.append(t[cyc[-1]])
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
        return {
            "quotient_graph6": graph6_encode(self.graph),
            "blocks": [sorted(b) for b in self.blocks.blocks],
            "regular_cover": self.regular_cover,
        }


def quotient_by_partition(g: Graph, partition: Iterable[Iterable[int]],
                          group: PermGroup | None = None) -> QuotientResult:
    """Collapse each block to a vertex; blocks are adjacent when any edge
    joins them.

    regular_cover reports whether g covers the quotient in the strong sense:
    no edge inside a block, and each vertex has exactly one neighbor in every
    adjacent block.  When a group is given, every generator must permute the
    blocks.
    """
    blocks = BlockSystem(partition)
    index = blocks.block_of
    if sorted(index) != list(range(g.n)):
        raise ValueError("partition must cover every vertex exactly once")
    if group is not None:
        check_group_action(g, group)
        induced_action(group, blocks.blocks)

    qedges = set()
    intra = False
    for u, v in g.edges():
        bu, bv = index[u], index[v]
        if bu == bv:
            intra = True
        else:
            qedges.add((min(bu, bv), max(bu, bv)))
    quotient = Graph(len(blocks.blocks), sorted(qedges))

    masks = [sum(1 << v for v in blk) for blk in blocks.blocks]
    regular = not intra and all((g.rows[v] & masks[qb]).bit_count() == 1
                                for v in range(g.n) for qb in quotient.neighbors(index[v]))
    return QuotientResult(quotient, blocks, regular)

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

from .autiso import check_group_action
from .graphs import Graph, graph6_encode, is_connected
from .matchings import _arc_chain, _group_or_aut
from .perms import BlockSystem, Perm, PermGroup, _spell, induced_action, orbits


@dataclass(frozen=True)
class CycleSystem:
    """An orbit of cycles, each stored in canonical rotation/reflection form."""

    length: int
    cycles: tuple[tuple[int, ...], ...]


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation or reflection of a cycle that repeats no vertex:
    rotated to its least vertex, then read forward or backward from it."""
    i = seq.index(min(seq))
    fwd = seq[i:] + seq[:i]
    return min(fwd, fwd[:1] + fwd[:0:-1])


def verify_cycle_system(g: Graph, system: CycleSystem) -> bool:
    """True when every 2-path of g lies in exactly one cycle of the system.

    Malformed cycles (repeated vertices, non-edges, wrong length) raise, so
    each key collected is a 2-path of g: the system is one exactly when its
    keys are all distinct and as many as the 2-paths of g.
    """
    keys: set[tuple[int, frozenset[int]]] = set()
    for cyc in system.cycles:
        if len(cyc) != system.length or system.length < 3:
            raise ValueError("cycle %r has wrong length" % (cyc,))
        if len(set(cyc)) != len(cyc):
            raise ValueError("cycle %r repeats a vertex" % (cyc,))
        for i, mid in enumerate(cyc):
            prev, nxt = cyc[i - 1], cyc[(i + 1) % len(cyc)]
            if not g.has_edge(mid, nxt):
                raise ValueError("cycle %r uses a non-edge" % (cyc,))
            keys.add((mid, frozenset((prev, nxt))))
    paths = sum(len(row) * (len(row) - 1) // 2 for row in g.adj)
    return len(keys) == len(system.cycles) * system.length == paths


def _on_cycle(im: tuple[int, ...], cyc: tuple[int, ...]) -> tuple[int, ...]:
    return _canonical_cycle(tuple(map(im.__getitem__, cyc)))


def near_polygonal_certificate(g: Graph, group: PermGroup | None = None) -> CycleSystem | None:
    """Search for a single group orbit of cycles covering each 2-path once.

    Requires a connected, 2-arc-transitive pair (g, group).  With (a, b, c)
    the least 2-arc and H its pointwise stabilizer, each neighbor d != b of
    c that H fixes, in increasing order, gives one candidate: the cycle
    through a of an element t_d sending (a, b, c) to (b, c, d), spelled on
    the chain rebased onto (a, b, c), whose level 3 generates H (see the
    module docstring for why one element per d suffices).  Returns the
    first candidate whose orbit is a verified system, or None if none is.
    """
    group = _group_or_aut(g, group)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    levels = _arc_chain(g, group, 2)
    if levels is None:
        raise ValueError("group is not 2-arc-transitive on the graph")
    if not levels:
        raise ValueError("graph has no 2-path")
    a, b, c = (lvl.point for lvl in levels[:3])
    stab = levels[3].gens if len(levels) > 3 else ()
    for d in g.neighbors(c):
        if d == b or any(h.images[d] != d for h in stab):
            continue
        t = tuple(range(g.n))
        for lvl, x in zip(levels, (b, c, d)):
            t = _spell(lvl.tree, [p.images for p in lvl.gens], t.index(x), t)
        (cyc,) = orbits([Perm._raw(t)], [a])
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

    regular = not intra and all(
        tuple(sorted(map(index.__getitem__, row))) == quotient.adj[index[v]]
        for v, row in enumerate(g.adj))
    return QuotientResult(quotient, blocks, regular)

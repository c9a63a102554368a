"""Symmetry of matchings under graph automorphism groups.

The central question: given a graph g, a group G of automorphisms and an
m-matching M, how does the setwise stabilizer G_M act on the m edges?  If
the induced action is the full symmetric group the matching is permutable;
if the induced action is 2-transitive the matching is 2-transitive.  A
1-matching counts as both, vacuously.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields

from . import autiso
from .graphs import Graph, Matching, is_connected, validate_matching
from .perms import Perm, PermGroup, induced_action, is_2transitive, is_primitive, \
    is_transitive, orbits, subgroup_search

MODE_PERMUTABLE = "permutable"
MODE_TWO_TRANSITIVE = "two-transitive"


def normalize_mode(mode: str) -> str:
    m = mode.strip().lower().replace("_", "-")
    if m not in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
        raise ValueError("unknown mode %r" % mode)
    return m


# group -> (graph, generators) of the last pair check_group_action passed
_checked: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def check_group_action(g: Graph, group: PermGroup) -> None:
    """Raise unless every generator of the group is an automorphism of g.

    A passed pair is remembered with the generators it checked, so checking
    an equal graph against the same group again costs one lookup; another
    graph, or generators replaced since, are checked in full.
    """
    seen = _checked.get(group)
    if seen is not None and seen[1] is group.generators and seen[0] == g:
        return
    if group.degree != g.n:
        raise ValueError("group degree %d does not match graph order %d"
                         % (group.degree, g.n))
    for p in group.generators:
        if not g.is_automorphism(p):
            raise ValueError("generator %r is not an automorphism" % p)
    _checked[group] = (g, group.generators)


def _group_or_aut(g: Graph, group: PermGroup | None) -> PermGroup:
    """The group, checked against g, or else the automorphism group of g,
    remembered as checked: automorphism_group verifies its generators."""
    if group is not None:
        check_group_action(g, group)
        return group
    group = autiso.automorphism_group(g)
    _checked[group] = (g, group.generators)
    return group


def matching_stabilizer(g: Graph, group: PermGroup, matching: Matching) -> PermGroup:
    """The subgroup of group mapping the edge set of the matching onto itself.

    Raises ValueError unless the matching is a matching of g and every
    generator of the group is an automorphism of g.  The search runs on the
    group rebased onto the matched vertices pair by pair (see _stabilizer).
    For a single edge this is the setwise stabilizer of its two vertices.
    """
    validate_matching(g, matching)
    check_group_action(g, group)
    if not matching.edges:
        return group
    return _stabilizer(group.rebase(_ends(matching)), matching)


def _ends(matching: Matching) -> list[int]:
    """The ends of the pairs, pair by pair: a_0, b_0, a_1, b_1, ..."""
    return [x for e in matching for x in e]


def _stabilizer(chain: PermGroup, matching: Matching) -> PermGroup:
    """matching_stabilizer unchecked, on a chain whose base starts with
    _ends(matching).  Backtrack over that chain: a branch dies as soon as a
    matched vertex heads outside the matching or b_j's image is not the
    partner of a_j's.
    """
    partner = matching.partner_map()
    ends = len(partner)

    def keep(level: int, img: int, imgs: list[int]) -> bool:
        # the 2m ends were sent onto the 2m matched vertices, so later images miss them
        return level >= ends or img in partner and (
            level % 2 == 0 or partner[img] == imgs[level - 1])

    keys, edges = matching.edge_keys(), matching.edges

    def test(p: Perm) -> bool:
        im = p.images
        return all(frozenset((im[a], im[b])) in keys for a, b in edges)

    return subgroup_search(chain, test, prune=keep)


@dataclass(frozen=True)
class MatchingReport:
    """How a group acts on an m-matching.

    is_matching is always True: reports are only produced for validated
    matchings (invalid input raises instead).
    """

    matching: Matching
    m: int
    is_matching: bool
    is_perfect: bool
    group_order: int
    stabilizer_order: int
    induced_order: int
    permutable: bool
    two_transitive: bool
    induced_generators: tuple[Perm, ...]

    def passes(self, mode: str) -> bool:
        """Does the induced action meet the normalized mode?"""
        return self.permutable if mode == MODE_PERMUTABLE else self.two_transitive

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["matching"] = str(self.matching)
        out["induced_generators"] = [list(p.images) for p in self.induced_generators]
        return out


def matching_report(g: Graph, matching: Matching,
                    group: PermGroup | None = None) -> MatchingReport:
    """Full symmetry report; group defaults to the automorphism group of g."""
    group = _group_or_aut(g, group)
    return _report(g, group, matching, matching_stabilizer(g, group, matching))


def _report(g: Graph, group: PermGroup, matching: Matching, stab: PermGroup) -> MatchingReport:
    """The report of the matching, given its stabilizer in the group."""
    image = induced_action(stab, [set(e) for e in matching])
    m = len(matching)
    induced_order = image.order()
    return MatchingReport(
        matching=matching,
        m=m,
        is_matching=True,
        is_perfect=2 * m == g.n,
        group_order=group.order(),
        stabilizer_order=stab.order(),
        induced_order=induced_order,
        permutable=induced_order == math.factorial(m),
        two_transitive=is_2transitive(image),
        induced_generators=image.generators,
    )


Edge = tuple[int, int]  # (u, v) with u < v


def _on_edge(im: tuple[int, ...], e: Edge) -> Edge:
    a, b = im[e[0]], im[e[1]]
    return (a, b) if a < b else (b, a)


def _on_tuple(im: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(im.__getitem__, t))


def _edge_orbits(group: PermGroup, edges: list[Edge]) -> list[dict[Edge, tuple[Edge, int] | None]]:
    """Orbits of the group on the given edges, which must be closed under
    it, as Schreier trees (see perms.orbits) rooted at their least edges."""
    trees = orbits(group.generators, sorted(edges), _on_edge)
    if sum(map(len, trees)) != len(edges):
        raise AssertionError("edge set not closed under the group")
    return trees


def _in_pair_orbit(orbit: dict, inverses: list[tuple[int, ...]], e1_orbit: dict,
                   a: Edge, b: Edge) -> bool:
    """Is (a, b) in the group orbit of the ordered edge pair (e0, e1)?

    orbit is the Schreier tree of the edge orbit of e0, spelling t_a sending
    e0 to a; inverses are the generators' inverse images; e1_orbit is the orbit
    of e1 under the setwise stabilizer of e0.  Every element sending e0 to a
    is h * t_a with h fixing e0, so the test is whether b^(t_a^-1), found by
    walking the tree from a back to e0, lies in e1_orbit.
    """
    while orbit[a] is not None:
        a, k = orbit[a]
        b = _on_edge(inverses[k], b)
    return b in e1_orbit


def find_matching(g: Graph, group: PermGroup | None, m: int,
                  mode: str) -> Matching | None:
    """Search for an m-matching that is permutable / 2-transitive under the
    group (default: the automorphism group); None when none exists.

    Exhaustive up to group equivalence: each partial matching is extended by
    one representative edge per orbit of its setwise stabilizer on the
    remaining candidates, the least edge of that orbit.  In either mode the
    induced action swaps any two matching edges, so every edge of a witness
    lies in one edge orbit of the group, and with (e0, e1) its first two
    edges, every ordered pair of its edges lies in the group orbit of
    (e0, e1), which must contain (e1, e0); candidates are pruned
    accordingly.  That orbit is never listed: membership is tested exactly
    through the Schreier tree of the edge orbit of e0 and the orbit of e1
    under the setwise stabilizer of e0 (see _in_pair_orbit).  Each partial
    matching's stabilizer is searched on its parent's chain rebased onto its
    last edge, and its candidates are its parent's that pass the tests on
    that edge.
    """
    mode = normalize_mode(mode)
    if m < 1:
        raise ValueError("m must be positive")
    group = _group_or_aut(g, group)
    if 2 * m > g.n:
        return None
    visited: set[frozenset[Edge]] = set()
    inverses = [p.inverse().images for p in group.generators]
    for orbit in _edge_orbits(group, g.edges()):
        # depth first: (partial, parent's chain, parent's candidates, e1_orbit)
        stack = [([next(iter(orbit))], group, orbit, None)]
        while stack:
            partial, parent, pool, e1_orbit = stack.pop()
            key = frozenset(partial)
            if key in visited:
                continue  # a leaf too: its verdict does not depend on edge order
            visited.add(key)
            cand = Matching(partial)
            # parent's base starts with the ends of partial[:-1], so its levels
            # are kept and only the last edge's two points cost anything
            chain = parent.rebase(_ends(cand))
            stab = _stabilizer(chain, cand)
            if len(partial) == m:
                if _report(g, group, cand, stab).passes(mode):
                    return cand
                continue
            # pool, the parent's candidates (e1_orbit at the second edge, since
            # (e0, e) is in the orbit of (e0, e1) exactly when e is in e1_orbit),
            # already meets every test on partial[:-1]
            a, b = partial[-1]
            candidates = [e for e in pool if a not in e and b not in e and (
                e1_orbit is None or _in_pair_orbit(orbit, inverses, e1_orbit, partial[-1], e))]
            if len(candidates) < m - len(partial):
                continue
            for sub in reversed(_edge_orbits(stab, candidates)):  # popped in orbit order
                e = next(iter(sub))
                if e1_orbit is not None:
                    stack.append((partial + [e], chain, candidates, e1_orbit))
                elif _in_pair_orbit(orbit, inverses, sub, e, partial[0]):
                    # the second edge: some group element can swap it with the first
                    stack.append((partial + [e], chain, sub, sub))
    return None


# ---------------------------------------------------------------------------
# transitivity flavors on graphs


def _arc_tree(g: Graph, group: PermGroup, s: int) -> dict | None:
    """The Schreier tree (see perms.orbits) of the group's orbit on s-arcs
    (s = 1, 2) through the least s-arc, or None unless that orbit holds
    every s-arc; {} when g has no s-arc.  A 2-arc (a, b, c) has a != c."""
    arcs = ((a, b) for a in range(g.n) for b in g.neighbors(a))
    if s == 2:
        arcs = ((a, b, c) for a, b in arcs for c in g.neighbors(b) if c != a)
    start = next(arcs, None)
    if start is None:
        return {}
    (tree,) = orbits(group.generators, [start], _on_tuple)
    total = sum(g.degree(v) * (g.degree(v) - 1) ** (s - 1) for v in range(g.n))
    return tree if len(tree) == total else None


def is_arc_transitive(g: Graph, group: PermGroup | None = None) -> bool:
    """One orbit on ordered adjacent pairs (vacuous without edges)."""
    return _arc_tree(g, _group_or_aut(g, group), 1) is not None


def is_2arc_transitive(g: Graph, group: PermGroup | None = None) -> bool:
    """One orbit on ordered paths (a, b, c) with a != c."""
    return _arc_tree(g, _group_or_aut(g, group), 2) is not None


def _local_image(g: Graph, group: PermGroup, v: int) -> PermGroup:
    stab = group.pointwise_stabilizer((v,))
    return induced_action(stab, [(u,) for u in g.neighbors(v)])


def is_locally_primitive(g: Graph, group: PermGroup | None = None) -> bool:
    """Every vertex stabilizer acts primitively on that vertex's neighbors."""
    group = _group_or_aut(g, group)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    for orbit in group.orbits():
        image = _local_image(g, group, orbit[0])
        if not is_transitive(image):
            return False
        if not is_primitive(image):
            return False
    return True


def is_locally_symmetric(g: Graph, group: PermGroup | None = None) -> bool:
    """Vertex-transitive with the full symmetric group on each neighborhood."""
    group = _group_or_aut(g, group)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not is_transitive(group):
        return False
    image = _local_image(g, group, 0)
    return image.order() == math.factorial(g.degree(0))


def degree_bound_check(g: Graph, group: PermGroup, matching: Matching) -> bool:
    """For a permutable m-matching in a connected arc-transitive graph, the
    degree must be at least m, except for 3-matchings in cycles of length
    divisible by 3.  A False return is a counterexample to that bound."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    group = _group_or_aut(g, group)
    if not is_arc_transitive(g, group):
        raise ValueError("group is not arc-transitive on the graph")
    report = matching_report(g, matching, group)
    if not report.permutable:
        raise ValueError("matching is not permutable under the group")
    m = len(matching)
    deg = min(g.degree(v) for v in range(g.n))
    if deg >= m:
        return True
    is_cycle = all(g.degree(v) == 2 for v in range(g.n))
    return m == 3 and is_cycle and g.n % 3 == 0

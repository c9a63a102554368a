"""The subgroup search and matching route that permatch used before its
search was pruned by the subgroup found: the reference for subgroup orders,
basic orbits, stabilizer orders and find_matching witnesses.

subgroup_search scans every point of every basic orbit and spells a whole
permutation at each step down the tree; matching_stabilizer rebases the
full group onto the sorted matched vertices for every matching, and
find_matching calls it once per partial matching.  It is slow, and it
shares only the chains, rebase and edge-orbit helpers with the library,
not the pruning, the carried tree paths or the chain passed down a branch,
so the tests compare the two routes.
"""

import math

from permatch import Matching, Perm, PermGroup, check_group_action, induced_action, is_2transitive
from permatch.graphs import validate_matching
from permatch.matchings import (_edge_orbits, _group_or_aut, _in_pair_orbit, normalize_mode,
                                MODE_PERMUTABLE)
from permatch.perms import _spell


def subgroup_search(group, test, prune=None):
    """H = {g in group : test(g)} with its chain on the group's base: for
    each level i, deepest first, and each d != b_i in the basic orbit of
    b_i, the first element fixing b_0..b_{i-1}, sending b_i to d and
    passing test.  Those elements are a transversal of each level."""
    levels = group._levels
    k = len(levels)
    base_pts = [lvl.point for lvl in levels]
    basic = [sorted(lvl.tree) for lvl in levels]
    ims = [[g.images for g in lvl.gens] for lvl in levels]
    ident = tuple(range(group.degree))
    found = []

    def extend(i, w, imgs):
        if i == k:
            p = Perm._raw(w)
            return p if test(p) else None
        for d in basic[i]:
            img = w[d]
            if prune is not None and not prune(i, img, imgs):
                continue
            imgs.append(img)
            r = extend(i + 1, _spell(levels[i].tree, ims[i], d, w), imgs)
            imgs.pop()
            if r is not None:
                return r
        return None

    for i in range(k - 1, -1, -1):
        prefix = base_pts[:i]
        for d in basic[i]:
            if d == levels[i].point:
                continue
            if prune is not None and not prune(i, d, prefix):
                continue
            g = extend(i + 1, _spell(levels[i].tree, ims[i], d, ident), prefix + [d])
            if g is not None:
                found.append(g)
    return PermGroup._from_strong_generators(base_pts, found, group.degree)


def matching_stabilizer(g, group, matching):
    """The setwise stabilizer of the matching's edge set, searched on the
    full group rebased onto the sorted matched vertices."""
    validate_matching(g, matching)
    check_group_action(g, group)
    matched = matching.vertices()
    if not matched:
        return group
    partner = matching.partner_map()
    keys = matching.edge_keys()
    rebased = group.rebase(matched)
    base = rebased.base
    pos_of = {b: i for i, b in enumerate(base)}

    def keep(level, img, imgs):
        b = base[level]
        if (b in partner) != (img in partner):
            return False
        if b in partner:
            jq = pos_of.get(partner[b])
            if jq is not None and jq < level and imgs[jq] != partner[img]:
                return False
        return True

    def test(p):
        im = p.images
        return all(frozenset((im[a], im[b])) in keys for a, b in matching.edges)

    return subgroup_search(rebased, test, prune=keep)


def passes(g, group, matching, mode):
    """Does the stabilizer's action on the edges meet the mode?"""
    image = induced_action(matching_stabilizer(g, group, matching), [set(e) for e in matching])
    if mode == MODE_PERMUTABLE:
        return image.order() == math.factorial(len(matching))
    return is_2transitive(image)


def find_matching(g, group, m, mode):
    """find_matching with one matching_stabilizer from the full group per
    partial matching and the candidates of each recomputed from the whole
    edge orbit."""
    mode = normalize_mode(mode)
    group = _group_or_aut(g, group)
    if 2 * m > g.n:
        return None
    visited = set()
    invs = [p.inverse().images for p in group.generators]

    def extend(partial, orbit, e1_orbit):
        if len(partial) == m:
            cand = Matching(partial)
            return cand if passes(g, group, cand, mode) else None
        key = frozenset(partial)
        if key in visited:
            return None
        visited.add(key)
        stab = matching_stabilizer(g, group, Matching(partial))
        used = {x for e in partial for x in e}
        candidates = [e for e in orbit if e[0] not in used and e[1] not in used
                      and (e1_orbit is None or all(
                          _in_pair_orbit(orbit, invs, e1_orbit, f, e) for f in partial))]
        if len(candidates) < m - len(partial):
            return None
        for sub in _edge_orbits(stab, candidates):
            e = next(iter(sub))
            if len(partial) == 1 and not _in_pair_orbit(orbit, invs, sub, e, partial[0]):
                continue
            result = extend(partial + [e], orbit, sub if len(partial) == 1 else e1_orbit)
            if result is not None:
                return result
        return None

    for orbit in _edge_orbits(group, g.edges()):
        result = extend([next(iter(orbit))], orbit, None)
        if result is not None:
            return result
    return None

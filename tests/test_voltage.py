"""Voltage assignments, derived covers, and lifted symmetry.

Cover adjacency is checked directly against the defining rule
(u, h) ~ (v, h + voltage(u, v)); lifts are checked to commute with the
fiber projection; small covers are identified up to isomorphism.
"""

import json
import random
import time
from collections import deque
from itertools import product

import pytest

from permatch import (
    Graph,
    Matching,
    Perm,
    PermGroup,
    VoltageAssignment,
    are_isomorphic,
    automorphism_group,
    complete,
    complete_bipartite,
    covering_transformations,
    cycle,
    cycle_system_matching,
    derived_cover,
    hypercube,
    is_connected,
    lift_automorphism,
    lift_group,
    lift_matching_in_tree,
    matching_report,
    path_graph,
    petersen,
    spanning_tree,
    standard_assignment,
)


def group_elements(grp):
    ident = Perm(tuple(range(grp.degree)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for gen in grp.generators:
            nxt = cur * gen
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return list(seen)


def tree_is_acyclic_spanning(g, tree):
    seen = {0}
    adj = {v: [] for v in range(g.n)}
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(tree) == g.n - 1 and len(seen) == g.n


def test_spanning_tree():
    for g in (complete(4), petersen(), cycle(9), hyper8()):
        tree = spanning_tree(g)
        assert tree_is_acyclic_spanning(g, tree)
        assert all(g.has_edge(u, v) for u, v in tree)

    g = petersen()
    spokes = [(i, i + 5) for i in range(5)]
    tree = spanning_tree(g, spokes)
    assert tree_is_acyclic_spanning(g, tree)
    assert all((u, v) in tree for u, v in spokes)

    with pytest.raises(ValueError):
        spanning_tree(cycle(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        spanning_tree(cycle(4), [(0, 2)])
    # ends outside 0..n-1 are not edges, though a negative index would wrap
    for bad in ((99, 0), (0, 99), (-1, 0)):
        with pytest.raises(ValueError, match="not an edge"):
            spanning_tree(cycle(4), [bad])
    disconnected = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        spanning_tree(disconnected)


def hyper8():
    return hypercube(3)


def test_standard_assignment_shape():
    g = complete(4)
    xi = standard_assignment(g, 2, spanning_tree(g))
    assert xi.k == 3 and xi.p == 2
    for u, v in xi.tree:
        assert xi.voltage(u, v) == (0, 0, 0)
    basis = {xi.voltage(u, v) for u, v in xi.cotree}
    assert basis == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # antisymmetry
    for u, v in g.edges():
        vec = xi.voltage(u, v)
        neg = xi.voltage(v, u)
        assert all((a + b) % 2 == 0 for a, b in zip(vec, neg))
    with pytest.raises(ValueError):
        xi.voltage(0, 0)

    assert standard_assignment(petersen(), 2, spanning_tree(petersen())).k == 6
    assert standard_assignment(cycle(6), 3, spanning_tree(cycle(6))).k == 1
    for p in (0, 1, 4, -3):
        with pytest.raises(ValueError, match="p must be prime"):
            standard_assignment(g, p, spanning_tree(g))


def test_assignment_validation():
    g = cycle(4)
    tree = spanning_tree(g)
    (cot,) = [e for e in g.edges() if e not in tree]
    VoltageAssignment(g, 5, tree, {cot: (3,)})
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, tree, {cot: (0,)})  # does not generate Z_5
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, tree, {cot: (1, 0)})  # wrong length
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, {(0, 2)}, {})  # not edges of the graph


def test_assignment_json_round_trip():
    g = petersen()
    xi = standard_assignment(g, 3, spanning_tree(g))
    data = json.loads(json.dumps(xi.to_json_dict()))
    back = VoltageAssignment.from_json_dict(g, data)
    assert back.p == xi.p and back.k == xi.k and back.tree == xi.tree
    for u, v in g.edges():
        assert back.voltage(u, v) == xi.voltage(u, v)
    bad = json.loads(json.dumps(xi.to_json_dict()))
    tree_edge = sorted(xi.tree)[0]
    bad["voltages"]["%d-%d" % tree_edge] = [1]
    with pytest.raises(ValueError):
        VoltageAssignment.from_json_dict(g, bad)
    # the modulus is checked before any arithmetic uses it
    for p in (0, 1, 4, -3):
        bad = dict(xi.to_json_dict(), p=p)
        with pytest.raises(ValueError, match=r"p must be prime \(got %d\)" % p):
            VoltageAssignment.from_json_dict(g, bad)


def test_walk_voltage_algebra():
    g = petersen()
    xi = standard_assignment(g, 5, spanning_tree(g))
    rng = random.Random(17)
    for _ in range(30):
        # random closed-ish walks by concatenating neighbor steps
        walk = [rng.randrange(10)]
        for _ in range(6):
            walk.append(rng.choice(g.neighbors(walk[-1])))
        a = xi.walk_voltage(walk)
        rev = xi.walk_voltage(list(reversed(walk)))
        assert all((x + y) % 5 == 0 for x, y in zip(a, rev))
        cut = rng.randrange(1, len(walk))
        head = xi.walk_voltage(walk[: cut + 1])
        tail = xi.walk_voltage(walk[cut:])
        assert a == tuple((x + y) % 5 for x, y in zip(head, tail))
    # tree paths carry zero voltage, fundamental cycles carry the basis
    paths = {0: (0,)}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in g.neighbors(u):
            if v not in paths and (min(u, v), max(u, v)) in xi.tree:
                paths[v] = paths[u] + (v,)
                frontier.append(v)
    assert sorted(paths) == list(range(10))
    for v in range(10):
        assert xi.walk_voltage(paths[v]) == (0,) * xi.k
    for i, (u, v) in enumerate(xi.cotree):
        cyc = paths[u] + tuple(reversed(paths[v]))
        assert xi.walk_voltage(cyc) == tuple(1 if j == i else 0 for j in range(xi.k))


def test_cycle_covers_are_cycles():
    for n, p in ((3, 3), (4, 2), (5, 2), (3, 5)):
        g = cycle(n)
        cov = derived_cover(standard_assignment(g, p, spanning_tree(g)))
        assert cov.graph.n == n * p
        assert are_isomorphic(cov.graph, cycle(n * p)) is not None


def test_cover_adjacency_rule():
    g = complete(4)
    xi = standard_assignment(g, 3, spanning_tree(g))
    cov = derived_cover(xi)
    assert cov.graph.n == 4 * 27
    for u, v in g.edges():
        vec = xi.voltage(u, v)
        for h in product(range(3), repeat=3):
            h2 = tuple((a + b) % 3 for a, b in zip(h, vec))
            assert cov.graph.has_edge(cov.vertex_id(u, h), cov.vertex_id(v, h2))
    # and nothing else: degrees match the base everywhere
    for idx in range(cov.graph.n):
        base_v, _ = cov.fiber_of(idx)
        assert cov.graph.degree(idx) == g.degree(base_v)
    assert is_connected(cov.graph)


def test_cover_fiber_bookkeeping():
    g = petersen()
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    assert cov.graph.n == 640
    part = cov.fiber_partition()
    assert len(part) == 10 and all(len(f) == 64 for f in part)
    assert sorted(v for f in part for v in f) == list(range(640))
    idx = cov.vertex_id(7, (1, 0, 1, 0, 0, 1))
    v, h = cov.fiber_of(idx)
    assert (v, h) == (7, (1, 0, 1, 0, 0, 1))
    fj = cov.to_fiber_json()
    assert fj[str(idx)] == [7, [1, 0, 1, 0, 0, 1]]
    assert cov.vertex_id(3, (0,) * 6) == 3  # zero fiber keeps base ids


def test_cover_cap():
    g = petersen()
    xi = standard_assignment(g, 2, spanning_tree(g))
    with pytest.raises(ValueError):
        derived_cover(xi, max_vertices=100)


def test_covering_transformations_are_free():
    g = complete(4)
    aut = automorphism_group(g)
    for p in (2, 3):
        cov = derived_cover(standard_assignment(g, p, spanning_tree(g)))
        ct = covering_transformations(cov)
        assert ct.order() == p ** 3
        # membership against the brute closure of the translations, both ways
        closure = group_elements(ct)
        assert len(closure) == ct.order() and all(t in ct for t in closure)
        for a in aut.generators:
            lift = lift_automorphism(cov, a)
            assert not any(lift * t in ct for t in closure)
        for t in closure:
            if t.is_identity():
                continue
            assert all(t.apply(i) != i for i in range(cov.graph.n))
            assert cov.graph.is_automorphism(t)
            # translations stay inside fibers
            assert all(t.apply(i) % 4 == i % 4 for i in range(cov.graph.n))


def test_lift_commutes_with_projection():
    for g in (complete(4), cycle(6), complete_bipartite(3, 3)):
        xi = standard_assignment(g, 2, spanning_tree(g))
        cov = derived_cover(xi)
        n = g.n
        aut = automorphism_group(g)
        for a in aut.generators:
            lift = lift_automorphism(cov, a)
            assert cov.graph.is_automorphism(lift)
            for idx in range(cov.graph.n):
                assert lift.apply(idx) % n == a.apply(idx % n)
        ident = lift_automorphism(cov, Perm(tuple(range(n))))
        assert ident.is_identity()


def test_lift_group_orders():
    g = complete(4)
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    lifted = lift_group(cov, automorphism_group(g))
    assert lifted.order() == 24 * 8
    for p in lifted.generators:
        assert cov.graph.is_automorphism(p)

    g = cycle(6)
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    assert lift_group(cov, automorphism_group(g)).order() == 24


def test_lift_group_chain_matches_full_schreier_sims():
    # lift_group stops its Schreier-Sims once the chain reaches |G| * p^k;
    # the chain must describe the group a full run builds
    rng = random.Random(2017)
    for base, p in ((petersen(), 2), (complete(4), 3)):
        cov = derived_cover(standard_assignment(base, p, spanning_tree(base)))
        n = cov.graph.n
        lifted = lift_group(cov, automorphism_group(base))
        full = PermGroup(lifted.generators, degree=n)
        assert lifted.order() == full.order()
        for a, b in ((lifted, full), (full, lifted)):
            assert all(s in b for s in a.generators + a.strong_generators)
        for _ in range(25):
            w = Perm.identity(n)
            for _ in range(10):
                w = w * rng.choice(lifted.generators)
            assert w in lifted and w in full
            other = w * Perm.from_cycles(n, [rng.sample(range(n), 2)])
            assert (other in lifted) == (other in full)
            images = list(range(n))
            rng.shuffle(images)
            assert (Perm(images) in lifted) == (Perm(images) in full)


def test_lift_group_at_cover_scale():
    base = complete(5)
    cov = derived_cover(standard_assignment(base, 3, spanning_tree(base)))
    aut = automorphism_group(base)
    started = time.perf_counter()
    lifted = lift_group(cov, aut)
    assert time.perf_counter() - started < 5.0
    assert cov.graph.n == 3645 and lifted.order() == 120 * 3 ** 6


def test_lifts_compose_up_to_covering_transformations():
    # lifting is a homomorphism modulo the covering transformations:
    # lift(a) * lift(b) and lift(a * b) differ by a translation
    g = complete(4)
    elements = group_elements(automorphism_group(g))
    rng = random.Random(3)
    for p in (2, 3):
        cov = derived_cover(standard_assignment(g, p, spanning_tree(g)))
        ct = covering_transformations(cov)
        ident = lift_automorphism(cov, Perm.identity(4))
        assert ident.is_identity()
        for _ in range(10):
            a, b = rng.choice(elements), rng.choice(elements)
            la, lb = lift_automorphism(cov, a), lift_automorphism(cov, b)
            assert la * lb * lift_automorphism(cov, a * b).inverse() in ct
            assert (la * lift_automorphism(cov, a.inverse())).is_identity()
    cov4 = derived_cover(standard_assignment(cycle(4), 2, spanning_tree(cycle(4))))
    with pytest.raises(ValueError):
        lift_automorphism(cov4, Perm((1, 0, 2, 3)))  # not an automorphism of C4


def path_lift(cover, images, start):
    """The cover map over the base map `images` that sends vertex 0 to
    start, by path lifting on the cover's adjacency alone: breadth-first
    from vertex 0, each neighbour over w goes to the unique neighbour of
    the image over images[w].  Asserts that the lifted walks agree."""
    g, n = cover.graph, cover.base.n
    lift = [None] * g.n
    lift[0] = start
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for w in g.neighbors(x):
            (y,) = [z for z in g.neighbors(lift[x]) if z % n == images[w % n]]
            if lift[w] is None:
                lift[w] = y
                queue.append(w)
            assert lift[w] == y
    return Perm(lift)


def test_lifts_match_path_lifting():
    rng = random.Random(2000)
    cases = ((complete(4), 3), (hypercube(3), 2), (petersen(), 2), (cycle(6), 5),
             (complete_bipartite(3, 3), 2))
    for g, p in cases:
        cov = derived_cover(standard_assignment(g, p, spanning_tree(g)))
        gens = automorphism_group(g).generators
        words = []
        for _ in range(5):
            w = Perm.identity(g.n)
            for _ in range(8):
                w = w * rng.choice(gens)
            words.append(w)
        for a in list(gens) + words:
            # the lift fixes the zero vector over the root: (0, 0) -> (a(0), 0)
            assert lift_automorphism(cov, a) == path_lift(cov, a.images, a.apply(0))
        basis = [tuple(int(i == j) for j in range(cov.k)) for i in range(cov.k)]
        translations = [path_lift(cov, range(g.n), cov.vertex_id(0, e)) for e in basis]
        assert list(covering_transformations(cov).generators) == translations


def test_lift_matching_in_tree():
    g = cycle(6)
    m = Matching([(0, 1), (2, 3), (4, 5)])
    tree = spanning_tree(g, m.edges)
    cov = derived_cover(standard_assignment(g, 2, tree))
    lifted = lift_matching_in_tree(cov, m)
    assert lifted.edges == m.edges  # zero fiber keeps base ids
    for a, b in lifted.edges:
        assert cov.graph.has_edge(a, b)
        assert cov.fiber_of(a)[1] == (0,) and cov.fiber_of(b)[1] == (0,)

    # a tree that misses a matching edge is rejected
    cov2 = derived_cover(standard_assignment(g, 2, spanning_tree(g, [(1, 2)])))
    tree2 = cov2.assignment.tree
    missing = [e for e in m.edges if (min(e), max(e)) not in tree2]
    if missing:
        with pytest.raises(ValueError):
            lift_matching_in_tree(cov2, m)


def test_lifted_spanning_matchings_lose_permutability():
    # lifting a perfect matching inside a spanning tree pins the lifted
    # stabilizer to tree-preserving symmetries, which cannot induce the
    # full symmetric group on three or more matching edges
    cases = [
        (cycle(6), Matching([(0, 1), (2, 3), (4, 5)]), 2, 2),
        (complete_bipartite(3, 3), Matching([(0, 3), (1, 4), (2, 5)]), 2, 2),
        (petersen(), Matching([(i, i + 5) for i in range(5)]), 4, 4),
    ]
    for g, m, stab, induced in cases:
        tree = spanning_tree(g, m.edges)
        cov = derived_cover(standard_assignment(g, 2, tree))
        lifted_group = lift_group(cov, automorphism_group(g))
        rep = matching_report(cov.graph, lift_matching_in_tree(cov, m),
                              lifted_group)
        assert rep.stabilizer_order == stab
        assert rep.induced_order == induced
        assert not rep.permutable


def test_cycle_system_matching_on_tetrahedron():
    g = complete(4)
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    m = cycle_system_matching(cov, 0, triangles)
    got = {(cov.fiber_of(a), cov.fiber_of(b)) for a, b in m.edges}
    assert got == {
        ((0, (1, 1, 0)), (1, (1, 1, 0))),
        ((0, (1, 0, 1)), (2, (1, 0, 1))),
        ((0, (0, 1, 1)), (3, (0, 1, 1))),
    }
    rep = matching_report(cov.graph, m, lift_group(cov, automorphism_group(g)))
    assert rep.stabilizer_order == 6
    assert rep.induced_order == 6
    assert rep.permutable

    with pytest.raises(ValueError):
        cycle_system_matching(cov, 0, [(0, 1, 2)])  # 2-paths not all covered
    with pytest.raises(ValueError):
        cycle_system_matching(cov, 9, triangles)


def test_cycle_system_matching_accepts_system_object():
    from permatch import CycleSystem

    g = complete(4)
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    sys_obj = CycleSystem(3, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    m1 = cycle_system_matching(cov, 0, sys_obj)
    m2 = cycle_system_matching(cov, 0, sys_obj.cycles)
    assert m1.edges == m2.edges

"""Voltage assignments, derived covers, and lifted symmetry.

Cover adjacency is checked directly against the defining rule
(u, h) ~ (v, h + voltage(u, v)); lifts are checked to commute with the
fiber projection; small covers are identified up to isomorphism.
"""

import random
import time
import tracemalloc
from collections import deque
from itertools import product

import pytest

from permatch import (
    CycleSystem,
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
    near_polygonal_certificate,
    path_graph,
    petersen,
    spanning_tree,
    standard_assignment,
)
from closure_oracle import brute_closure


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
    assert VoltageAssignment(g, 5, tree, [(3,)]).voltage(*cot) == (3,)
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, tree, [(0,)])  # does not generate Z_5
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, tree, [(1, 0)])  # wrong length
    with pytest.raises(ValueError):
        VoltageAssignment(g, 5, {(0, 2)}, [])  # not edges of the graph
    with pytest.raises(ValueError, match="tree does not span the graph"):
        # a triangle of K_4 has 3 edges, as a spanning tree would
        VoltageAssignment(complete(4), 3, {(0, 1), (1, 2), (0, 2)}, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    g = petersen()
    tree = spanning_tree(g)
    cotree = [e for e in g.edges() if e not in tree]
    # unitriangular, so the vectors generate Z_3^6
    vectors = [tuple(int(j >= i) * (1 + (i + j) % 2) for j in range(6)) for i in range(6)]
    listed = VoltageAssignment(g, 3, tree, vectors)
    assert [listed.voltage(*e) for e in cotree] == vectors
    assert listed.to_json_dict() == VoltageAssignment(g, 3, tree, tuple(vectors)).to_json_dict()
    with pytest.raises(ValueError, match=r"need 6 cotree voltages \(got 5\)"):
        VoltageAssignment(g, 3, tree, vectors[:5])
    assert standard_assignment(g, 3, tree).to_json_dict() == \
        VoltageAssignment(g, 3, tree, [tuple(int(e == f) for f in cotree)
                                       for e in cotree]).to_json_dict()


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
    assert part[7] == [cov.vertex_id(7, h) for h in cov.vectors]
    assert idx in part[7]
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
        closure = [Perm(t) for t in brute_closure(ct.generators, ct.degree)]
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


def test_lift_group_under_non_identity_voltages():
    # M_a = V^-1 R_a: with V the cotree voltages as rows, R_a is M_a only when V = I
    k4 = complete(4)
    skew = VoltageAssignment(k4, 3, spanning_tree(k4), [(1, 1, 0), (0, 1, 0), (0, 0, 1)])
    cases = [(skew, 648)]
    rng = random.Random(2017)
    for g, p, order in ((complete(4), 5, 3000), (petersen(), 2, 7680),
                        (hypercube(3), 2, 1536), (complete(5), 2, 7680)):
        k = g.num_edges - g.n + 1
        while True:
            vectors = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(k)]
            try:
                cases.append((VoltageAssignment(g, p, spanning_tree(g), vectors), order))
                break
            except ValueError:
                continue  # a singular draw
    for xi, order in cases:
        cov = derived_cover(xi)
        base_group = automorphism_group(xi.base)
        lifted = lift_group(cov, base_group)
        assert lifted.order() == order == automorphism_group(cov.graph).order()
        for a in base_group.generators:
            assert lift_automorphism(cov, a) in lifted
    with pytest.raises(ValueError, match="do not generate"):
        VoltageAssignment(k4, 3, spanning_tree(k4), [(1, 1, 0), (2, 2, 0), (0, 0, 1)])


def test_star_pipeline_verifies_each_lifted_generator_once(monkeypatch):
    g = complete(4)
    cov = derived_cover(standard_assignment(g, 3, spanning_tree(g)))
    matching = cycle_system_matching(cov, 0, near_polygonal_certificate(g))
    base_group = automorphism_group(g)
    checked = []
    original = Graph.is_automorphism

    def counted(self, p):
        if self is cov.graph:
            checked.append(p)
        return original(self, p)

    monkeypatch.setattr(Graph, "is_automorphism", counted)
    lifted = lift_group(cov, base_group)
    assert matching_report(cov.graph, matching, lifted).permutable
    assert checked == list(lifted.generators)


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


def test_is_automorphism_builds_no_relabeled_copy():
    # the 8,788-vertex K_4 p = 13 cover: checking a lift walks the neighbour
    # tuples in place, so the check allocates a row at a time, not a graph
    base = complete(4)
    cov = derived_cover(standard_assignment(base, 13, spanning_tree(base)))
    assert cov.graph.n == 8788
    lifts = [lift_automorphism(cov, a) for a in automorphism_group(base).generators]
    swap = Perm.from_cycles(cov.graph.n, [(0, 1)])
    tracemalloc.start()
    try:
        assert all(cov.graph.is_automorphism(lift) for lift in lifts)
        assert not cov.graph.is_automorphism(swap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_lifts_compose_up_to_covering_transformations():
    # lifting is a homomorphism modulo the covering transformations:
    # lift(a) * lift(b) and lift(a * b) differ by a translation
    g = complete(4)
    elements = [Perm(t) for t in sorted(brute_closure(automorphism_group(g).generators, g.n))]
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
    triangles = CycleSystem(3, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
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
        cycle_system_matching(cov, 0, CycleSystem(3, ((0, 1, 2),)))  # 2-paths not all covered
    with pytest.raises(ValueError):
        cycle_system_matching(cov, 9, triangles)


def per_pair_star_matching(cover, alpha, cycles):
    """Reference for cycle_system_matching: for every ordered pair of
    neighbours (b_i, b_j) of alpha, scan all cycles for the one through
    (b_i, alpha, b_j) and add its voltage from alpha toward b_i to h_i."""
    xi = cover.assignment
    if not 0 <= alpha < cover.base.n:
        raise ValueError("alpha out of range")
    nbrs = cover.base.neighbors(alpha)
    pairs = []
    for bi in nbrs:
        h = (0,) * xi.k
        for bj in nbrs:
            if bj == bi:
                continue
            hits = [(c, c.index(alpha)) for c in cycles if alpha in c
                    and {c[c.index(alpha) - 1], c[(c.index(alpha) + 1) % len(c)]} == {bi, bj}]
            if len(hits) != 1:
                raise ValueError("2-path (%d, %d, %d) lies in %d cycles, need exactly 1"
                                 % (bi, alpha, bj, len(hits)))
            c, t = hits[0]
            seq = c[t:] + c[:t]
            if seq[1] != bi:
                seq = seq[:1] + seq[:0:-1]
            w = xi.walk_voltage(seq + (alpha,))
            h = tuple((x + y) % xi.p for x, y in zip(h, w))
        shift = tuple((x + y) % xi.p for x, y in zip(h, xi.voltage(alpha, bi)))
        pairs.append((cover.vertex_id(alpha, h), cover.vertex_id(bi, shift)))
    return Matching(pairs)


def outcome(fn, *args):
    try:
        return str(fn(*args))
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_star_matchings_match_per_pair_scan():
    # answers and first errors agree with the per-pair scan on valid cycle
    # systems and on systems with a cycle dropped, repeated, or bent
    # through a non-edge
    for g in (complete(4), complete(5), hypercube(3)):
        cycles = list(near_polygonal_certificate(g).cycles)
        variants = [cycles, [c[::-1] for c in cycles], []]
        variants += [cycles[:i] + cycles[i + 1:] for i in range(len(cycles))]
        variants += [cycles + [c] for c in cycles]
        far = g.n - 1  # for Q_3: antipodal to 0, adjacent to no neighbour of 0
        for c in cycles:
            if 0 in c and len(c) > 3:
                t = c.index(0)
                bent = (0, c[(t + 1) % 4], far, c[t - 1])
                variants.append([bent if d == c else d for d in cycles])
                variants += [[bent if d == c else d for d in cycles if d != e]
                             for e in cycles if e != c and 0 in e]
        for p in (2, 3):
            cov = derived_cover(standard_assignment(g, p, spanning_tree(g)))
            for system in variants:
                for alpha in range(-1, g.n + 1):
                    expected = outcome(per_pair_star_matching, cov, alpha, system)
                    assert outcome(cycle_system_matching, cov, alpha,
                                   CycleSystem(len(cycles[0]), tuple(system))) == expected


def test_tree_and_matching_inputs_are_checked():
    g = cycle(4)
    with pytest.raises(ValueError, match="tree has wrong size"):
        VoltageAssignment(g, 5, g.edges(), [])  # n edges: a cycle, no tree
    tree = spanning_tree(g)
    (cot,) = [e for e in g.edges() if e not in tree]
    cover = derived_cover(standard_assignment(g, 2, tree))
    with pytest.raises(ValueError, match="is not in the tree"):
        lift_matching_in_tree(cover, Matching([cot]))

"""Acceptance gate: the eleven end-to-end scenarios the package must satisfy.

Each test states its runtime budget and checks it; all comparisons are
exact.  Two sub-claims that turn out to be mathematically false are kept
as strict expected failures with the counterexample in the reason string.
"""

import math
import random
import time
from itertools import combinations, permutations

import pytest

from permatch import (
    Graph,
    MODE_PERMUTABLE,
    MODE_TWO_TRANSITIVE,
    Matching,
    Perm,
    PermGroup,
    are_isomorphic,
    automorphism_group,
    canonical_graph6,
    classify_perfect_matchings,
    complete,
    complete_bipartite,
    complement,
    composition,
    covering_transformations,
    cycle,
    cycle_system_matching,
    degree_bound_check,
    derived_cover,
    empty_graph,
    find_matching,
    hypercube,
    is_arc_transitive,
    is_connected,
    join,
    lift_automorphism,
    lift_group,
    lift_matching_in_tree,
    matching_catalog,
    matching_join,
    matching_report,
    near_polygonal_certificate,
    odd_graph,
    odd_graph_action,
    odd_graph_vertex,
    path_graph,
    petersen,
    quotient_by_partition,
    spanning_tree,
    standard_assignment,
    subdivide_all,
    verify_catalog_membership,
    verify_cycle_system,
)
from labeled_scan import enumerate_connected


def canonical_set(graphs):
    return {canonical_graph6(g) for g in graphs}


def test_01_classification_m2():
    started = time.monotonic()
    observed = classify_perfect_matchings(2, MODE_TWO_TRANSITIVE)
    expected = canonical_set([
        complete(4),
        join(complete(2), empty_graph(2)),  # K4 minus an edge
        cycle(4),
        path_graph(4),
    ])
    assert observed.canonical_forms() == expected
    assert len(observed.entries) == 4
    for e in observed.entries:
        rep = matching_report(e.graph, e.witness)
        assert rep.two_transitive and rep.is_perfect
    assert time.monotonic() - started < 1.0


def test_02_classification_m3():
    started = time.monotonic()
    observed = classify_perfect_matchings(3, MODE_TWO_TRANSITIVE)
    expected = canonical_set([
        complete(6),
        join(complete(3), empty_graph(3)),
        complete_bipartite(3, 3),
        matching_join(complete(3), complete(3), [0, 1, 2]),
        matching_join(complete(3), empty_graph(3), [0, 1, 2]),
        cycle(6),
        complement(Graph(6, [(0, 1), (2, 3), (4, 5)])),  # K_{2,2,2}
    ])
    assert len(expected) == 7
    assert observed.canonical_forms() == expected
    for e in observed.entries:
        rep = matching_report(e.graph, e.witness)
        assert rep.two_transitive and rep.is_perfect
    assert time.monotonic() - started < 120.0


def test_03_permutable_classification_m2_m3():
    started = time.monotonic()
    obs2 = classify_perfect_matchings(2, MODE_PERMUTABLE)
    assert obs2.canonical_forms() == \
        matching_catalog(2, MODE_PERMUTABLE).canonical_forms()
    assert len(obs2.entries) == 4

    obs3 = classify_perfect_matchings(3, MODE_PERMUTABLE)
    assert obs3.canonical_forms() == \
        matching_catalog(3, MODE_PERMUTABLE).canonical_forms()
    assert len(obs3.entries) == 7
    for e in obs3.entries:
        assert matching_report(e.graph, e.witness).permutable
    assert time.monotonic() - started < 120.0


def test_04_catalog_membership_through_m7():
    started = time.monotonic()
    for m in range(2, 8):
        for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
            cat = verify_catalog_membership(m, mode)
            assert cat.complete(), (m, mode, cat.names())
            for e in cat.entries:
                rep = matching_report(e.graph, e.witness)
                assert rep.is_perfect and rep.m == m
                if mode == MODE_PERMUTABLE:
                    assert rep.permutable
                else:
                    assert rep.two_transitive
    names5 = verify_catalog_membership(5, MODE_TWO_TRANSITIVE).names()
    assert "petersen" in names5 and "C5vC5" in names5
    # the point/non-square incidence pair is covered at m = 3 (where it
    # coincides with C6 and the octahedron) and appears by name at m = 7
    from permatch import paley_incidence, paley_incidence_cliques

    for m in (3, 7):
        forms = matching_catalog(m, MODE_TWO_TRANSITIVE).canonical_forms()
        assert canonical_graph6(paley_incidence(m)) in forms
        assert canonical_graph6(paley_incidence_cliques(m)) in forms
    names7 = matching_catalog(7, MODE_TWO_TRANSITIVE).names()
    assert "paley7" in names7 and "paley7cliques" in names7
    assert time.monotonic() - started < 300.0


def test_05_odd_graph_matchings():
    started = time.monotonic()
    for m in (3, 4, 5):
        g, gens = odd_graph(m)
        group = PermGroup(gens, degree=g.n)
        assert group.order() == math.factorial(2 * m - 1)
        edges = []
        tail = list(range(m, 2 * m - 2))
        for i in range(m):
            s_i = [x for x in range(m) if x != i]
            t_i = [i] + tail
            edges.append((odd_graph_vertex(m, s_i), odd_graph_vertex(m, t_i)))
        rep = matching_report(g, Matching(edges), group)
        assert rep.permutable, m
        if m == 5:
            assert g.n == 126
    assert time.monotonic() - started < 120.0


def test_06_degree_bound():
    started = time.monotonic()
    # cycles of length divisible by three: the exception branch
    for k in range(2, 6):
        g = cycle(3 * k)
        grp = automorphism_group(g)
        w = find_matching(g, grp, 3, MODE_PERMUTABLE)
        assert w is not None
        assert min(g.degree(v) for v in range(g.n)) == 2 < 3
        assert degree_bound_check(g, grp, w)

    assert find_matching(cycle(8), None, 3, MODE_PERMUTABLE) is None

    # every other arc-transitive instance in the suite has degree >= m
    suite = [complete(4), complete(5), complete(6), complete(7),
             complete_bipartite(3, 3), hypercube(3), petersen(),
             complement(Graph(6, [(0, 1), (2, 3), (4, 5)]))]
    checked = 0
    for g in suite:
        grp = automorphism_group(g)
        assert is_arc_transitive(g, grp)
        deg = min(g.degree(v) for v in range(g.n))
        for m in range(2, min(5, g.n // 2 + 1)):
            w = find_matching(g, grp, m, MODE_PERMUTABLE)
            if w is None:
                continue
            assert degree_bound_check(g, grp, w)
            assert deg >= m
            checked += 1
    assert checked >= 8
    assert time.monotonic() - started < 60.0


def test_07_voltage_covers():
    started = time.monotonic()
    # three-fold cover of the triangle is the nine-cycle
    cov = derived_cover(standard_assignment(cycle(3), 3, spanning_tree(cycle(3))))
    assert are_isomorphic(cov.graph, cycle(9)) is not None

    g = petersen()
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    assert cov.graph.n == 640
    assert is_connected(cov.graph)
    res = quotient_by_partition(cov.graph, cov.fiber_partition())
    assert res.regular_cover
    assert are_isomorphic(res.graph, g) is not None

    aut = automorphism_group(g)
    for a in aut.generators:
        lift = lift_automorphism(cov, a)
        for idx in range(cov.graph.n):
            assert lift.apply(idx) % 10 == a.apply(idx % 10)
    lifted = lift_group(cov, aut)
    assert lifted.order() == 7680
    assert time.monotonic() - started < 180.0


@pytest.mark.xfail(
    strict=True,
    reason="a matching lifted inside a spanning tree is stabilized only by "
           "lifts of base symmetries that map that tree to itself; "
           "contracting the three matching edges of any spanning tree of "
           "K_{3,3} that contains the perfect matching leaves a path on "
           "three nodes whose middle node is fixed by every tree symmetry, "
           "so the induced action can never reach all six permutations "
           "(here its order is 2)")
def test_07_lifted_k33_matching_permutable():
    g = complete_bipartite(3, 3)
    pm = Matching([(0, 3), (1, 4), (2, 5)])
    tree = spanning_tree(g, pm.edges)
    cov = derived_cover(standard_assignment(g, 2, tree))
    lifted = lift_group(cov, automorphism_group(g))
    rep = matching_report(cov.graph, lift_matching_in_tree(cov, pm), lifted)
    assert rep.permutable


def test_08_star_matchings_in_covers():
    started = time.monotonic()
    cases = [
        (complete(4), 3),
        (complete(5), 4),
        (hypercube(3), 3),
    ]
    for g, m in cases:
        system = near_polygonal_certificate(g)
        assert system is not None
        cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
        matching = cycle_system_matching(cov, 0, system)
        assert len(matching) == m == g.degree(0)
        lifted = lift_group(cov, automorphism_group(g))
        rep = matching_report(cov.graph, matching, lifted)
        assert rep.permutable, (g.n, m)
        assert rep.induced_order == math.factorial(m)

    # the base graphs of the complete-graph cases carry no m-matching at all
    assert find_matching(complete(4), None, 3, MODE_PERMUTABLE) is None
    assert find_matching(complete(5), None, 4, MODE_PERMUTABLE) is None
    assert time.monotonic() - started < 180.0


@pytest.mark.xfail(
    strict=True,
    reason="the cube does have a permutable 3-matching: the stabilizer of "
           "{0-1, 2-6, 5-7} in its automorphism group has order 6 and "
           "induces all six permutations of the three edges")
def test_08_cube_base_has_no_permutable_matching():
    assert find_matching(hypercube(3), None, 3, MODE_PERMUTABLE) is None


def test_09_near_polygonal_certificates():
    started = time.monotonic()
    for n in (4, 5, 6, 7):
        cert = near_polygonal_certificate(complete(n))
        assert cert is not None and cert.length == 3
        assert verify_cycle_system(complete(n), cert)

    cert = near_polygonal_certificate(hypercube(3))
    assert cert is not None and cert.length == 4
    assert verify_cycle_system(hypercube(3), cert)

    # Petersen: certified under an order-60 subgroup with six pentagons
    og, _ = odd_graph(3)
    iso = are_isomorphic(og, petersen())
    gens = [iso.inverse() * odd_graph_action(3, Perm.from_cycles(5, [c])) * iso
            for c in ((0, 1, 2), (2, 3, 4))]
    sub = PermGroup(gens, degree=10)
    assert sub.order() == 60
    cert = near_polygonal_certificate(petersen(), sub)
    assert cert is not None
    assert cert.length == 5 and len(cert.cycles) == 6
    assert verify_cycle_system(petersen(), cert)

    # ... while all twelve pentagons over-cover every 2-path
    from test_polygonal import petersen_pentagons

    assert not verify_cycle_system(petersen(), petersen_pentagons())
    assert time.monotonic() - started < 60.0


def test_10_subdivision_and_composition():
    for m in (3, 4, 5):
        star = complete_bipartite(1, m)
        sub, mid = subdivide_all(star)
        group = automorphism_group(sub)
        assert group.order() == math.factorial(m)
        matching = Matching([(leaf, mid[(0, leaf)]) for leaf in range(1, m + 1)])
        rep = matching_report(sub, matching, group)
        assert rep.permutable and rep.m == m

    g = composition(cycle(5), 2)
    group = automorphism_group(g)
    assert group.order() == 320  # (2!)^5 * |Aut(C5)|
    rep = matching_report(g, Matching([(0, 1), (5, 6)]), group)
    assert rep.permutable


def test_11_oracle_suites():
    started = time.monotonic()
    rng = random.Random(20260815)

    # group order and membership against exhaustive closure
    for _ in range(15):
        degree = rng.randrange(4, 9)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Perm(imgs))
        group = PermGroup(gens, degree=degree)
        ident = Perm(tuple(range(degree)))
        closure = {ident}
        frontier = [ident]
        while frontier:
            cur = frontier.pop()
            for gen in gens:
                nxt = cur * gen
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        assert group.order() == len(closure)
        for _ in range(5):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            probe = Perm(imgs)
            assert (probe in group) == (probe in closure)

    # automorphism groups against the n!-filter
    circulant7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)] +
                       [(i, (i + 2) % 7) for i in range(7)])
    graphs = [complete(5), cycle(7), path_graph(6), circulant7]
    for _ in range(6):
        n = rng.randrange(3, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        graphs.append(Graph(n, edges))
    for g in graphs:
        brute = 0
        for imgs in permutations(range(g.n)):
            if all(g.has_edge(imgs[u], imgs[v]) for u, v in g.edges()):
                brute += 1
        assert automorphism_group(g).order() == brute

    # canonical-form class counts against pairwise isomorphism tests
    reps4 = enumerate_connected(4)
    assert len(reps4) == 6
    for a, b in combinations(reps4, 2):
        assert are_isomorphic(a, b) is None
    reps6 = enumerate_connected(6)
    assert len(reps6) == 112
    for a, b in combinations(reps6, 2):
        assert are_isomorphic(a, b) is None
    assert time.monotonic() - started < 120.0

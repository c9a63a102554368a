"""Catalogs, the group route of the classification, and the labeled scan
that checks it for m <= 3.

The scan's enumeration is cross-checked two ways: pairwise non-isomorphism
of the representatives, and the labeled-graph count recovered from
automorphism group orders (sum over classes of n!/|Aut|).
"""

import math
from itertools import combinations, permutations

import networkx as nx
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
    classification_report,
    classify_perfect_matchings,
    complete,
    cycle,
    graph6_decode,
    is_2transitive,
    matching_catalog,
    matching_report,
    petersen,
    verify_catalog_membership,
)
from permatch.classify import _minimal_groups
from labeled_scan import classify_by_scan, enumerate_connected, perfect_matchings


def connected_labeled_count(n):
    # count connected graphs on labeled vertices by inclusion-exclusion
    # over the component containing vertex 0
    total = [2 ** (k * (k - 1) // 2) for k in range(n + 1)]
    conn = [0] * (n + 1)
    conn[1] = 1
    for k in range(2, n + 1):
        acc = total[k]
        for j in range(1, k):
            acc -= math.comb(k - 1, j - 1) * conn[j] * total[k - j]
        conn[k] = acc
    return conn[n]


def test_catalog_counts_and_names():
    cat = matching_catalog(2, MODE_PERMUTABLE)
    assert cat.names() == ["K4", "K2vK2bar", "K22", "K2mjK2bar"]
    assert len(cat.entries) == 4  # K2 mj K2 is K4 again and deduplicates

    for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
        cat = matching_catalog(3, mode)
        assert cat.names() == ["K6", "K3vK3bar", "K33", "prism3",
                               "K3mjK3bar", "C6", "K222"]

    assert len(matching_catalog(4, MODE_PERMUTABLE).entries) == 5
    assert len(matching_catalog(4, MODE_TWO_TRANSITIVE).entries) == 5
    assert matching_catalog(5, MODE_PERMUTABLE).names() == \
        ["K10", "K5vK5bar", "K55", "K5mjK5", "K5mjK5bar"]
    assert matching_catalog(5, MODE_TWO_TRANSITIVE).names() == \
        ["K10", "K5vK5bar", "K55", "K5mjK5", "K5mjK5bar", "petersen", "C5vC5"]
    assert matching_catalog(7, MODE_TWO_TRANSITIVE).names() == \
        ["K14", "K7vK7bar", "K77", "K7mjK7", "K7mjK7bar",
         "paley7", "paley7cliques"]
    assert len(matching_catalog(7, MODE_PERMUTABLE).entries) == 5

    cat = matching_catalog(3, MODE_PERMUTABLE)
    assert graph6_decode(cat.entry("C6").canonical).n == 6
    with pytest.raises(KeyError):
        cat.entry("nonesuch")
    for m in (1, 11):
        with pytest.raises(ValueError):
            matching_catalog(m, MODE_PERMUTABLE)


def test_catalog_entries_are_distinct():
    for m in range(2, 8):
        for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
            cat = matching_catalog(m, mode)
            forms = [e.canonical for e in cat.entries]
            assert len(set(forms)) == len(forms)
            for e in cat.entries:
                assert e.graph.n == 2 * m
                assert graph6_decode(e.canonical).n == 2 * m


def test_enumerate_connected_counts():
    assert [len(enumerate_connected(n)) for n in range(1, 7)] == \
        [1, 1, 2, 6, 21, 112]
    with pytest.raises(ValueError):
        enumerate_connected(7)
    with pytest.raises(ValueError):
        enumerate_connected(0)


def test_enumeration_is_complete_and_irredundant():
    reps = enumerate_connected(4)
    for a, b in combinations(reps, 2):
        assert are_isomorphic(a, b) is None
    # labeled count recovered from class sizes n!/|Aut|
    labeled = sum(24 // automorphism_group(g).order() for g in reps)
    assert labeled == connected_labeled_count(4)

    reps5 = enumerate_connected(5)
    for a, b in combinations(reps5, 2):
        assert are_isomorphic(a, b) is None
    labeled = sum(120 // automorphism_group(g).order() for g in reps5)
    assert labeled == connected_labeled_count(5)


def test_enumeration_class_sizes_at_six():
    reps = enumerate_connected(6)
    labeled = sum(720 // automorphism_group(g).order() for g in reps)
    assert labeled == connected_labeled_count(6)


def test_perfect_matching_counts():
    assert len(perfect_matchings(complete(4))) == 3
    assert len(perfect_matchings(cycle(6))) == 2
    assert len(perfect_matchings(complete(6))) == 15
    assert len(perfect_matchings(petersen())) == 6
    assert perfect_matchings(cycle(5)) == []
    assert perfect_matchings(Graph(4, [(0, 1), (1, 2), (2, 3)])) != []
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert perfect_matchings(star) == []
    for m in perfect_matchings(petersen()):
        assert len(m) == 5 and len(set(m.vertices())) == 10


def test_classification_matches_catalog_small():
    for m in (2, 3):
        for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
            observed = classify_perfect_matchings(m, mode)
            expected = matching_catalog(m, mode)
            assert observed.canonical_forms() == expected.canonical_forms()
            for e in observed.entries:
                assert e.witness is not None
                rep = matching_report(e.graph, e.witness)
                assert rep.permutable if mode == MODE_PERMUTABLE \
                    else rep.two_transitive


def test_classification_report_shape():
    rep = classification_report(2, MODE_PERMUTABLE)
    assert rep["m"] == 2 and rep["mode"] == MODE_PERMUTABLE
    assert rep["match"] is True
    assert rep["observed"] == rep["expected"]
    assert len(rep["observed"]) == 4
    assert set(rep["witnesses"]) == {"K4", "K2vK2bar", "K22", "K2mjK2bar"}
    for witness in rep["witnesses"].values():
        assert "-" in witness
    rep = classification_report(3, "two_transitive")
    assert rep["mode"] == MODE_TWO_TRANSITIVE and rep["match"] is True


def test_catalog_membership_has_witnesses():
    for m in (2, 3, 4):
        for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
            cat = verify_catalog_membership(m, mode)
            assert cat.complete()
            for e in cat.entries:
                rep = matching_report(e.graph, e.witness)
                assert rep.permutable if mode == MODE_PERMUTABLE \
                    else rep.two_transitive


def test_rejected_classes_really_fail():
    # sample of 6-vertex classes outside the catalog: no perfect matching
    # passes in either mode
    cat_forms = matching_catalog(3, MODE_TWO_TRANSITIVE).canonical_forms()
    rejected = [g for g in enumerate_connected(6)
                if automorphism_group(g).order() > 8][:25]

    checked = 0
    for g in rejected:
        if canonical_graph6(g) in cat_forms:
            continue
        grp = automorphism_group(g)
        for pm in perfect_matchings(g):
            rep = matching_report(g, pm, grp)
            assert not rep.permutable
            assert not rep.two_transitive
        checked += 1
    assert checked >= 15


def test_group_route_matches_labeled_scan():
    # the oracle for m <= 3, where every labeled graph can be swept
    for m in (2, 3):
        for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
            observed = classify_perfect_matchings(m, mode)
            scanned = classify_by_scan(m, mode)
            assert observed.canonical_forms() == scanned.canonical_forms()
            assert sorted(observed.names()) == sorted(scanned.names())
            for e in observed.entries:
                rep = matching_report(e.graph, e.witness)
                assert rep.is_perfect
                assert rep.permutable if mode == MODE_PERMUTABLE \
                    else rep.two_transitive


def test_group_route_matches_catalog():
    # the catalog is the oracle above m = 3; two-transitive m = 6 is the
    # finding recorded below
    cases = [(m, MODE_PERMUTABLE) for m in range(2, 11)] + \
        [(m, MODE_TWO_TRANSITIVE) for m in (2, 3, 4, 5, 7, 8)]
    for m, mode in cases:
        observed = classify_perfect_matchings(m, mode)
        assert observed.canonical_forms() == \
            matching_catalog(m, mode).canonical_forms(), (m, mode)
    for m, mode in ((1, MODE_PERMUTABLE), (11, MODE_PERMUTABLE),
                    (9, MODE_TWO_TRANSITIVE)):
        with pytest.raises(ValueError, match="2 <= m <= 10"):
            classify_perfect_matchings(m, mode)


def cycle_type_representatives(m):
    """One permutation of each cycle type of S_m, its cycles consecutive."""
    def partitions(n, largest):
        if n == 0:
            yield []
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield [k] + rest

    for parts in partitions(m, m):
        starts = [sum(parts[:i]) for i in range(len(parts))]
        yield Perm.from_cycles(m, [tuple(range(s, s + k))
                                   for s, k in zip(starts, parts) if k > 1])


def test_minimal_two_transitive_groups():
    orders = {2: [2], 3: [6], 4: [12], 5: [20, 60], 6: [60], 7: [42, 168],
              8: [56, 168]}
    for m, expected in orders.items():
        groups = [PermGroup(gens) for gens in _minimal_groups(m, MODE_TWO_TRANSITIVE)]
        assert all(is_2transitive(g) for g in groups)
        assert [g.order() for g in groups] == expected
    # completeness for m <= 5: every 2-transitive <x, y>, with x once per
    # cycle type and y anywhere in S_m, contains a conjugate of a listed group
    for m in range(2, 6):
        listed = _minimal_groups(m, MODE_TWO_TRANSITIVE)
        sym = [Perm(p) for p in permutations(range(m))]
        conjugates = {tuple(s.inverse() * a * s for a in gens)
                      for gens in listed for s in sym}
        found = 0
        for x in cycle_type_representatives(m):
            for y in sym:
                group = PermGroup([x, y])
                if is_2transitive(group):
                    found += 1
                    assert any(all(a in group for a in gens) for gens in conjugates)
        assert found > 0


def test_icosahedron_complement_antipodal_matching_is_two_transitive():
    # the m = 6 class outside the two-transitive catalog, checked by networkx
    # and by closures written here, not by matching_report
    ico = nx.icosahedral_graph()
    dist = dict(nx.all_pairs_shortest_path_length(ico))
    g = Graph(12, [(u, v) for u, v in combinations(range(12), 2)
                   if not ico.has_edge(u, v)])
    pm = Matching([(u, v) for u, v in combinations(range(12), 2) if dist[u][v] == 3])
    assert len(pm) == 6 and all(g.has_edge(u, v) for u, v in pm)
    assert all(g.degree(v) == 6 for v in range(12))
    # Aut of the complement is Aut of the icosahedron, enumerated by networkx
    auts = list(nx.algorithms.isomorphism.GraphMatcher(ico, ico).isomorphisms_iter())
    assert len(auts) == 120
    edges = [frozenset(e) for e in pm]
    induced = set()
    for a in auts:
        images = [frozenset(a[x] for x in e) for e in edges]
        assert set(images) == set(edges)  # the stabilizer is all of Aut
        induced.add(tuple(edges.index(e) for e in images))
    # close the induced images under composition, and the ordered pair
    # (0, 1) under the closed group
    group, frontier = set(induced), list(induced)
    while frontier:
        p = frontier.pop()
        for q in induced:
            r = tuple(q[i] for i in p)
            if r not in group:
                group.add(r)
                frontier.append(r)
    assert len(group) == 60
    assert {(p[0], p[1]) for p in group} == \
        {(i, j) for i in range(6) for j in range(6) if i != j}
    expected = matching_catalog(6, MODE_TWO_TRANSITIVE).canonical_forms()
    assert canonical_graph6(g) not in expected
    assert classify_perfect_matchings(6, MODE_TWO_TRANSITIVE).canonical_forms() == \
        expected | {canonical_graph6(g)}


@pytest.mark.xfail(
    strict=True,
    reason="the two-transitive catalog misses a class at m = 6: the "
           "complement of the icosahedron (graph6 K@Tc|ZTyne^_, 12 vertices, "
           "6-regular, |Aut| = 120) with its 6 antipodal pairs "
           "(0-11,1-10,2-9,3-8,4-7,5-6 in that labelling); their stabilizer "
           "is all of Aut and induces PSL(2,5) of order 60 on them, which is "
           "2-transitive but not the symmetric group")
def test_classification_m6_two_transitive_matches_catalog():
    assert classification_report(6, MODE_TWO_TRANSITIVE)["match"]

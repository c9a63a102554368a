"""Graph families, constructions, and graph6 I/O.

graph6 encoding is cross-checked against networkx, and the walks over the
neighbour tuples (neighbors, edges, apply_perm, is_automorphism,
is_connected) against the edge lists the graphs were built from, has_edge
scans and networkx; family constructors are
checked against their defining counts and against isomorphisms the families
are known to satisfy.
"""

import math
import random
from itertools import combinations

import networkx as nx
import pytest

from permatch import (
    Graph,
    Matching,
    Perm,
    PermGroup,
    are_isomorphic,
    automorphism_group,
    complement,
    complete,
    complete_bipartite,
    composition,
    cycle,
    degree_sequence,
    derived_cover,
    empty_graph,
    folded_hypercube,
    graph6_decode,
    graph6_encode,
    hypercube,
    is_connected,
    join,
    matching_join,
    odd_graph,
    odd_graph_action,
    odd_graph_vertex,
    paley_incidence,
    paley_incidence_cliques,
    path_graph,
    petersen,
    spanning_tree,
    standard_assignment,
    subdivide_all,
    subdivide_matching_twice,
    subdivide_non_matching,
    validate_matching,
)
from permatch.graphs import _PRIME_LIMIT, _is_prime


def random_graph(rng, n, p):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.has_edge(1, 0) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(0, [])


def test_graph6_against_networkx():
    rng = random.Random(99)
    cases = [complete(4), petersen(), cycle(9), empty_graph(5), path_graph(2)]
    for n, p in [(1, 0.5), (2, 0.5), (5, 0.3), (11, 0.5), (12, 0.9),
                 (30, 0.2), (63, 0.1), (80, 0.05)]:
        cases.append(random_graph(rng, n, p))
    # a cover-sized case: the 640-vertex p = 2 cover of Petersen
    cases.append(derived_cover(standard_assignment(petersen(), 2, spanning_tree(petersen()))).graph)
    for g in cases:
        mine = graph6_encode(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert mine == theirs
        back = graph6_decode(mine)
        assert back == g
        via_nx = nx.from_graph6_bytes(mine.encode())
        assert sorted(via_nx.edges()) == [tuple(e) for e in g.edges()]


def test_graph6_known_strings():
    assert graph6_encode(complete(4)) == "C~"
    assert graph6_encode(empty_graph(1)) == "@"
    assert graph6_decode("C~").edges() == complete(4).edges()
    assert graph6_decode(">>graph6<<C~").edges() == complete(4).edges()


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        graph6_decode("C")  # truncated edge bits
    with pytest.raises(ValueError):
        graph6_decode("C~\x05")
    with pytest.raises(ValueError, match="empty graph6 string"):
        graph6_decode("")
    with pytest.raises(ValueError, match="malformed graph6 header"):
        graph6_decode("~??")
    with pytest.raises(ValueError, match="graph6 with no vertices"):
        graph6_decode("?")


def test_family_counts():
    assert complete(6).edges() == [e for e in combinations(range(6), 2)]
    assert empty_graph(4).edges() == []
    assert len(complete_bipartite(3, 4).edges()) == 12
    assert degree_sequence(cycle(7)) == [2] * 7
    assert sorted(degree_sequence(path_graph(5))) == [1, 1, 2, 2, 2]
    g = petersen()
    assert g.n == 10 and len(g.edges()) == 15
    assert degree_sequence(g) == [3] * 10


def test_cycle_and_path_shapes():
    c = cycle(5)
    assert c.has_edge(0, 4) and c.has_edge(2, 3)
    p = path_graph(4)
    assert p.has_edge(0, 1) and not p.has_edge(0, 3)
    with pytest.raises(ValueError):
        cycle(2)


def test_join_and_matching_join():
    assert are_isomorphic(join(empty_graph(3), empty_graph(3)),
                          complete_bipartite(3, 3)) is not None
    prism = matching_join(complete(3), complete(3), [0, 1, 2])
    assert degree_sequence(prism) == [3] * 6
    assert are_isomorphic(prism, complete_bipartite(3, 3)) is None

    five_prism = matching_join(cycle(5), cycle(5), [0, 1, 2, 3, 4])
    twisted = matching_join(cycle(5), cycle(5), [0, 3, 1, 4, 2])
    assert are_isomorphic(twisted, petersen()) is not None
    assert are_isomorphic(five_prism, petersen()) is None

    with pytest.raises(ValueError):
        matching_join(complete(3), complete(4), [0, 1, 2])
    with pytest.raises(ValueError):
        matching_join(complete(3), complete(3), [0, 1, 1])


def test_composition():
    assert are_isomorphic(composition(complete(2), 3),
                          complete_bipartite(3, 3)) is not None
    g = cycle(5)
    assert are_isomorphic(composition(g, 1), g) is not None
    c52 = composition(g, 2)
    assert c52.n == 10 and degree_sequence(c52) == [4] * 10
    assert len(c52.edges()) == 4 * len(g.edges())
    # vertex (eta, i) is numbered i*n + eta
    assert c52.has_edge(0, 1) and c52.has_edge(0, 6) and not c52.has_edge(0, 5)


def test_subdivisions():
    sub, mid = subdivide_all(complete(3))
    assert are_isomorphic(sub, cycle(6)) is not None
    assert sorted(mid) == [(0, 1), (0, 2), (1, 2)]
    assert all(sub.degree(v) == 2 for v in mid.values())

    spider, _ = subdivide_all(complete_bipartite(1, 3))
    assert spider.n == 7
    assert sorted(degree_sequence(spider)) == [1, 1, 1, 2, 2, 2, 3]

    for g in (complete(4), petersen()):
        sub, _ = subdivide_all(g)
        assert sub.n == g.n + len(g.edges())
        assert len(sub.edges()) == 2 * len(g.edges())
    assert are_isomorphic(subdivide_all(cycle(5))[0], cycle(10)) is not None

    m = Matching([(0, 1), (2, 3), (4, 5)])
    assert are_isomorphic(subdivide_non_matching(cycle(6), m), cycle(9)) is not None
    assert are_isomorphic(subdivide_matching_twice(cycle(6), m), cycle(12)) is not None
    with pytest.raises(ValueError):
        subdivide_non_matching(cycle(6), Matching([(0, 2)]))


def test_construction_numbering_is_pinned():
    # the vertex numbering of each construction is part of the interface:
    # new vertices upward from n in lexicographic edge order, u-side first
    sub, mid = subdivide_all(complete(4))
    assert graph6_encode(sub) == "I?qcb@OK?"
    assert sorted(mid.items()) == [((0, 1), 4), ((0, 2), 5), ((0, 3), 6),
                                   ((1, 2), 7), ((1, 3), 8), ((2, 3), 9)]
    assert graph6_encode(subdivide_all(petersen())[0]) == \
        "X???????E?P?`?W?GO@_?GO?W??`??O_?D??@G??D???Q???S??"
    spokes = Matching([(i, i + 5) for i in range(5)])
    assert graph6_encode(subdivide_non_matching(petersen(), spokes)) == \
        "S?AA@?OAE?P?W?K?B??I?@G?A_?C_?A_?"
    assert graph6_encode(subdivide_matching_twice(petersen(), spokes)) == \
        "Shc??GE?s??`O??_c??A@C???_GO???_C"
    m = Matching([(0, 1), (2, 3), (4, 5), (6, 7)])
    assert graph6_encode(subdivide_non_matching(hypercube(3), m)) == "O`?G?E_aA_G_G_CO@O?I?"
    assert graph6_encode(subdivide_matching_twice(hypercube(3), m)) == "OQ`@Oi?OH?A@A?@?_O?A@"
    assert graph6_encode(paley_incidence_cliques(7)) == "M~~~{nJxZfvNV^J~_"


def test_complement_and_induced():
    assert complement(complete(4)).edges() == []
    assert complement(complement(petersen())) == petersen()


def test_connectivity():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two_triangles)
    assert is_connected(cycle(5))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_neighbour_tuples_against_naive_scans(n):
    """Every walk over the neighbour tuples agrees with the edge list the
    graph was built from, with has_edge scans and with networkx, on sizes at
    and across machine-word boundaries."""
    rng = random.Random(6000 + n)
    kinds = set()
    for p in (0.02, 0.1, 0.5, 0.9):
        given = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, given)
        naive = [(u, v) for u, v in combinations(range(n), 2) if g.has_edge(u, v)]
        assert g.edges() == naive == given
        expected = [[] for _ in range(n)]
        for u, v in given:
            expected[u].append(v)
            expected[v].append(u)
        for u in range(n):
            assert g.neighbors(u) == [v for v in range(n) if v != u and g.has_edge(u, v)]
            row = sorted(expected[u])
            assert g.neighbors(u) == row and g.degree(u) == len(row)
            assert not g.has_edge(u, u)
            if row:
                # bisect at the first and last entries and just outside them
                assert g.has_edge(u, row[0]) and g.has_edge(u, row[-1])
                assert row[0] == 0 or not g.has_edge(u, row[0] - 1)
                assert row[-1] == n - 1 or not g.has_edge(u, row[-1] + 1)
        assert g.num_edges == len(given)

        # repeated and reversed edges build the same graph as the plain list
        noisy = given + [(v, u) for u, v in given] + given[::3]
        rng.shuffle(noisy)
        assert Graph(n, noisy) == g and hash(Graph(n, noisy)) == hash(g)

        images = list(range(n))
        rng.shuffle(images)
        perm = Perm(images)
        assert g.apply_perm(perm) == Graph(n, [(images[u], images[v]) for u, v in naive])

        # is_automorphism against the relabeled copy, on automorphisms and others
        swap = Perm.from_cycles(n, [(0, n - 1)]) if n > 1 else perm
        for q in [Perm.identity(n), perm, swap, *automorphism_group(g).generators]:
            is_aut = g.is_automorphism(q)
            assert is_aut == (g.apply_perm(q) == g)
            kinds.add(is_aut)

        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(naive)
        assert is_connected(g) == nx.is_connected(h)
    assert kinds == ({True} if n <= 2 else {True, False})  # S_2 preserves every graph


def test_hypercube_and_folded():
    q3 = hypercube(3)
    assert q3.n == 8 and degree_sequence(q3) == [3] * 8
    assert are_isomorphic(folded_hypercube(3), complete(4)) is not None
    assert are_isomorphic(folded_hypercube(4), complete_bipartite(4, 4)) is not None
    fq5 = folded_hypercube(5)
    assert fq5.n == 16 and degree_sequence(fq5) == [5] * 16


def test_families_against_independent_definitions():
    # O_m is networkx's Kneser graph K(2m-1, m-1) under the colex numbering
    for m in range(2, 7):
        kneser = nx.kneser_graph(2 * m - 1, m - 1)
        expected = sorted(tuple(sorted((odd_graph_vertex(m, s), odd_graph_vertex(m, t))))
                          for s, t in kneser.edges())
        assert odd_graph(m)[0].edges() == expected
    # FQ_m is Q_m with x and its antipode x ^ (2^m - 1) identified, each
    # class named by its member with the top bit clear
    for m in range(2, 11):
        top, full = 1 << (m - 1), (1 << m) - 1
        cls = [x if x < top else x ^ full for x in range(1 << m)]
        expected = sorted({tuple(sorted((cls[u], cls[v]))) for u, v in hypercube(m).edges()})
        assert folded_hypercube(m).edges() == expected


def test_odd_graph():
    g, gens = odd_graph(3)
    assert g.n == 10
    assert are_isomorphic(g, petersen()) is not None
    for m in (3, 4):
        g, gens = odd_graph(m)
        assert g.n == math.comb(2 * m - 1, m - 1)
        assert degree_sequence(g) == [m] * g.n
        # generators must preserve adjacency
        for p in gens:
            for u, v in g.edges():
                assert g.has_edge(p.apply(u), p.apply(v))


def test_odd_graph_numbering_and_action():
    # vertices are (m-1)-subsets in colexicographic order
    assert odd_graph_vertex(3, [0, 1]) == 0
    assert odd_graph_vertex(3, [0, 2]) == 1
    assert odd_graph_vertex(3, [3, 4]) == 9
    g, _ = odd_graph(3)
    v = odd_graph_vertex(3, [0, 1])
    nbrs = {odd_graph_vertex(3, s) for s in ([2, 3], [2, 4], [3, 4])}
    assert set(g.neighbors(v)) == nbrs

    swap = Perm.from_cycles(5, [(0, 1)])
    act = odd_graph_action(3, swap)
    assert act.apply(odd_graph_vertex(3, [0, 2])) == odd_graph_vertex(3, [1, 2])
    # action is a homomorphism
    rng = random.Random(2)
    for _ in range(5):
        imgs = list(range(5))
        rng.shuffle(imgs)
        p = Perm(imgs)
        rng.shuffle(imgs)
        q = Perm(imgs)
        assert odd_graph_action(3, p * q) == odd_graph_action(3, p) * odd_graph_action(3, q)

    # one numbering for the graph, its generators, vertex ids and the action
    for m in range(2, 7):
        colex = sorted(combinations(range(2 * m - 1), m - 1), key=lambda s: s[::-1])
        assert [odd_graph_vertex(m, reversed(s)) for s in colex] == list(range(len(colex)))
    g, gens = odd_graph(4)
    colex = sorted(combinations(range(7), 3), key=lambda s: s[::-1])
    for i, s in enumerate(colex):
        assert g.neighbors(i) == sorted(odd_graph_vertex(4, t) for t in colex
                                        if not set(s) & set(t))
    assert gens == [odd_graph_action(4, Perm.from_cycles(7, [(0, 1)])),
                    odd_graph_action(4, Perm.from_cycles(7, [tuple(range(7))]))]
    # wrong size, a repeat, symbols out of range
    for bad in ([0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 7], [-1, 0, 1]):
        with pytest.raises(ValueError, match="not an"):
            odd_graph_vertex(4, bad)


def test_paley_graphs():
    p3 = paley_incidence(3)
    assert are_isomorphic(p3, cycle(6)) is not None
    k222 = complement(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    assert are_isomorphic(paley_incidence_cliques(3), k222) is not None

    p7 = paley_incidence(7)
    assert p7.n == 14 and degree_sequence(p7) == [4] * 14
    # the cross pairs {(x,0),(x,1)} are always edges: 0 counts as a square
    for q in (3, 7, 11):
        g = paley_incidence(q)
        for x in range(q):
            assert g.has_edge(x, q + x)

    for bad in (5, 4, 9, 15):
        with pytest.raises(ValueError):
            paley_incidence(bad)


def test_is_prime_is_exact_below_its_limit():
    def trial_division(q):
        return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))

    assert [q for q in range(10 ** 5) if _is_prime(q)] == \
        [q for q in range(10 ** 5) if trial_division(q)]
    # Carmichael numbers and strong pseudoprimes to the bases 2..7, 2..31 and 2..37
    for q in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(q), q
    for q in (10 ** 15 + 37, 10 ** 18 + 3, 2 ** 61 - 1, 2 ** 79 - 67):
        assert _is_prime(q), q
    for q in (_PRIME_LIMIT, 3317044064679887385961981, 10 ** 30):
        with pytest.raises(ValueError, match="below %d" % _PRIME_LIMIT):
            _is_prime(q)


def test_matching_type():
    m = Matching.parse("0-3,1-4,2-5")
    assert str(m) == "0-3,1-4,2-5"
    assert len(m) == 3 and m.edges[1] == (1, 4)
    with pytest.raises(ValueError):
        Matching([(1, 1)])
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 0)])

    assert validate_matching(cycle(6), Matching([(0, 1), (2, 3), (4, 5)]))
    assert not validate_matching(cycle(6), Matching([(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge"):
        validate_matching(cycle(6), Matching([(0, 2)]))
    with pytest.raises(ValueError, match=r"not disjoint at \(1, 2\)"):
        validate_matching(cycle(6), Matching([(0, 1), (1, 2)]))

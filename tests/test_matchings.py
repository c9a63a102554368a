"""Matching stabilizers, induced actions, and the matching search.

Stabilizer orders are checked against an exhaustive filter over all n!
vertex permutations; find_matching is checked against a naive scan of
every m-matching of each small graph; matching_report with the default
group is checked to be invariant under relabeling.
"""

import gc
import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permatch import (
    Graph,
    MODE_PERMUTABLE,
    MODE_TWO_TRANSITIVE,
    Matching,
    Perm,
    PermGroup,
    automorphism_group,
    check_group_action,
    complement,
    complete,
    complete_bipartite,
    composition,
    cycle,
    degree_bound_check,
    find_matching,
    hypercube,
    is_2arc_transitive,
    is_arc_transitive,
    is_locally_primitive,
    is_locally_symmetric,
    matching_catalog,
    matching_join,
    matching_report,
    matching_stabilizer,
    normalize_mode,
    odd_graph,
    path_graph,
    petersen,
)
from permatch import matchings
from closure_oracle import brute_closure
from test_perms import assert_chain_is_read_off
import subgroup_oracle


def prism3():
    return matching_join(complete(3), complete(3), [0, 1, 2])


def brute_stab_order(g, matching):
    keys = {frozenset(e) for e in matching.edges}
    count = 0
    for imgs in permutations(range(g.n)):
        if not all(g.has_edge(imgs[u], imgs[v]) for u, v in g.edges()):
            continue
        if all(frozenset((imgs[a], imgs[b])) in keys for a, b in matching.edges):
            count += 1
    return count


def all_matchings(g, m):
    edges = g.edges()
    for combo in combinations(edges, m):
        used = set()
        ok = True
        for a, b in combo:
            if a in used or b in used:
                ok = False
                break
            used.add(a)
            used.add(b)
        if ok:
            yield Matching(combo)


def test_mode_normalization():
    assert normalize_mode("permutable") == MODE_PERMUTABLE
    assert normalize_mode("two-transitive") == MODE_TWO_TRANSITIVE
    assert normalize_mode("two_transitive") == MODE_TWO_TRANSITIVE
    with pytest.raises(ValueError):
        normalize_mode("sideways")


def test_stabilizer_matches_brute_force():
    cases = [
        (cycle(6), Matching([(0, 1), (2, 3), (4, 5)])),
        (cycle(6), Matching([(0, 1), (2, 3)])),
        (cycle(6), Matching([(0, 1), (3, 4)])),
        (complete(4), Matching([(0, 1), (2, 3)])),
        (complete(4), Matching([(0, 1)])),
        (complete_bipartite(3, 3), Matching([(0, 3), (1, 4), (2, 5)])),
        (complete_bipartite(3, 3), Matching([(0, 3), (1, 4)])),
        (prism3(), Matching([(0, 3), (1, 4), (2, 5)])),
        (hypercube(3), Matching([(0, 1), (2, 6), (5, 7)])),
        (hypercube(3), Matching([(0, 1), (2, 3), (4, 5), (6, 7)])),
        (complete(7), Matching([(0, 1), (2, 3), (4, 5)])),
    ]
    for g, m in cases:
        grp = automorphism_group(g)
        stab = matching_stabilizer(g, grp, m)
        assert stab.order() == brute_stab_order(g, m)
        keys = {frozenset(e) for e in m.edges}
        for p in stab.generators:
            assert {frozenset((p.apply(a), p.apply(b))) for a, b in m.edges} == keys


def test_alternating_matching_of_hexagon():
    g = cycle(6)
    rep = matching_report(g, Matching([(0, 1), (2, 3), (4, 5)]))
    assert rep.group_order == 12
    assert rep.stabilizer_order == 6
    assert rep.induced_order == 6
    assert rep.permutable and rep.two_transitive
    assert rep.is_matching and rep.is_perfect and rep.m == 3


def test_complete_graph_matchings():
    rep = matching_report(complete(4), Matching([(0, 1), (2, 3)]))
    assert rep.group_order == 24
    assert rep.stabilizer_order == 8
    assert rep.induced_order == 2 and rep.permutable

    rep = matching_report(complete(6), Matching([(0, 1), (2, 3), (4, 5)]))
    assert rep.stabilizer_order == 48  # 2^3 * 3!
    assert rep.induced_order == 6 and rep.permutable and rep.two_transitive

    rep = matching_report(complete(2), Matching([(0, 1)]))
    assert rep.m == 1 and rep.permutable


def test_petersen_perfect_matching_is_sharply_2transitive():
    g = petersen()
    spokes = Matching([(i, i + 5) for i in range(5)])
    rep = matching_report(g, spokes)
    assert rep.group_order == 120
    assert rep.stabilizer_order == 20
    assert rep.induced_order == 20
    assert rep.two_transitive and not rep.permutable
    # every key, in order, and every value of the serialized report
    assert list(rep.to_json_dict().items()) == [
        ("matching", "0-5,1-6,2-7,3-8,4-9"),
        ("m", 5),
        ("is_matching", True),
        ("is_perfect", True),
        ("group_order", 120),
        ("stabilizer_order", 20),
        ("induced_order", 20),
        ("permutable", False),
        ("two_transitive", True),
        # not canonical: the images of the generators subgroup_search found
        ("induced_generators", [[0, 4, 3, 2, 1], [2, 4, 1, 3, 0]]),
    ]
    # independently, the pinned generators close to a group of order 20
    # that carries (0, 1) onto every ordered pair of distinct edges
    elements = brute_closure(rep.induced_generators, 5)
    assert len(elements) == 20
    assert {(t[0], t[1]) for t in elements} == set(permutations(range(5), 2))


def test_hypercube_three_matching():
    rep = matching_report(hypercube(3), Matching([(0, 1), (2, 6), (5, 7)]))
    assert rep.stabilizer_order == 6
    assert rep.induced_order == 6
    assert rep.permutable


def test_report_json_shape():
    rep = matching_report(cycle(6), Matching([(0, 1), (2, 3), (4, 5)]))
    d = rep.to_json_dict()
    assert d["matching"] == "0-1,2-3,4-5"
    assert d["m"] == 3 and d["is_matching"] and d["is_perfect"]
    assert d["group_order"] == 12 and d["stabilizer_order"] == 6
    assert d["induced_order"] == 6 and d["permutable"] and d["two_transitive"]
    assert all(sorted(p) == [0, 1, 2] for p in d["induced_generators"])

    # the spokes of O_3 under the generators of its S_5 action: several
    # stabilizer generators induce the same permutation or none
    og, og_gens = odd_graph(3)
    spokes = Matching([(2, 3), (1, 4), (0, 5)])
    spoke_rep = matching_report(og, spokes, PermGroup(og_gens, degree=og.n))
    for report in (d, spoke_rep.to_json_dict()):
        gens = [tuple(p) for p in report["induced_generators"]]
        assert (0, 1, 2) not in gens and len(set(gens)) == len(gens)


def test_report_rejects_non_matchings():
    with pytest.raises(ValueError):
        matching_report(cycle(6), Matching([(0, 2)]))
    with pytest.raises(ValueError):
        matching_report(cycle(6), Matching([(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        matching_stabilizer(cycle(6), automorphism_group(cycle(6)),
                            Matching([(0, 3)]))


def test_check_group_action():
    g = cycle(6)
    check_group_action(g, automorphism_group(g))
    with pytest.raises(ValueError):
        check_group_action(g, PermGroup([Perm((1, 0, 2, 3, 4, 5))]))
    with pytest.raises(ValueError):
        check_group_action(g, PermGroup([], degree=5))


def test_check_group_action_remembers_passed_pairs(monkeypatch):
    g = cycle(6)
    rot = Perm.from_cycles(6, [range(6)])
    grp = PermGroup([rot, Perm.from_cycles(6, [(1, 5), (2, 4)])])
    checked = []
    original = Graph.is_automorphism
    monkeypatch.setattr(Graph, "is_automorphism",
                        lambda self, p: checked.append(p) or original(self, p))

    # checked in full against an equal copy of g, then only looked up for g
    check_group_action(Graph(6, g.edges()), grp)
    assert len(checked) == 2
    check_group_action(g, grp)
    assert matching_report(g, Matching([(0, 1), (2, 3), (4, 5)]), grp).permutable
    assert is_arc_transitive(g, grp) and is_2arc_transitive(g, grp)
    assert find_matching(g, grp, 3, MODE_PERMUTABLE) is not None
    assert len(checked) == 2

    # a graph the group does not act on still fails, as does one of
    # another order, and the passed pair is still remembered
    with pytest.raises(ValueError):
        check_group_action(path_graph(6), grp)
    with pytest.raises(ValueError):
        check_group_action(complete(5), grp)
    check_group_action(g, grp)

    # replaced generators are checked again
    grp.generators = (rot, Perm((1, 0, 2, 3, 4, 5)))
    checked.clear()
    with pytest.raises(ValueError):
        check_group_action(g, grp)
    assert len(checked) == 2


def test_matching_orbit_stabilizer_identity():
    cases = [
        (cycle(6), Matching([(0, 1), (2, 3), (4, 5)])),
        (complete(5), Matching([(0, 1), (2, 3)])),
        (petersen(), Matching([(i, i + 5) for i in range(5)])),
        (hypercube(3), Matching([(0, 1), (2, 6), (5, 7)])),
    ]
    for g, m in cases:
        grp = automorphism_group(g)
        start = frozenset(frozenset(e) for e in m.edges)
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for p in grp.generators:
                img = frozenset(frozenset(p.apply(v) for v in e) for e in cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        rep = matching_report(g, m, grp)
        assert len(orbit) * rep.stabilizer_order == rep.group_order


def test_report_invariant_under_relabeling():
    rng = random.Random(808)
    cases = [
        (complete_bipartite(3, 3), Matching([(0, 3), (1, 4), (2, 5)])),
        (prism3(), Matching([(0, 3), (1, 4), (2, 5)])),
        (petersen(), Matching([(i, i + 5) for i in range(5)])),
    ]
    for g, m in cases:
        ref = matching_report(g, m)
        for _ in range(4):
            imgs = list(range(g.n))
            rng.shuffle(imgs)
            sigma = Perm(imgs)
            h = Graph(g.n, [(sigma.apply(u), sigma.apply(v)) for u, v in g.edges()])
            m2 = Matching([(sigma.apply(a), sigma.apply(b)) for a, b in m.edges])
            rep = matching_report(h, m2)
            assert rep.stabilizer_order == ref.stabilizer_order
            assert rep.induced_order == ref.induced_order
            assert rep.permutable == ref.permutable
            assert rep.two_transitive == ref.two_transitive


def test_divisibility_invariants():
    cases = [
        (cycle(8), Matching([(0, 1), (2, 3), (4, 5)])),
        (complete(6), Matching([(0, 1), (2, 3), (4, 5)])),
        (petersen(), Matching([(0, 5), (1, 6)])),
        (hypercube(3), Matching([(0, 1), (2, 3)])),
    ]
    for g, m in cases:
        rep = matching_report(g, m)
        assert rep.group_order % rep.stabilizer_order == 0
        assert math.factorial(rep.m) % rep.induced_order == 0
        assert rep.stabilizer_order % rep.induced_order == 0
        assert rep.permutable == (rep.induced_order == math.factorial(rep.m))


def test_find_matching_witnesses():
    g = cycle(6)
    w = find_matching(g, None, 3, MODE_PERMUTABLE)
    assert w is not None
    assert matching_report(g, w).permutable

    assert find_matching(cycle(8), None, 3, MODE_PERMUTABLE) is None
    assert find_matching(cycle(8), None, 3, MODE_TWO_TRANSITIVE) is None
    assert find_matching(complete(4), None, 3, MODE_PERMUTABLE) is None

    w = find_matching(petersen(), None, 5, MODE_TWO_TRANSITIVE)
    assert w is not None
    assert matching_report(petersen(), w).two_transitive
    assert find_matching(petersen(), None, 5, MODE_PERMUTABLE) is None

    with pytest.raises(ValueError):
        find_matching(cycle(6), None, 0, MODE_PERMUTABLE)
    with pytest.raises(ValueError):
        find_matching(cycle(6), None, 3, "diagonal")


def test_find_matching_against_naive_scan():
    graphs = [
        complete(2),
        cycle(3), cycle(4), cycle(5), cycle(6), cycle(7), cycle(8),
        complete(4), complete(5), complete(6),
        complete_bipartite(3, 3),
        complement(Graph(6, [(0, 1), (2, 3), (4, 5)])),
        hypercube(3),
        prism3(),
        petersen(),
        cycle(9).apply_perm(Perm([4, 7, 0, 8, 2, 5, 1, 3, 6])),
    ]
    suite = [(g, automorphism_group(g)) for g in graphs]
    # rotations alone swap only opposite edges of the hexagon, so most
    # edge pairs are pruned before any matching is tested
    suite.append((cycle(6), PermGroup([Perm.from_cycles(6, [tuple(range(6))])])))
    for g, grp in suite:
        for m in range(1, min(4, g.n // 2) + 1):
            for mode in (MODE_PERMUTABLE, MODE_TWO_TRANSITIVE):
                naive = False
                for cand in all_matchings(g, m):
                    rep = matching_report(g, cand, grp)
                    good = rep.permutable if mode == MODE_PERMUTABLE \
                        else rep.two_transitive
                    if good:
                        naive = True
                        break
                found = find_matching(g, grp, m, mode)
                assert (found is not None) == naive, (g.n, g.edges(), m, mode)
                if found is not None:
                    rep = matching_report(g, found, grp)
                    assert rep.permutable if mode == MODE_PERMUTABLE \
                        else rep.two_transitive


def test_arc_transitivity_predicates():
    assert is_arc_transitive(petersen())
    assert is_2arc_transitive(petersen())
    assert is_locally_symmetric(petersen())
    assert is_locally_primitive(petersen())

    assert is_arc_transitive(complete(5))
    assert is_locally_symmetric(complete(5))
    assert is_arc_transitive(cycle(6))
    assert is_2arc_transitive(cycle(6))
    assert is_arc_transitive(hypercube(3))
    assert is_2arc_transitive(hypercube(3))

    assert not is_arc_transitive(path_graph(4))
    assert not is_arc_transitive(prism3())  # rung and triangle edges differ
    # the octahedron is arc-transitive but distinguishes 2-arcs whose
    # endpoints are adjacent from those whose endpoints are antipodal
    octa = complement(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    assert is_arc_transitive(octa)
    assert not is_2arc_transitive(octa)

    # C_5[2K_1]: arc-transitive, but each local action (order 8) has blocks
    lex = composition(cycle(5), 2)
    assert is_arc_transitive(lex) and automorphism_group(lex).order() == 320
    assert not is_locally_primitive(lex)
    assert not is_locally_symmetric(lex)
    assert not is_locally_primitive(prism3())  # the local action is intransitive
    assert not is_locally_symmetric(path_graph(3))  # not vertex-transitive


def test_arc_transitivity_against_element_closure():
    # each predicate holds exactly when every element of the group, listed
    # by closing its generators under products, sends the least s-arc onto
    # an orbit that is the set of all s-arcs
    rng = random.Random(2017)
    for _ in range(300):
        n = rng.randint(2, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        aut = automorphism_group(g)
        one = PermGroup(rng.sample(aut.generators, min(1, len(aut.generators))), degree=n)
        arcs = [(a, b) for a, b in permutations(range(n), 2) if g.has_edge(a, b)]
        two_arcs = [(a, b, c) for a, b in arcs for c in g.neighbors(b) if c != a]
        for grp in (aut, one):
            elements = {tuple(range(n))}
            frontier = list(elements)
            while frontier:
                x = frontier.pop()
                for p in grp.generators:
                    y = tuple(p.images[i] for i in x)
                    if y not in elements:
                        elements.add(y)
                        frontier.append(y)
            assert len(elements) == grp.order()
            for predicate, s_arcs in ((is_arc_transitive, arcs),
                                      (is_2arc_transitive, two_arcs)):
                orbit = {tuple(e[v] for v in min(s_arcs)) for e in elements} \
                    if s_arcs else set()
                assert predicate(g, grp) == (orbit == set(s_arcs)), (g.edges(), grp.generators)


def test_degree_bound_check():
    g = cycle(6)
    grp = automorphism_group(g)
    assert degree_bound_check(g, grp, Matching([(0, 1), (2, 3), (4, 5)]))

    g = cycle(9)
    assert degree_bound_check(g, automorphism_group(g),
                              Matching([(0, 1), (3, 4), (6, 7)]))

    g = complete_bipartite(3, 3)
    assert degree_bound_check(g, automorphism_group(g),
                              Matching([(0, 3), (1, 4), (2, 5)]))

    g = complete(5)
    assert degree_bound_check(g, automorphism_group(g), Matching([(0, 1), (2, 3)]))

    with pytest.raises(ValueError):
        degree_bound_check(path_graph(4), automorphism_group(path_graph(4)),
                           Matching([(0, 1)]))
    with pytest.raises(ValueError):
        # stabilizer of this matching only swaps the outer pair: not permutable
        degree_bound_check(cycle(8), automorphism_group(cycle(8)),
                           Matching([(0, 1), (2, 3), (4, 5)]))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        degree_bound_check(two_triangles, automorphism_group(two_triangles),
                           Matching([(0, 1), (3, 4)]))


def test_degree_bound_check_verifies_group_once(monkeypatch):
    g = cycle(6)
    grp = automorphism_group(g)
    checked = []
    original = Graph.is_automorphism
    monkeypatch.setattr(Graph, "is_automorphism",
                        lambda self, p: checked.append(p) or original(self, p))
    assert degree_bound_check(g, grp, Matching([(0, 1), (2, 3), (4, 5)]))
    assert checked == list(grp.generators) and 1 <= len(checked) <= g.n - 1


def test_find_matching_leaves_no_reference_cycle():
    # with the collector off, a cycle left behind by the call is garbage
    # that only gc.collect() finds
    gc.collect()
    gc.disable()
    try:
        for g in (cycle(9), cycle(8)):
            find_matching(g, None, 3, MODE_PERMUTABLE)
            assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def relabeled_catalog_graphs(draw):
    """A catalog graph for m = 2..5 in either mode, relabeled, with m and
    the mode."""
    m = draw(st.integers(2, 5))
    mode = draw(st.sampled_from((MODE_PERMUTABLE, MODE_TWO_TRANSITIVE)))
    g = draw(st.sampled_from(matching_catalog(m, mode).entries)).graph
    return g.apply_perm(Perm(draw(st.permutations(range(g.n))))), m, mode


@seed(2017)
@settings(max_examples=40, deadline=None, database=None)
@given(relabeled_catalog_graphs())
def test_find_matching_witness_checked_independently(case):
    """The stabilizer generators of a witness are automorphisms that map it
    onto itself, and the edge permutations they induce generate S_m or a
    2-transitive group, by closure."""
    g, m, mode = case
    grp = automorphism_group(g)
    witness = find_matching(g, grp, m, mode)
    assert witness is not None
    index = {frozenset(e): i for i, e in enumerate(witness)}
    induced = []
    for p in matching_stabilizer(g, grp, witness).generators:
        assert all(g.has_edge(p.apply(u), p.apply(v)) for u, v in g.edges())
        images = [index.get(frozenset(map(p.apply, e))) for e in witness]
        assert None not in images
        induced.append(tuple(images))
    closure = {tuple(range(m))}
    frontier = list(closure)
    while frontier:
        t = frontier.pop()
        for q in induced:
            u = tuple(q[x] for x in t)
            if u not in closure:
                closure.add(u)
                frontier.append(u)
    if mode == MODE_PERMUTABLE:
        assert len(closure) == math.factorial(m)
    else:
        assert {(t[0], t[1]) for t in closure} == set(permutations(range(m), 2))


@st.composite
def graphs_with_matchings(draw):
    """A graph on 2..8 vertices, a nonempty matching of it and a relabeling."""
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=1, unique=True))
    used: set[int] = set()
    pairs = []
    for u, v in draw(st.permutations(edges)):
        if u not in used and v not in used:
            pairs.append((u, v))
            used |= {u, v}
    m = draw(st.integers(1, len(pairs)))
    return Graph(n, edges), Matching(pairs[:m]), Perm(draw(st.permutations(range(n))))


@seed(2017)
@settings(max_examples=150, deadline=None, database=None)
@given(graphs_with_matchings())
def test_matching_report_invariant_under_relabeling(case):
    g, matching, sigma = case
    moved = Matching([(sigma.apply(a), sigma.apply(b)) for a, b in matching])

    def fields(rep):
        return (rep.group_order, rep.stabilizer_order, rep.induced_order,
                rep.permutable, rep.two_transitive)

    assert fields(matching_report(g.apply_perm(sigma), moved)) == fields(matching_report(g, matching))


@pytest.mark.parametrize("mode", [MODE_PERMUTABLE, MODE_TWO_TRANSITIVE])
def test_search_agrees_with_the_route_before_orbit_pruning(mode):
    """On every catalog entry for m <= 7, find_matching returns the witness
    of the old route (one rebase from the full group per partial matching,
    unpruned subgroup search), and both routes give equal stabilizer orders
    on each prefix of it."""
    for m in range(2, 8):
        for entry in matching_catalog(m, mode).entries:
            g = entry.graph
            witness = find_matching(g, None, m, mode)
            assert witness is not None and witness == subgroup_oracle.find_matching(g, None, m, mode)
            grp = automorphism_group(g)
            for k in range(1, m + 1):
                prefix = Matching(witness.edges[:k])
                assert (matching_stabilizer(g, grp, prefix).order()
                        == subgroup_oracle.matching_stabilizer(g, grp, prefix).order())


@pytest.mark.parametrize("mode", [MODE_PERMUTABLE, MODE_TWO_TRANSITIVE])
def test_stabilizer_chains_are_their_read_off(monkeypatch, mode):
    """Every stabilizer find_matching searches on the catalog entries for
    m <= 5 has the chain read off its own base and generators."""
    searched = []
    search = matchings.subgroup_search

    def checked(*args, **kwargs):
        stab = search(*args, **kwargs)
        assert_chain_is_read_off(stab)
        searched.append(stab.order())
        return stab

    monkeypatch.setattr(matchings, "subgroup_search", checked)
    for m in range(2, 6):
        for entry in matching_catalog(m, mode).entries:
            assert find_matching(entry.graph, None, m, mode) is not None
    assert len(searched) > 50 and max(searched) > 1


@pytest.mark.parametrize("predicate", [is_locally_primitive, is_locally_symmetric])
def test_local_predicates_reject_disconnected_graphs(predicate):
    with pytest.raises(ValueError, match="connected"):
        predicate(Graph(4, [(0, 1), (2, 3)]))


def test_stabilizer_of_the_empty_matching_is_the_group():
    group = automorphism_group(cycle(6))
    assert matching_stabilizer(cycle(6), group, Matching([])) is group

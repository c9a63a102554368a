"""Permutation engine checked against exhaustive element closure.

Every structural claim (order, membership, stabilizers, induced actions) is
cross-checked on degree <= 8 groups by brute-force expansion of the
generated set, which is feasible up to |S_8| = 40320 elements.
"""

import inspect
import math
import random
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permatch import (
    BlockSystem,
    Graph,
    Matching,
    Perm,
    PermGroup,
    automorphism_group,
    complete,
    complete_bipartite,
    covering_transformations,
    cycle,
    cycle_system_matching,
    derived_cover,
    find_matching,
    hypercube,
    induced_action,
    is_2transitive,
    is_primitive,
    is_transitive,
    lift_group,
    matching_stabilizer,
    minimal_block,
    near_polygonal_certificate,
    odd_graph,
    orbits,
    path_graph,
    petersen,
    spanning_tree,
    standard_assignment,
    subgroup_search,
)
from permatch import perms
from closure_oracle import brute_closure
import subgroup_oracle


def random_group(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Perm(images))
    return gens


def sym_gens(n):
    return [Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])]


def random_word(rng, gens, length=20):
    """A product of length generators drawn at random."""
    p = Perm.identity(gens[0].degree)
    for _ in range(length):
        p = p * rng.choice(gens)
    return p


def assert_strong_generating_set(group):
    """For each level i, the strong generators fixing base[:i] carry base[i]
    onto the whole basic orbit and no further."""
    base, strong = group.base, group.strong_generators
    for i, orbit in enumerate(group.basic_orbits()):
        fixing = [s for s in strong if all(s.images[b] == b for b in base[:i])]
        assert tuple(sorted(orbits(fixing, [base[i]])[0])) == orbit, i


def assert_chain_is_read_off(group):
    """Each level of the group's chain has the point, generator list and
    tree (items in order) of the chain read off its base and generators."""
    read_off = PermGroup._from_strong_generators(group.base, group.generators, group.degree)
    assert ([(lvl.point, lvl.gens, list(lvl.tree.items())) for lvl in group._levels]
            == [(lvl.point, lvl.gens, list(lvl.tree.items())) for lvl in read_off._levels])


def assert_chain_is_sound(group):
    """Each level's generators fix the earlier base points, and its tree
    holds exactly the orbit of its point under them, has the point as root,
    links y: (x, k) only where gens[k] sends x to y, and leads back to the
    root from every point.  Where the tree sizes from a level down multiply
    to at most 5,040, the level's generators generate exactly that many
    elements, so none generates too little (is_transitive and is_2transitive
    read the first two levels as the group's and its point stabilizer's)."""
    sizes = [len(lvl.tree) for lvl in group._levels]
    for i, lvl in enumerate(group._levels):
        assert all(g.images[b] == b for g in lvl.gens for b in group.base[:i])
        if math.prod(sizes[i:]) <= 5040:
            assert len(brute_closure(lvl.gens, group.degree)) == math.prod(sizes[i:]), i
        tree = lvl.tree
        assert set(tree) == set(orbits(lvl.gens, [lvl.point])[0])
        assert tree[lvl.point] is None
        for y, link in tree.items():
            if link is not None:
                x, k = link
                assert lvl.gens[k].images[x] == y
            for _ in range(len(tree)):
                if tree[y] is None:
                    break
                y = tree[y][0]
            assert y == lvl.point


def chain_snapshot(group):
    """Each level's point, generator list and tree items in order."""
    return [(lvl.point, list(lvl.gens), list(lvl.tree.items())) for lvl in group._levels]


def k4_cover(p):
    """The Z_p-homology cover of K_4."""
    return derived_cover(standard_assignment(complete(4), p, spanning_tree(complete(4))))


def star_cover(g, p):
    """The Z_p-homology cover of g, its star matching and its lifted group."""
    cover = derived_cover(standard_assignment(g, p, spanning_tree(g)))
    matching = cycle_system_matching(cover, 0, near_polygonal_certificate(g))
    return cover, matching, lift_group(cover, automorphism_group(g))


def test_perm_algebra():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 10)
        p, q = random_group(rng, n, 2)
        pq = p * q
        for x in range(n):
            assert pq.apply(x) == q.apply(p.apply(x))
        assert (p * p.inverse()).is_identity()


@st.composite
def perm_triples(draw):
    """Three permutations of one degree in 1..9."""
    n = draw(st.integers(1, 9))
    return tuple(Perm(draw(st.permutations(range(n)))) for _ in range(3))


@seed(2017)
@settings(max_examples=200, deadline=None, database=None)
@given(perm_triples())
def test_perm_algebra_laws(triple):
    p, q, r = triple
    n = p.degree
    ident = Perm.identity(n)
    assert (p * q) * r == p * (q * r)
    assert p * ident == p == ident * p
    assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()
    assert Perm.from_cycles(n, p.cycles()) == p
    assert Perm.parse(p.cycle_string(), n) == p


def test_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 1, 3])


def test_cycle_notation_round_trip():
    p = Perm.from_cycles(6, [(0, 1, 2), (4, 5)])
    assert p.images == (1, 2, 0, 3, 5, 4)
    assert Perm.parse(p.cycle_string(), 6) == p
    assert Perm.identity(4).cycle_string() == "()"
    assert Perm.parse("()", 4) == Perm.identity(4)


def test_order_and_membership_match_brute_closure():
    rng = random.Random(20260815)

    def check(gens):
        degree = gens[0].degree
        elements = brute_closure(gens, degree)
        group = PermGroup(gens)
        assert group.order() == len(elements), gens
        for t in rng.sample(sorted(elements), min(20, len(elements))):
            assert Perm(t) in group
        for _ in range(20):
            images = list(range(degree))
            rng.shuffle(images)
            assert (Perm(images) in group) == (tuple(images) in elements)
        return len(elements)

    for _ in range(40):
        degree = rng.randrange(3, 9)
        check(random_group(rng, degree, rng.randrange(1, 4)))
    # Closed forms whose Schreier-Sims restarts at deep levels.
    # S_2 wr S_4 on the pairs {2i, 2i + 1}: 2^4 * 4!
    assert check([Perm.from_cycles(8, [(0, 1)]), Perm.from_cycles(8, [(0, 2), (1, 3)]),
                  Perm.from_cycles(8, [(0, 2, 4, 6), (1, 3, 5, 7)])]) == 384
    # PGL(2,7) on the projective line, infinity as 7: x + 1, 3x and -1/x
    pgl = [[(x + 1) % 7 for x in range(7)] + [7],
           [3 * x % 7 for x in range(7)] + [7],
           [7] + [-pow(x, -1, 7) % 7 for x in range(1, 7)] + [0]]
    assert check([Perm(images) for images in pgl]) == 8 * 7 * 6


def test_known_group_orders():
    assert PermGroup(sym_gens(3)).order() == 6
    assert PermGroup(sym_gens(8)).order() == math.factorial(8)
    assert PermGroup([Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]).order() == 5
    rot = Perm.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])
    flip = Perm([(7 - i) % 7 for i in range(7)])
    assert PermGroup([rot, flip]).order() == 14
    a4 = PermGroup([Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)])])
    assert a4.order() == 12


def mathieu_gens():
    """M_11 from (1 ... 11) and (3 7 11 8)(4 10 5 6), and M_12 with
    (1 12)(2 11)(3 6)(4 8)(5 9)(7 10) added, in 1-based cycles."""
    def perm(n, cycles):
        return Perm.from_cycles(n, [[x - 1 for x in c] for c in cycles])

    m11 = [perm(11, [range(1, 12)]), perm(11, [(3, 7, 11, 8), (4, 10, 5, 6)])]
    m12 = [perm(12, [range(1, 12)]), perm(12, [(3, 7, 11, 8), (4, 10, 5, 6)]),
           perm(12, [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)])]
    return m11, m12


@pytest.mark.parametrize("case", ["M11", "M12", "O3", "O4", "O5", "O6"])
def test_known_orders_at_scale(case):
    """Orders where a skipped Schreier generator would show: the Mathieu
    groups, and S_{2m-1} on the (m-1)-subsets (the odd graph O_m)."""
    m11, m12 = mathieu_gens()
    if case == "M11":
        gens, order = m11, 7920
    elif case == "M12":
        gens, order = m12, 95040
    else:
        m = int(case[1:])
        gens, order = odd_graph(m)[1], math.factorial(2 * m - 1)
    group = PermGroup(gens)
    assert group.order() == order
    assert_strong_generating_set(group)
    rng = random.Random(case)
    assert all(random_word(rng, gens) in group for _ in range(50))
    # no element moves exactly two points: the Mathieu groups are even, and a
    # symbol permutation other than the identity moves at least six subsets
    for g in gens:
        a, b = rng.sample(range(g.degree), 2)
        assert g * Perm.from_cycles(g.degree, [(a, b)]) not in group


def test_strong_generators_consistent():
    gens = sym_gens(5)
    group = PermGroup(gens)
    elements = brute_closure(gens, 5)
    for s in group.strong_generators:
        assert s.images in elements
    prod = 1
    for orb in group.basic_orbits():
        prod *= len(orb)
    assert prod == group.order() == 120


def test_stabilizers_match_brute_filter():
    rng = random.Random(7)
    for _ in range(12):
        degree = rng.randrange(4, 8)
        gens = random_group(rng, degree, 2)
        elements = brute_closure(gens, degree)
        group = PermGroup(gens)

        pt = rng.randrange(degree)
        expect = {t for t in elements if t[pt] == pt}
        assert group.pointwise_stabilizer((pt,)).order() == len(expect)

        pts = rng.sample(range(degree), 2)
        expect = {t for t in elements if all(t[x] == x for x in pts)}
        assert group.pointwise_stabilizer(pts).order() == len(expect)

        # every permutation is an automorphism of K_degree
        ends = rng.sample(range(degree), 2 * rng.randrange(1, degree // 2 + 1))
        matching = Matching(zip(ends[::2], ends[1::2]))
        keys = matching.edge_keys()
        expect = {t for t in elements
                  if {frozenset((t[a], t[b])) for a, b in matching} == keys}
        stab = matching_stabilizer(complete(degree), group, matching)
        assert stab.order() == len(expect)
        # membership reads only the chain the search built
        assert {t for t in permutations(range(degree)) if Perm(t) in stab} == expect
        for s in stab.generators:
            assert {frozenset((s.images[a], s.images[b])) for a, b in matching} == keys


def test_setwise_stabilizer_known_cases():
    s4 = PermGroup(sym_gens(4))
    assert matching_stabilizer(complete(4), s4, Matching([(0, 1)])).order() == 4


def test_orbit_stabilizer_identity_for_sets():
    """|G| = |G_S| * |orbit of S| for the action on 2-subsets, each the edge
    of a 1-matching of K_degree."""
    rng = random.Random(3)
    for _ in range(8):
        degree = rng.randrange(4, 8)
        gens = random_group(rng, degree, 2)
        group = PermGroup(gens)
        target = frozenset(rng.sample(range(degree), 2))
        orbit = {target}
        frontier = [target]
        while frontier:
            s = frontier.pop()
            for g in gens:
                img = frozenset(g.images[x] for x in s)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        stab = matching_stabilizer(complete(degree), group, Matching([sorted(target)]))
        assert stab.order() * len(orbit) == group.order()


def test_subgroup_search_parity():
    s5 = PermGroup(sym_gens(5))

    def is_even(p):
        return sum(len(c) - 1 for c in p.cycles()) % 2 == 0

    a5 = subgroup_search(s5, is_even)
    assert a5.order() == 60
    assert all(is_even(g) for g in a5.generators)
    for images in permutations(range(5)):
        assert (Perm(images) in a5) == is_even(Perm(images))


def test_subgroup_search_skips_points_the_found_subgroup_reaches():
    # A_8 in S_8: each level needs one element past the orbit of the
    # elements found deeper (the search before that pruning made 42 tests
    # and kept 27 generators, one per point of each basic orbit)
    s8 = PermGroup(sym_gens(8))
    counts = {}
    for name, search in (("new", subgroup_search), ("old", subgroup_oracle.subgroup_search)):
        tests = 0

        def is_even(p):
            nonlocal tests
            tests += 1
            return sum(len(c) - 1 for c in p.cycles()) % 2 == 0

        a8 = search(s8, is_even)
        assert a8.order() == math.factorial(8) // 2
        counts[name] = (tests, len(a8.generators))
    assert counts["old"] == (42, 27)
    assert counts["new"][0] <= 12 and counts["new"][1] <= 6


def test_subgroup_search_inverts_nothing(monkeypatch):
    # the search files what it finds without inverting it (the read-off
    # before made one inverse per element found); a permutation keeps the
    # inverse it computed
    s8 = PermGroup(sym_gens(8))
    calls = []
    inverse = Perm.inverse

    def counted(p):
        calls.append(p)
        return inverse(p)

    monkeypatch.setattr(Perm, "inverse", counted)
    a8 = subgroup_search(s8, lambda p: sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
    assert a8.order() == math.factorial(8) // 2 and a8.generators
    assert calls == []
    p = Perm.from_cycles(8, [(0, 3, 5), (1, 7)])
    assert p.inverse() is p.inverse()
    assert p.inverse().inverse() == p and p * p.inverse() == Perm.identity(8)


def test_subgroup_search_depth_is_not_bounded_by_recursion_limit():
    # the search is one loop over a stack of chain levels: a 200-level chain
    # runs in the 60 frames left here, and the limit is never changed, not
    # even while the search runs
    n = 200
    group = PermGroup._from_strong_generators(
        [2 * i for i in range(n)], [Perm.from_cycles(2 * n, [(2 * i, 2 * i + 1)]) for i in range(n)],
        2 * n)
    limit = sys.getrecursionlimit()
    leaves = 0

    def test(p):
        nonlocal leaves
        leaves += 1
        assert sys.getrecursionlimit() == tight
        return True

    try:
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        tight = sys.getrecursionlimit()
        found = subgroup_search(group, test)
        assert sys.getrecursionlimit() == tight
    finally:
        sys.setrecursionlimit(limit)
    assert found.order() == 2 ** n and leaves == n


def test_subgroup_search_visiting_order_is_pinned():
    # the generators a search returns, in order, recorded from the recursive
    # search the loop replaced: A_8 in S_8 by parity, and the stabilizer of
    # the spokes of O_3 under its S_5 action
    s8 = PermGroup(sym_gens(8))
    a8 = subgroup_search(s8, lambda p: sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
    assert [p.images for p in a8.generators] == [
        (0, 1, 2, 4, 7, 5, 6, 3), (0, 1, 2, 5, 4, 7, 6, 3), (0, 1, 2, 6, 4, 5, 7, 3),
        (0, 1, 3, 2, 5, 6, 7, 4), (0, 2, 3, 4, 5, 6, 7, 1), (1, 0, 2, 7, 4, 5, 6, 3)]
    og, og_gens = odd_graph(3)
    spokes = Matching([(2, 3), (1, 4), (0, 5)])
    stab = matching_stabilizer(og, PermGroup(og_gens, degree=og.n), spokes)
    assert [p.images for p in stab.generators] == [
        (5, 4, 2, 3, 1, 0, 9, 8, 7, 6), (4, 5, 2, 3, 0, 1, 9, 7, 8, 6),
        (0, 2, 1, 4, 3, 5, 7, 6, 8, 9)]
    assert stab.order() == 24


def test_building_a_chain_walks_no_orbit_again(monkeypatch):
    # filing a generator extends the trees it joins, so neither Schreier-Sims,
    # nor a search, nor a read-off walks a basic orbit again (the chains
    # below took 68 walks when each tree was regrown from its root)
    calls = []
    walk = perms.orbits

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(perms, "orbits", counted)
    s8 = PermGroup(sym_gens(8))
    a8 = subgroup_search(s8, lambda p: sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
    lifted = lift_group(k4_cover(3), automorphism_group(complete(4)))
    aut = automorphism_group(petersen())
    assert calls == []
    assert (a8.order(), lifted.order(), aut.order()) == (math.factorial(8) // 2, 24 * 27, 120)


def test_orbits_partition_domain():
    rng = random.Random(5)
    for _ in range(10):
        degree = rng.randrange(3, 10)
        group = PermGroup(random_group(rng, degree, 1))
        parts = group.orbits()
        flat = sorted(x for orb in parts for x in orb)
        assert flat == list(range(degree))
        for orb in parts:
            (tree,) = orbits(group.generators, [orb[0]])
            assert set(tree) == set(orb)


def test_orbits_schreier_trees():
    rng = random.Random(11)
    for _ in range(10):
        degree = rng.randrange(3, 10)
        gens = random_group(rng, degree, 1)
        seeds = rng.sample(range(degree), degree)
        trees = orbits(gens, seeds)
        assert sorted(x for t in trees for x in t) == list(range(degree))
        roots = [next(iter(t)) for t in trees]
        # each root is its orbit's first seed, and trees follow seed order
        assert roots == [next(s for s in seeds if s in t) for t in trees]
        assert sorted(roots, key=seeds.index) == roots
        for t, root in zip(trees, roots):
            assert t[root] is None
            for y, link in t.items():
                if link is None:
                    continue
                x, k = link
                assert gens[k].images[x] == y
                assert list(t).index(x) < list(t).index(y)
    # another action: ordered pairs, seeds in one orbit start one tree
    c4 = [Perm.from_cycles(4, [(0, 1, 2, 3)])]
    pairs = orbits(c4, [(0, 1), (2, 3), (0, 2)], lambda im, t: (im[t[0]], im[t[1]]))
    assert [list(t) for t in pairs] == [[(0, 1), (1, 2), (2, 3), (3, 0)],
                                       [(0, 2), (1, 3), (2, 0), (3, 1)]]


def test_transitivity_predicates():
    # degrees 0 and 1 are vacuous; on 2 points only S_2 is transitive
    for n in range(3):
        assert is_transitive(PermGroup((), n)) == is_2transitive(PermGroup((), n)) == (n <= 1)
    s2 = PermGroup([Perm([1, 0])])
    assert is_transitive(s2) and is_2transitive(s2)
    trivial = PermGroup((), 5)
    assert not is_transitive(trivial) and not is_2transitive(trivial)
    c4 = PermGroup([Perm.from_cycles(4, [(0, 1, 2, 3)])])
    assert is_transitive(c4)
    assert not is_2transitive(c4)
    s3 = PermGroup(sym_gens(3))
    assert is_2transitive(s3)
    a4 = PermGroup([Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)])])
    assert is_2transitive(a4)
    rot = Perm.from_cycles(4, [(0, 1, 2, 3)])
    flip = Perm([(4 - i) % 4 for i in range(4)])
    assert not is_2transitive(PermGroup([rot, flip]))


def test_2transitive_matches_pair_orbit_size():
    """is_transitive and is_2transitive, read off a chain's first two
    levels, agree with walks over the group's generators (the orbit of the
    first base point, and the orbit of an ordered pair of distinct points)
    on chains of every kind: Schreier-Sims, rebase (a trivial level, a hint
    longer than the chain, a conjugation, a repeated point), the stabilizer
    searches, graph groups, lifts and induced actions."""
    def walk(gens, start, act):
        seen, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = act(g.images, x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    answers = set()

    def check(group):
        n, gens = group.degree, group.generators
        first = group.base[0] if group.base else 0
        transitive = n <= 1 or len(walk(gens, first, lambda im, x: im[x])) == n
        pairs = n <= 1 or len(walk(gens, (0, 1), lambda im, t: (im[t[0]], im[t[1]]))) == n * (n - 1)
        assert (is_transitive(group), is_2transitive(group)) == (transitive, pairs)
        answers.add((transitive, pairs))

    def support_perm(rng, n):
        # a random permutation of a random set of points, fixing the rest
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        images = list(range(n))
        for x, y in zip(support, rng.sample(support, len(support))):
            images[x] = y
        return Perm(images)

    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 9)
        group = PermGroup([support_perm(rng, n) for _ in range(rng.randrange(4))], degree=n)
        chains = [group, group.rebase(rng.sample(range(n), n))]  # hint longer than the chain
        assert len(chains[1]._levels) == n
        fixed = [x for x in range(n) if all(g.images[x] == x for g in group.generators)]
        if fixed:  # a trivial level 0
            chains.append(group.rebase([fixed[-1]] + rng.sample(range(n), rng.randrange(n))))
            assert len(chains[-1]._levels[0].tree) == 1
        if group.base and len(group._levels[0].tree) > 1:  # a conjugation
            chains.append(group.rebase([max(group._levels[0].tree)]))
            assert chains[-1].base[0] != group.base[0]
        hint = rng.sample(range(n), rng.randrange(1, n + 1))
        chains.append(group.rebase(hint + hint[:1] + hint))  # repeats are dropped
        assert chains[-1].base[:len(hint)] == tuple(hint)
        chains.append(group.pointwise_stabilizer(hint[:rng.randrange(3)]))
        even = subgroup_search(group, lambda p: sum(len(c) - 1 for c in p.cycles()) % 2 == 0)
        chains.append(even)
        points = rng.sample(range(n), n)
        matching = Matching(zip(points[0::2], points[1::2]))
        if matching.edges:
            stab = matching_stabilizer(complete(n), group, matching)
            chains += [stab, induced_action(stab, matching.edges)]
        for chain in chains:
            check(chain)
    for g in (complete(5), petersen(), hypercube(3), cycle(6), path_graph(4),
              complete_bipartite(2, 3)):
        check(automorphism_group(g))
    check(lift_group(k4_cover(3), automorphism_group(complete(4))))
    check(covering_transformations(k4_cover(3)))
    for g, m in [(complete(6), [(0, 1), (2, 3), (4, 5)]), (hypercube(3), [(0, 1), (2, 3)]),
                 (petersen(), [(0, 1)])]:
        check(induced_action(matching_stabilizer(g, automorphism_group(g), Matching(m)), m))
    assert answers == {(False, False), (True, False), (True, True)}


def test_primitivity_and_blocks():
    rot = Perm.from_cycles(4, [(0, 1, 2, 3)])
    flip = Perm([(4 - i) % 4 for i in range(4)])
    d4 = PermGroup([rot, flip])
    assert not is_primitive(d4)
    blocks = minimal_block(d4, (0, 2))
    assert sorted(map(sorted, blocks)) == [[0, 2], [1, 3]]

    c5 = PermGroup([Perm.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert is_primitive(c5)
    assert is_primitive(PermGroup(sym_gens(6)))

    rot6 = Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip6 = Perm([(6 - i) % 6 for i in range(6)])
    assert not is_primitive(PermGroup([rot6, flip6]))


def test_induced_action_on_cells():
    rot = Perm.from_cycles(4, [(0, 1, 2, 3)])
    flip = Perm([(4 - i) % 4 for i in range(4)])
    d4 = PermGroup([rot, flip])
    assert induced_action(d4, [[0, 2], [1, 3]]).order() == 2

    s4 = PermGroup(sym_gens(4))
    singletons = [[i] for i in range(4)]
    assert induced_action(s4, singletons).order() == 24

    # the 4-cycle does not permute {0,1}, {2,3}
    with pytest.raises(ValueError):
        induced_action(PermGroup([rot]), [[0, 1], [2, 3]])


def test_is_symmetric_action():
    rot6 = Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip6 = Perm([(6 - i) % 6 for i in range(6)])
    d6 = PermGroup([rot6, flip6])
    cells = [[0, 1], [2, 3], [4, 5]]
    kept = subgroup_search(d6, lambda g: all(
        {g.images[a], g.images[b]} in [set(c) for c in cells] for a, b in cells))
    assert induced_action(kept, cells).order() == 6
    assert induced_action(PermGroup((), 6), [[0, 1], [2, 3]]).order() == 1


def test_rebase_preserves_group():
    gens = sym_gens(5)
    group = PermGroup(gens)
    rebased = group.rebase([3, 1])
    assert rebased.order() == 120
    assert tuple(rebased.base)[:2] == (3, 1)
    for g in gens:
        assert g in rebased


@st.composite
def groups_with_hints(draw):
    """Generators of a group of degree <= 7 (single cycles, which give
    small groups, or arbitrary permutations) and a base hint."""
    n = draw(st.integers(1, 7))
    points = st.integers(0, n - 1)
    cycle_gen = st.lists(points, unique=True, min_size=1).map(
        lambda c: Perm.from_cycles(n, [c]))
    any_gen = st.permutations(range(n)).map(Perm)
    gens = draw(st.lists(st.one_of(cycle_gen, any_gen), min_size=1, max_size=3))
    hint = draw(st.lists(points, unique=True))
    return gens, hint


@seed(2017)
@settings(max_examples=120, deadline=None, database=None)
@given(groups_with_hints())
def test_rebase_properties(case):
    gens, hint = case
    n = gens[0].degree
    group = PermGroup(gens)
    rebased = group.rebase(hint)
    assert rebased.order() == group.order()
    assert rebased.base[:len(hint)] == tuple(hint)
    assert rebased.generators == group.generators
    assert math.prod(len(o) for o in rebased.basic_orbits()) == rebased.order()
    closure = brute_closure(gens, n)
    for images in permutations(range(n)):
        assert (Perm(images) in rebased) == (images in closure)
    assert rebased.strong_generators == group.rebase(hint).strong_generators
    assert_strong_generating_set(rebased)
    twice = rebased.rebase(hint[::-1])
    assert twice.order() == group.order()
    assert twice.base[:len(hint)] == tuple(hint[::-1])
    assert_strong_generating_set(twice)
    for images in permutations(range(n)):
        assert (Perm(images) in twice) == (images in closure)


@pytest.mark.parametrize("base, p", [(hypercube(3), 3), (complete(4), 5)], ids=["Q3p3", "K4p5"])
def test_rebase_on_covers_and_read_off_chains(base, p):
    """rebase of a lifted group and of the read-off chain of the cover's
    automorphism group, onto the star matching's vertices and onto random
    hints, keeps the group and leaves the source chain as it was."""
    cover, matching, lifted = star_cover(base, p)
    n = cover.graph.n
    rng = random.Random(n)
    hints = [matching.vertices()] + [rng.sample(range(n), rng.randrange(1, 9)) for _ in range(10)]
    for group in (lifted, automorphism_group(cover.graph)):
        assert group.order() == lifted.order()
        members = [random_word(rng, group.generators) for _ in range(50)]
        others = [g * Perm.from_cycles(n, [rng.sample(range(n), 2)]) for g in members]
        assert not any(g in group for g in others)  # covers have no twin vertices
        source_base, source_orbits = group.base, group.basic_orbits()
        for hint in hints:
            rebased = group.rebase(hint)
            assert rebased.order() == group.order()
            assert rebased.generators == group.generators
            assert rebased.base[:len(hint)] == tuple(hint)
            assert_strong_generating_set(rebased)
            k = 50 if hint is hints[0] else 10  # sifts through deep trees cost ms here
            assert all(g in rebased for g in members[:k])
            assert not any(g in rebased for g in others[:k])
            assert group.base == source_base and group.basic_orbits() == source_orbits


def test_schreier_sims_work_bounds(monkeypatch):
    """Sift counts that Schreier's lemma at level 0, filing each residue only
    below the level that found it, and rebase by conjugation keep low:
    building S_9 on O_5 took 1,511 sifts when every Schreier generator of
    level 0 was sifted and 377 when each residue was filed at every level
    down to where it stuck (S_11 on O_6: 1,025); rebuilding the Q_3 p = 3
    cover's chain on the star vertices by Schreier-Sims takes 114."""
    sifts = []
    sift = perms._sift

    def counted(*args):
        sifts.append(1)
        return sift(*args)

    _, matching, lifted = star_cover(hypercube(3), 3)
    monkeypatch.setattr(perms, "_sift", counted)
    s9 = PermGroup(odd_graph(5)[1])
    assert s9.order() == math.factorial(9)
    assert len(sifts) <= 300
    # rebase starts Schreier-Sims from the generators of the first level it
    # cannot keep and of every level below: from that level's alone, 230
    sifts.clear()
    assert s9.rebase([26, 12, 62]).order() == math.factorial(9)
    assert len(sifts) <= 100
    sifts.clear()
    assert PermGroup(odd_graph(6)[1]).order() == math.factorial(11)
    assert len(sifts) <= 820
    sifts.clear()
    assert lifted.rebase(matching.vertices()).order() == lifted.order()
    assert len(sifts) <= 10
    # PermGroup stops at n!: without that stop, S_9 on 9 points takes 241 sifts
    # and find_matching on 20 disjoint edges with m = 20 takes 3,259
    sifts.clear()
    nine_cycle, transposition = Perm.from_cycles(9, [range(9)]), Perm.from_cycles(9, [(0, 1)])
    assert PermGroup([nine_cycle, transposition]).order() == math.factorial(9)
    assert len(sifts) <= 60
    g = Graph(40, [(2 * i, 2 * i + 1) for i in range(20)])
    group = automorphism_group(g)
    sifts.clear()
    assert len(find_matching(g, group, 20, "permutable")) == 20
    assert len(sifts) <= 500


def test_sifts_build_no_identity_per_residue(monkeypatch):
    """Schreier-Sims compares residues with one identity tuple per run, and
    a membership test with one per test: Perm.is_identity, which builds a
    fresh identity on every call, is never asked."""
    calls = []
    is_identity = Perm.is_identity

    def counted(self):
        calls.append(self)
        return is_identity(self)

    cover, base = k4_cover(3), automorphism_group(complete(4))
    monkeypatch.setattr(Perm, "is_identity", counted)
    s9 = PermGroup(odd_graph(5)[1])
    lifted = lift_group(cover, base)
    a, b = s9.generators[:2]
    assert a * b in s9 and Perm.from_cycles(s9.degree, [(0, 1)]) not in s9
    assert lifted.generators[0] * lifted.generators[-1] in lifted
    assert Perm.identity(lifted.degree) in lifted
    assert s9.order() == math.factorial(9) and lifted.order() == 24 * 27
    assert calls == []


@seed(2017)
@settings(max_examples=120, deadline=None, database=None)
@given(groups_with_hints())
def test_chain_trees_are_sound_and_searches_leave_their_source_alone(case):
    """Chains from Schreier-Sims, rebase, pointwise_stabilizer and
    subgroup_search (setwise stabilizer of the hint's points) have sound
    trees, and none of the last three changes the chain it ran on."""
    gens, hint = case
    group = PermGroup(gens)
    rebased = group.rebase(hint)
    before = chain_snapshot(group), chain_snapshot(rebased)
    subset = set(hint)
    for source in (group, rebased):
        base = source.base

        def keep(level, img, imgs):
            return (base[level] in subset) == (img in subset)

        stab = subgroup_search(source, lambda p: all(p.images[x] in subset for x in subset),
                               prune=keep)
        for chain in (source, source.rebase(hint[::-1]), source.pointwise_stabilizer(hint), stab):
            assert_chain_is_sound(chain)
    # membership strips through a memo of its own and leaves both chains alone
    closure = brute_closure(gens, gens[0].degree)
    outside = next((Perm(t) for t in permutations(range(gens[0].degree)) if t not in closure), None)
    for source in (group, rebased):
        assert all(g in source for g in gens) and gens[0] * gens[-1] in source
        assert outside is None or outside not in source
    assert (chain_snapshot(group), chain_snapshot(rebased)) == before


def test_schreier_sims_on_a_path_tree_needs_no_recursion():
    # the level-0 tree of a 3,000-cycle is a path of 2,999 links: the coset
    # representatives a run or a membership test keeps are composed along it
    # in a loop, and only the ones it asks for are kept
    cycle = Perm.from_cycles(3000, [range(3000)])
    tracemalloc.start()
    try:
        group = PermGroup([cycle])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order() == 3000
    assert peak <= 2 * 2**20
    # the transposition sends the root 0 to 2999, the far end of the path
    assert cycle * cycle in group
    assert Perm.from_cycles(3000, [(0, 2999)]) not in group


@seed(2017)
@settings(max_examples=120, deadline=None, database=None)
@given(groups_with_hints())
def test_level_generators_generate_the_level_stabilizer(case):
    """Each level's generators generate the subgroup fixing the earlier
    base points, whose order is the product of the tree sizes from that
    level down: rebase's trivial levels and pointwise_stabilizer take a
    level's generators for that subgroup's, and a matching stabilizer adds
    the generators of the levels it keeps to those it searched."""
    gens, hint = case
    n = gens[0].degree
    group = PermGroup(gens)
    # every permutation is an automorphism of K_n: pair the hint's points
    matching = Matching(zip(hint[0::2], hint[1::2]))
    stabs = [matching_stabilizer(complete(n), group, matching)] if matching.edges else []
    for chain in [group, group.rebase(hint), group.pointwise_stabilizer(hint)] + stabs:
        sizes = [len(lvl.tree) for lvl in chain._levels]
        for i, lvl in enumerate(chain._levels):
            assert len(brute_closure(lvl.gens, n)) == math.prod(sizes[i:]), i
    closure = brute_closure(gens, n)
    fixing = [t for t in closure if all(t[x] == x for x in hint)]
    assert group.pointwise_stabilizer(hint).order() == len(fixing)
    keys = matching.edge_keys()
    onto = [t for t in closure if {frozenset((t[a], t[b])) for a, b in matching} == keys]
    for stab in stabs:
        assert stab.order() == len(onto)


@pytest.mark.parametrize("build, order", [
    (lambda: lift_group(k4_cover(3), automorphism_group(complete(4))), 24 * 27),
    (lambda: covering_transformations(k4_cover(3)), 27),
    (lambda: automorphism_group(petersen()), 120),
    (lambda: automorphism_group(hypercube(4)), 384),
], ids=["lift K4 p3", "covering K4 p3", "Petersen", "Q4"])
def test_chain_trees_are_sound_on_graph_groups(build, order):
    group = build()
    assert group.order() == order
    assert_chain_is_sound(group)


@st.composite
def groups_with_subsets(draw):
    """A group and base hint as in groups_with_hints, and a subset of points."""
    gens, hint = draw(groups_with_hints())
    subset = draw(st.sets(st.integers(0, gens[0].degree - 1)))
    return gens, hint, subset


@seed(2017)
@settings(max_examples=120, deadline=None, database=None)
@given(groups_with_subsets())
def test_subgroup_search_chain_properties(case):
    """The chain subgroup_search reads off its search is exact for the
    setwise stabilizer of a subset, pruned by the subset's own test."""
    gens, hint, subset = case
    n = gens[0].degree
    group = PermGroup(gens)
    base = group.base

    def keep(level, img, imgs):
        return (base[level] in subset) == (img in subset)

    def test(p):
        return all(p.images[x] in subset for x in subset)

    stab = subgroup_search(group, test, prune=keep)
    expect = {t for t in brute_closure(gens, n) if all(t[x] in subset for x in subset)}
    old = subgroup_oracle.subgroup_search(group, test, prune=keep)
    assert old.order() == stab.order() and old.basic_orbits() == stab.basic_orbits()
    for images in permutations(range(n)):
        assert (Perm(images) in stab) == (images in expect)
    assert stab.order() == math.prod(len(o) for o in stab.basic_orbits()) == len(expect)
    assert_strong_generating_set(stab)
    rebased = stab.rebase(hint)
    assert rebased.order() == stab.order()
    assert_strong_generating_set(rebased)
    assert_strong_generating_set(rebased.rebase(hint[::-1]))


@seed(2017)
@settings(max_examples=120, deadline=None, database=None)
@given(groups_with_subsets())
def test_subgroup_search_chain_is_its_read_off(case):
    """The chain subgroup_search builds as it goes is the one read off the
    orbits of the elements it found."""
    gens, _, subset = case
    group = PermGroup(gens)
    base = group.base

    def keep(level, img, imgs):
        return (base[level] in subset) == (img in subset)

    stab = subgroup_search(group, lambda p: all(p.images[x] in subset for x in subset), prune=keep)
    assert stab.base == base
    assert_chain_is_read_off(stab)


def test_block_system_type():
    blocks = BlockSystem([[0, 2], [1, 3]])
    assert len(blocks) == 2
    assert BlockSystem(blocks) == blocks  # a block system iterates as its blocks


def _intransitive():
    return PermGroup([Perm.from_cycles(4, [(0, 1)])])


@pytest.mark.parametrize("call, message", [
    (lambda: Perm.identity(2) * Perm.identity(3), "degree mismatch"),
    (lambda: PermGroup([]), "degree required"),
    (lambda: PermGroup([Perm.identity(2), Perm.identity(3)]), "mismatched degrees"),
    (lambda: PermGroup(sym_gens(4)).rebase([4]), "out of range"),
    (lambda: minimal_block(PermGroup(sym_gens(4)), (1, 1)), "bad pair"),
    (lambda: minimal_block(_intransitive(), (0, 1)), "not transitive"),
    (lambda: is_primitive(_intransitive()), "not transitive"),
    (lambda: induced_action(PermGroup(sym_gens(4)), [[0, 1], [1, 0]]), "duplicate cells"),
    (lambda: BlockSystem([[]]), "empty block"),
], ids=["product", "empty-generators", "generator-degrees", "rebase",
        "block-pair", "block-intransitive", "primitive-intransitive", "duplicate-cells",
        "empty-block"])
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()

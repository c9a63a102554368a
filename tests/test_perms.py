"""Permutation engine checked against exhaustive element closure.

Every structural claim (order, membership, stabilizers, induced actions) is
cross-checked on degree <= 8 groups by brute-force expansion of the
generated set, which is feasible up to |S_8| = 40320 elements.
"""

import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permatch import (
    BlockSystem,
    Matching,
    Perm,
    PermGroup,
    complete,
    induced_action,
    is_2transitive,
    is_primitive,
    is_transitive,
    matching_stabilizer,
    minimal_block,
    orbits,
    subgroup_search,
)


def brute_closure(gens):
    """Every element of <gens> as an image tuple, by breadth-first products."""
    n = gens[0].degree
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                u = tuple(g.images[x] for x in t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def random_group(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Perm(images))
    return gens


def sym_gens(n):
    return [Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])]


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
        elements = brute_closure(gens)
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


def test_strong_generators_consistent():
    gens = sym_gens(5)
    group = PermGroup(gens)
    elements = brute_closure(gens)
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
        elements = brute_closure(gens)
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


def test_orbits_partition_domain():
    rng = random.Random(5)
    for _ in range(10):
        degree = rng.randrange(3, 10)
        group = PermGroup(random_group(rng, degree, 1))
        orbits = group.orbits()
        flat = sorted(x for orb in orbits for x in orb)
        assert flat == list(range(degree))
        for orb in orbits:
            assert set(group.orbit(orb[0])) == set(orb)


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
    rng = random.Random(17)
    for _ in range(12):
        degree = rng.randrange(3, 8)
        gens = random_group(rng, degree, 2)
        group = PermGroup(gens)
        if not is_transitive(group):
            continue
        pair = (0, group.orbit(0)[1] if len(group.orbit(0)) > 1 else 0)
        if pair[0] == pair[1]:
            continue
        orbit = {pair}
        frontier = [pair]
        while frontier:
            x, y = frontier.pop()
            for g in gens:
                img = (g.images[x], g.images[y])
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        assert is_2transitive(group) == (len(orbit) == degree * (degree - 1))


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
    closure = brute_closure(gens)
    for images in permutations(range(n)):
        assert (Perm(images) in rebased) == (images in closure)
    assert rebased.strong_generators == group.rebase(hint).strong_generators


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

    stab = subgroup_search(group, lambda p: all(p.images[x] in subset for x in subset),
                           prune=keep)
    expect = {t for t in brute_closure(gens) if all(t[x] in subset for x in subset)}
    for images in permutations(range(n)):
        assert (Perm(images) in stab) == (images in expect)
    assert stab.order() == math.prod(len(o) for o in stab.basic_orbits()) == len(expect)
    assert stab.rebase(hint).order() == stab.order()


def test_block_system_type():
    blocks = BlockSystem([[0, 2], [1, 3]])
    assert len(blocks) == 2
    assert BlockSystem(blocks) == blocks  # a block system iterates as its blocks

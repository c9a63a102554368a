"""Automorphism groups and canonical forms.

The oracle for small graphs is exhaustive: filter all n! vertex
permutations for adjacency preservation and compare orders and membership
in the chain read off the search.  Larger graphs are checked against
closed-form orders under random relabelings and against Schreier-Sims, and
isomorphism answers against networkx.  Canonical forms are checked for
invariance under random relabelings and for separating non-isomorphic
graphs, including two strongly regular graphs that refinement alone cannot
tell apart.  The splitter-queue refinement is checked against the
from-scratch one in refine_oracle.
"""

import inspect
import math
import random
import sys
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permatch import (
    Graph,
    Perm,
    PermGroup,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    canonical_graph6,
    complement,
    complete,
    complete_bipartite,
    composition,
    cycle,
    derived_cover,
    empty_graph,
    graph6_decode,
    hypercube,
    lift_group,
    matching_join,
    odd_graph,
    path_graph,
    petersen,
    spanning_tree,
    standard_assignment,
)
from permatch.autiso import _Partition, _Search, _search_graph
from refine_oracle import is_equitable, refine
from test_perms import assert_strong_generating_set


def random_graph(rng, n, p):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def relabel(g, perm):
    return Graph(g.n, [(perm.apply(u), perm.apply(v)) for u, v in g.edges()])


def random_perm(rng, n):
    imgs = list(range(n))
    rng.shuffle(imgs)
    return Perm(imgs)


def test_aut_order_matches_brute_force():
    cases = [
        complete(5),
        empty_graph(5),
        cycle(7),
        path_graph(6),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        matching_join(complete(3), complete(3), [0, 1, 2]),  # 3-prism
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # disconnected
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
    ]
    rng = random.Random(424242)
    for _ in range(25):
        n = rng.randrange(2, 8)
        cases.append(random_graph(rng, n, rng.choice([0.2, 0.5, 0.8])))
    for g in cases:
        grp = automorphism_group(g)
        for p in grp.generators:
            assert all(g.has_edge(p.apply(u), p.apply(v)) for u, v in g.edges())
        # the chain read off the search, against every permutation
        edges = g.edges()
        count = 0
        for imgs in permutations(range(g.n)):
            is_aut = all(g.has_edge(imgs[u], imgs[v]) for u, v in edges)
            assert (Perm(imgs) in grp) == is_aut, (g, imgs)
            count += is_aut
        assert grp.order() == count


def test_known_aut_orders():
    assert automorphism_group(complete(6)).order() == math.factorial(6)
    assert automorphism_group(cycle(9)).order() == 18
    assert automorphism_group(petersen()).order() == 120
    assert automorphism_group(complete_bipartite(4, 4)).order() == 2 * 24 * 24
    assert automorphism_group(hypercube(4)).order() == 384  # 2^4 * 4!
    assert automorphism_group(composition(cycle(5), 2)).order() == 320


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(5150)
    base = [
        petersen(),
        random_graph(rng, 8, 0.4),
        random_graph(rng, 8, 0.6),
        hypercube(3),
        Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2)]),
    ]
    for g in base:
        ref = canonical_graph6(g)
        for _ in range(12):
            sigma = random_perm(rng, g.n)
            assert canonical_graph6(relabel(g, sigma)) == ref
        # the labeling actually produces the canonical graph6 text
        cf = canonical_form(g)
        relabeled = relabel(g, cf.labeling)
        from permatch import graph6_encode

        assert graph6_encode(relabeled) == cf.graph6


def test_canonical_form_separates_non_isomorphic():
    gs = [
        complete(6),
        cycle(6),
        complete_bipartite(3, 3),
        path_graph(6),
        matching_join(complete(3), complete(3), [0, 1, 2]),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        complement(Graph(6, [(0, 1), (2, 3), (4, 5)])),
    ]
    forms = [canonical_graph6(g) for g in gs]
    assert len(set(forms)) == len(forms)
    assert canonical_graph6(cycle(4)) == canonical_graph6(complete_bipartite(2, 2))


def test_are_isomorphic_witness():
    rng = random.Random(31)
    g = petersen()
    for _ in range(6):
        sigma = random_perm(rng, 10)
        h = relabel(g, sigma)
        w = are_isomorphic(g, h)
        assert w is not None
        assert all(h.has_edge(w.apply(u), w.apply(v)) for u, v in g.edges())
        assert len(g.edges()) == len(h.edges())


def test_are_isomorphic_negative():
    prism = matching_join(complete(3), complete(3), [0, 1, 2])
    assert are_isomorphic(complete_bipartite(3, 3), prism) is None
    assert are_isomorphic(cycle(6), complete_bipartite(3, 3)) is None
    assert are_isomorphic(cycle(5), cycle(6)) is None
    assert are_isomorphic(path_graph(4), cycle(4)) is None


def test_aut_group_acts_on_decoded_graphs():
    # encode/decode does not disturb the automorphism computation
    g = graph6_decode(canonical_graph6(petersen()))
    assert automorphism_group(g).order() == 120


def _closed_form_cases():
    for n in range(1, 26):
        yield "K%d" % n, complete(n), math.factorial(n)
    for n in range(3, 13):
        yield "C%d" % n, cycle(n), 2 * n
    yield "K40", complete(40), math.factorial(40)
    for m in range(1, 8):
        yield "Q%d" % m, hypercube(m), 2 ** m * math.factorial(m)
    for m in range(2, 6):
        yield "O%d" % m, odd_graph(m)[0], math.factorial(2 * m - 1)


@pytest.mark.parametrize("name,g,order", list(_closed_form_cases()),
                         ids=[c[0] for c in _closed_form_cases()])
def test_closed_form_orders_under_relabeling(name, g, order):
    h = relabel(g, random_perm(random.Random(name), g.n))
    grp = automorphism_group(h)
    assert grp.order() == order
    assert len(grp.generators) <= g.n - 1
    assert all(h.is_automorphism(p) for p in grp.generators)


@pytest.mark.parametrize("g", [pytest.param(hypercube(6), id="Q6"),
                               pytest.param(odd_graph(4)[0], id="O4"),
                               pytest.param(complete(12), id="K12")])
def test_read_off_chain_order_matches_schreier_sims(g):
    h = relabel(g, random_perm(random.Random(g.n), g.n))
    grp = automorphism_group(h)
    assert grp.order() == PermGroup(grp.generators, degree=g.n).order()
    assert_strong_generating_set(grp)
    hint = random.Random(g.n).sample(range(g.n), 4)
    rebased = grp.rebase(hint)
    assert rebased.order() == grp.order()
    assert_strong_generating_set(rebased)
    assert_strong_generating_set(rebased.rebase(hint[::-1]))


def shrikhande():
    """Z_4 x Z_4, (a, b) as 4a + b, joined by the steps +-(1, 0), +-(0, 1), +-(1, 1)."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph(16, [(u, v) for u, v in combinations(range(16), 2)
                      if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


def rook_4x4():
    """K_4 x K_4: two cells of a 4 x 4 board are joined when they share a line."""
    return Graph(16, [(u, v) for u, v in combinations(range(16), 2)
                      if u // 4 == v // 4 or u % 4 == v % 4])


def test_strongly_regular_pair_refinement_cannot_split():
    rng = random.Random(16)
    s, r = shrikhande(), rook_4x4()
    for g in (s, r):
        assert sorted(g.degree(v) for v in range(16)) == [6] * 16
    for g, order in ((s, 192), (r, 1152)):
        h = relabel(g, random_perm(rng, 16))
        grp = automorphism_group(h)
        assert grp.order() == order
        assert len(grp.generators) <= 15
    assert are_isomorphic(s, r) is None
    assert canonical_graph6(s) != canonical_graph6(r)
    assert canonical_graph6(relabel(s, random_perm(rng, 16))) == canonical_graph6(s)


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_are_isomorphic_against_networkx():
    rng = random.Random(1212)
    for _ in range(150):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.5, 0.7]))
        kind = rng.randrange(3)
        if kind == 0:  # isomorphic by construction
            h = relabel(g, random_perm(rng, n))
        elif kind == 1:  # same order and size
            pairs = list(combinations(range(n), 2))
            h = Graph(n, rng.sample(pairs, g.num_edges))
        else:  # one edge moved, then relabeled
            edges = g.edges()
            free = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
            if edges and free:
                edges.remove(rng.choice(edges))
                edges.append(rng.choice(free))
            h = relabel(Graph(n, edges), random_perm(rng, n))
        w = are_isomorphic(g, h)
        expected = nx.is_isomorphic(_to_nx(g), _to_nx(h))
        assert (w is not None) == expected
        if w is not None:
            assert g.apply_perm(w) == h


def _cells(part):
    """The cells of a _Partition, in position order."""
    out, c = [], 0
    while c < len(part.perm):
        out.append(part.perm[c:c + part.size[c]])
        c += part.size[c]
    return out


def _cell_set(cells):
    return {frozenset(c) for c in cells}


def test_splitter_refinement_matches_from_scratch_oracle():
    """From the unit partition and after individualizing each vertex of the
    root's first non-singleton cell, the splitter queue reaches the same
    cells as the from-scratch oracle, they are equitable, and undoing the
    trail restores the root."""
    rng = random.Random(1981)
    # a sparse graph whose root refinement splits a waiting cell with its largest
    # part last: that part must join the queue for the result to be equitable
    cases = [Graph(10, [(0, 2), (0, 9), (1, 2), (2, 7), (3, 5), (4, 8), (5, 6), (5, 7), (7, 9)])]
    for _ in range(200):
        n = rng.randrange(1, 13)
        cases.append(random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])))
    for g in cases:
        part = _Partition(g)
        part.refine([0])
        root = _cells(part)
        assert _cell_set(root) == _cell_set(refine(g, [list(range(g.n))]))
        assert is_equitable(g, root)
        target = next((c for c in root if len(c) > 1), None)
        if target is None:
            continue
        mark = len(part.trail)
        for v in sorted(target):
            part.refine([part.individualize(v)])
            cells = _cells(part)
            start = [[v], [x for x in target if x != v]]
            expected = refine(g, [c for c in root if c != target] + start)
            assert _cell_set(cells) == _cell_set(expected), (g, v)
            assert is_equitable(g, cells)
            part.undo(mark)
            assert _cell_set(_cells(part)) == _cell_set(root)


def test_search_depth_is_not_bounded_by_recursion_limit():
    limit = sys.getrecursionlimit()
    _search_graph.cache_clear()
    try:
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        grp = automorphism_group(empty_graph(120))
    finally:
        sys.setrecursionlimit(limit)
    assert grp.order() == math.factorial(120)


def _cycle_and_triangles(k):
    """C_3k on 0..3k-1, then k triangles."""
    n = 3 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(t + a, t + b) for t in range(n, 2 * n, 3) for a, b in ((0, 1), (1, 2), (0, 2))]
    return Graph(2 * n, edges)


@pytest.mark.parametrize("k, order, bound", [(2, 864, 150), (3, 23_328, 2_000)])
def test_off_path_nodes_prune_their_children(monkeypatch, k, order, bound):
    # nodes off the first path reach their second child here, so the leaf
    # count stays small only if they skip children in the orbit of an
    # explored one (without that: 296 and 7,785 leaves)
    leaves = 0
    leaf = _Search._leaf

    def counted(self, lab, prefix):
        nonlocal leaves
        leaves += 1
        return leaf(self, lab, prefix)

    monkeypatch.setattr(_Search, "_leaf", counted)
    _search_graph.cache_clear()
    assert automorphism_group(_cycle_and_triangles(k)).order() == order
    assert leaves <= bound


def _cover(g, p):
    return derived_cover(standard_assignment(g, p, spanning_tree(g)))


def test_aut_group_of_cube_cover_is_the_lifted_group():
    cov = _cover(hypercube(3), 3)  # 1,944 vertices
    grp = automorphism_group(cov.graph)
    lifted = lift_group(cov, automorphism_group(hypercube(3)))
    assert grp.order() == lifted.order() == 11664
    assert len(grp.generators) <= cov.graph.n - 1
    assert all(cov.graph.is_automorphism(a) for a in grp.generators)


def test_canonical_form_of_petersen_cover_invariant_under_relabeling():
    g = _cover(petersen(), 2).graph  # 640 vertices
    h = relabel(g, random_perm(random.Random(640), g.n))
    assert canonical_graph6(h) == canonical_graph6(g)


@st.composite
def graph_pairs(draw):
    """A graph on at most 10 vertices, a relabeling of it, and a second graph
    with as many vertices and edges: the first with one edge moved or not,
    under another relabeling."""
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [e for e in pairs if draw(st.booleans())])
    edges = g.edges()
    free = [e for e in pairs if not g.has_edge(*e)]
    if edges and free and draw(st.booleans()):
        edges.remove(draw(st.sampled_from(edges)))
        edges.append(draw(st.sampled_from(free)))
    sigma = Perm(draw(st.permutations(range(n))))
    tau = Perm(draw(st.permutations(range(n))))
    return g, sigma, Graph(n, edges).apply_perm(tau)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(graph_pairs())
def test_canonical_form_gate(case):
    """canonical_graph6 is invariant under relabeling, and are_isomorphic
    agrees with networkx."""
    g, sigma, other = case
    assert canonical_graph6(g.apply_perm(sigma)) == canonical_graph6(g)
    w = are_isomorphic(g, other)
    assert (w is not None) == nx.is_isomorphic(_to_nx(g), _to_nx(other))
    if w is not None:
        assert g.apply_perm(w) == other

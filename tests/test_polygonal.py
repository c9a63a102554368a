"""Cycle systems, near-polygonal certificates, and quotient graphs."""

import pytest

from permatch import (
    BlockSystem,
    CycleSystem,
    Graph,
    Perm,
    PermGroup,
    are_isomorphic,
    automorphism_group,
    complete,
    complete_bipartite,
    covering_transformations,
    cycle,
    path_graph,
    derived_cover,
    folded_hypercube,
    hypercube,
    matching_join,
    near_polygonal_certificate,
    odd_graph,
    odd_graph_action,
    paley_incidence,
    petersen,
    quotient_by_partition,
    spanning_tree,
    standard_assignment,
    verify_cycle_system,
)
from closure_oracle import brute_closure


def k4_triangles():
    return CycleSystem(3, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def canon_cycle(cyc):
    variants = [cyc, tuple(reversed(cyc))]
    return min(s[r:] + s[:r] for s in variants for r in range(len(s)))


def petersen_pentagons():
    g = petersen()
    seen = set()
    stack = [(a,) for a in range(10)]
    while stack:
        path = stack.pop()
        for nxt in g.neighbors(path[-1]):
            if nxt in path:
                continue
            if len(path) == 4:
                if g.has_edge(nxt, path[0]):
                    seen.add(canon_cycle(path + (nxt,)))
            else:
                stack.append(path + (nxt,))
    return CycleSystem(5, tuple(sorted(seen)))


def petersen_a5():
    """The order-60 subgroup of Aut(Petersen) acting regularly on 2-arcs."""
    og, _ = odd_graph(3)
    iso = are_isomorphic(og, petersen())
    gens = [iso.inverse() * odd_graph_action(3, Perm.from_cycles(5, [c])) * iso
            for c in ((0, 1, 2), (2, 3, 4))]
    return PermGroup(gens, degree=10)


def reference_certificate(g, group):
    """The certificate by brute force over every element of the group.

    With (a, b, c) the least 2-arc and H its pointwise stabilizer, every
    element t sending (a, b) to (b, c) with t^-1 H t == H is a candidate.
    Candidates with one image d of c must trace one cycle system; the answer
    is the valid system of the least such d, or None when none is valid.
    """
    n = g.n
    elements = brute_closure(group.generators, n)
    a, b, c = min((a, b, c) for a in range(n) for b in g.neighbors(a)
                  for c in g.neighbors(b) if c != a)
    h = {t for t in elements if (t[a], t[b], t[c]) == (a, b, c)}
    systems = {}
    for t in elements:
        if (t[a], t[b]) != (b, c):
            continue
        inv = [0] * n
        for x, y in enumerate(t):
            inv[y] = x
        if {tuple(t[u[inv[x]]] for x in range(n)) for u in h} != h:
            continue
        cyc = [a]
        while t[cyc[-1]] != a:
            cyc.append(t[cyc[-1]])
        orbit = {canon_cycle(tuple(s[x] for x in cyc)) for s in elements}
        systems.setdefault(t[c], set()).add(CycleSystem(len(cyc), tuple(sorted(orbit))))
    assert all(len(found) == 1 for found in systems.values())
    valid = [found for _, (found,) in sorted(systems.items())
             if verify_cycle_system(g, found)]
    return valid[0] if valid else None


@pytest.mark.parametrize("g,group", [
    pytest.param(complete(4), None, id="K4"),
    pytest.param(complete(5), None, id="K5"),
    pytest.param(complete(6), None, id="K6"),
    pytest.param(cycle(5), None, id="C5"),
    pytest.param(cycle(6), None, id="C6"),
    pytest.param(cycle(7), None, id="C7"),
    pytest.param(cycle(8), None, id="C8"),
    pytest.param(complete_bipartite(3, 3), None, id="K33"),
    pytest.param(hypercube(3), None, id="Q3"),
    pytest.param(folded_hypercube(5), None, id="FQ5"),
    pytest.param(paley_incidence(7), None, id="PI7"),
    pytest.param(petersen(), None, id="Petersen"),
    pytest.param(petersen(), petersen_a5(), id="Petersen-A5"),
])
def test_certificate_matches_brute_force_reference(g, group):
    expected = reference_certificate(g, group or automorphism_group(g))
    assert near_polygonal_certificate(g, group) == expected


def test_verify_cycle_system():
    g = complete(4)
    assert verify_cycle_system(g, k4_triangles())
    assert not verify_cycle_system(g, CycleSystem(3, k4_triangles().cycles[:3]))

    pent = petersen_pentagons()
    assert len(pent.cycles) == 12
    # every 2-path of the Petersen graph lies in exactly two pentagons
    assert not verify_cycle_system(petersen(), pent)

    with pytest.raises(ValueError):
        verify_cycle_system(g, CycleSystem(3, ((0, 1, 2, 3),)))
    with pytest.raises(ValueError):
        verify_cycle_system(g, CycleSystem(3, ((0, 1, 1),)))
    with pytest.raises(ValueError):
        verify_cycle_system(cycle(4), CycleSystem(3, ((0, 1, 2),)))


def test_certificates_for_complete_graphs():
    for n in (4, 5, 6, 7):
        g = complete(n)
        cert = near_polygonal_certificate(g)
        assert cert is not None
        assert cert.length == 3
        assert len(cert.cycles) == n * (n - 1) * (n - 2) // 6
        assert verify_cycle_system(g, cert)


def test_certificate_for_cube_and_cycles():
    g = hypercube(3)
    cert = near_polygonal_certificate(g)
    assert cert is not None and (cert.length, len(cert.cycles)) == (4, 6)
    assert verify_cycle_system(g, cert)

    cert = near_polygonal_certificate(cycle(6))
    assert cert is not None and (cert.length, len(cert.cycles)) == (6, 1)
    cert = near_polygonal_certificate(cycle(7))
    assert cert is not None and (cert.length, len(cert.cycles)) == (7, 1)


def test_petersen_certificates():
    # under the full automorphism group the fixed-neighbor criterion fails
    assert near_polygonal_certificate(petersen()) is None

    # under an order-60 subgroup acting regularly on 2-arcs, one orbit of
    # six pentagons covers every 2-path exactly once
    sub = petersen_a5()
    assert sub.order() == 60
    cert = near_polygonal_certificate(petersen(), sub)
    assert cert is not None
    assert (cert.length, len(cert.cycles)) == (5, 6)
    assert verify_cycle_system(petersen(), cert)
    pent = set(petersen_pentagons().cycles)
    assert set(cert.cycles) <= pent


def test_certificate_preconditions():
    prism = matching_join(complete(3), complete(3), [0, 1, 2])
    with pytest.raises(ValueError):
        near_polygonal_certificate(prism)  # not 2-arc-transitive
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        near_polygonal_certificate(two)  # disconnected
    with pytest.raises(ValueError):
        near_polygonal_certificate(petersen(), PermGroup([], degree=10))


def test_certificate_verifies_group_once(monkeypatch):
    g = complete(4)
    grp = automorphism_group(g)
    checked = []
    original = Graph.is_automorphism
    monkeypatch.setattr(Graph, "is_automorphism",
                        lambda self, p: checked.append(p) or original(self, p))
    assert near_polygonal_certificate(g, grp) is not None
    assert checked == list(grp.generators) and 1 <= len(checked) <= g.n - 1


def test_quotient_by_fibers_recovers_base():
    g = complete(4)
    cov = derived_cover(standard_assignment(g, 2, spanning_tree(g)))
    res = quotient_by_partition(cov.graph, cov.fiber_partition())
    assert res.regular_cover
    assert are_isomorphic(res.graph, g) is not None
    d = res.to_json_dict()
    assert d["regular_cover"] and len(d["blocks"]) == 4

    # the fibers are exactly the orbits of the covering transformations
    ct = covering_transformations(cov)
    parts = BlockSystem(ct.orbits())
    assert {frozenset(b) for b in parts.blocks} == \
        {frozenset(b) for b in cov.fiber_partition()}
    res2 = quotient_by_partition(cov.graph, parts, ct)
    assert res2.regular_cover and are_isomorphic(res2.graph, g) is not None


def test_quotient_detects_irregular_covers():
    g = complete_bipartite(3, 3)
    res = quotient_by_partition(g, [[0, 1, 2], [3, 4, 5]])
    assert are_isomorphic(res.graph, complete(2)) is not None
    assert not res.regular_cover  # three neighbors in the opposite block

    res = quotient_by_partition(cycle(6), [[0, 3], [1, 4], [2, 5]])
    assert are_isomorphic(res.graph, cycle(3)) is not None
    assert res.regular_cover

    res = quotient_by_partition(complete(4), [[0, 1], [2, 3]])
    assert not res.regular_cover  # edges inside the blocks

    # 0 has no neighbour in {2}, although its block {0, 3} is adjacent to {2}
    res = quotient_by_partition(path_graph(4), [[0, 3], [1], [2]])
    assert are_isomorphic(res.graph, cycle(3)) is not None
    assert not res.regular_cover


def test_quotient_validation():
    with pytest.raises(ValueError):
        quotient_by_partition(cycle(6), [[0, 1], [2, 3]])  # misses vertices
    with pytest.raises(ValueError):
        quotient_by_partition(cycle(6), [[0, 1], [1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        quotient_by_partition(cycle(6), [[0, 1], [2, 3], [4, 5]],
                              automorphism_group(cycle(6)))


def test_orbit_partition_shapes():
    grp = automorphism_group(petersen())
    parts = BlockSystem(grp.orbits())
    assert len(parts.blocks) == 1 and len(parts.blocks[0]) == 10

    trivial = PermGroup([], degree=4)
    parts = BlockSystem(trivial.orbits())
    assert sorted(map(list, parts.blocks)) == [[0], [1], [2], [3]]


def test_certificate_needs_a_2_path():
    with pytest.raises(ValueError, match="no 2-path"):
        near_polygonal_certificate(complete(2))

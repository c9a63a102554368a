"""Catalogs of matching-symmetric graphs and their classification by group.

The catalog lists the known families whose full automorphism group induces
the symmetric group (permutable mode) or a 2-transitive group (two-transitive
mode) on some perfect matching of 2m vertices.  classify_perfect_matchings
finds every such connected graph from lifts of minimal 2-transitive groups
into S_2 wr S_m, for m <= CATALOG_MAX_M (permutable) or m <=
_TWO_TRANSITIVE_MAX_M, the largest degree _MINIMAL_2T lists (two-transitive).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .autiso import canonical_graph6
from .graphs import (
    Graph,
    Matching,
    _bits,
    _is_prime,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    join,
    matching_join,
    paley_incidence,
    paley_incidence_cliques,
    petersen,
)
from .matchings import (
    MODE_PERMUTABLE,
    _on_edge,
    find_matching,
    matching_report,
    normalize_mode,
)
from .perms import Perm, PermGroup, is_2transitive, orbits

CATALOG_MAX_M = 10

# cycles of generators (a_1, a_2), a_1 with the fewest cycles, of each minimal
# 2-transitive group of degree m >= 4: every 2-transitive group contains a
# conjugate of one (Dixon & Mortimer 1996, Permutation Groups, 7.7).  A
# projective line over F_p is F_p and infinity = p.
_MINIMAL_2T = {
    4: [([(0, 1, 2)], [(1, 2, 3)])],  # A_4
    5: [([(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]),  # AGL(1,5): x + 1 and 2x
        ([(0, 1, 2, 3, 4)], [(0, 1, 2)])],  # A_5
    6: [([(0, 1, 2, 3, 4)], [(0, 5), (1, 4)])],  # PSL(2,5): x + 1 and -1/x
    7: [([(0, 1, 2, 3, 4, 5, 6)], [(1, 3, 2, 6, 4, 5)]),  # AGL(1,7): x + 1 and 3x
        # PSL(3,2) on the nonzero x + 1 of F_2^3: Singer cycle, transvection
        ([(0, 1, 3, 2, 5, 6, 4)], [(0, 2), (4, 6)])],
    # AGL(1,8) on F_2[t]/(t^3 + t + 1) as 3-bit ints: tx and x + 1
    8: [([(1, 2, 4, 3, 6, 7, 5)], [(0, 1), (2, 3), (4, 5), (6, 7)]),
        ([(0, 1, 2, 3, 4, 5, 6)], [(0, 7), (1, 6), (2, 3), (4, 5)])],  # PSL(2,7)
}
_TWO_TRANSITIVE_MAX_M = max(_MINIMAL_2T)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    canonical: str
    witness: Matching | None = None


@dataclass(frozen=True)
class Catalog:
    m: int
    mode: str
    entries: tuple[CatalogEntry, ...]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def canonical_forms(self) -> frozenset[str]:
        return frozenset(e.canonical for e in self.entries)

    def complete(self) -> bool:
        return all(e.witness is not None for e in self.entries)


def matching_catalog(m: int, mode: str) -> Catalog:
    """The known families for the given matching size, isomorphs deduplicated
    (first name wins)."""
    mode = normalize_mode(mode)
    if not 2 <= m <= CATALOG_MAX_M:
        raise ValueError("catalog covers 2 <= m <= %d" % CATALOG_MAX_M)
    ident = list(range(m))
    named: list[tuple[str, Graph]] = [
        ("K%d" % (2 * m), complete(2 * m)),
        ("K%dvK%dbar" % (m, m), join(complete(m), empty_graph(m))),
        ("K%d%d" % (m, m), complete_bipartite(m, m)),
        ("prism3" if m == 3 else "K%dmjK%d" % (m, m),
         matching_join(complete(m), complete(m), ident)),
        ("K%dmjK%dbar" % (m, m), matching_join(complete(m), empty_graph(m), ident)),
    ]
    if m == 3:
        named.append(("C6", cycle(6)))
        named.append(("K222", complement(Graph(6, [(0, 1), (2, 3), (4, 5)]))))
    if mode != MODE_PERMUTABLE:
        if m % 4 == 3 and _is_prime(m):
            named.append(("paley%d" % m, paley_incidence(m)))
            named.append(("paley%dcliques" % m, paley_incidence_cliques(m)))
        if m == 5:
            named.append(("petersen", petersen()))
            named.append(("C5vC5", join(cycle(5), cycle(5))))
    entries: dict[str, CatalogEntry] = {}
    for name, g in named:
        canon = canonical_graph6(g)
        entries.setdefault(canon, CatalogEntry(name, g, canon))
    return Catalog(m, mode, tuple(entries.values()))


def _minimal_groups(m: int, mode: str) -> list[tuple[Perm, Perm]]:
    """Generators (a_1, a_2), a_1 with the fewest cycles, of S_m (permutable
    mode) or of each minimal 2-transitive group of degree m."""
    if not 2 <= m <= (CATALOG_MAX_M if mode == MODE_PERMUTABLE else _TWO_TRANSITIVE_MAX_M):
        raise ValueError("classify supports 2 <= m <= %d in permutable mode and "
                         "2 <= m <= %d in two-transitive mode"
                         % (CATALOG_MAX_M, _TWO_TRANSITIVE_MAX_M))
    if mode == MODE_PERMUTABLE or m <= 3:  # S_m
        return [(Perm.from_cycles(m, [tuple(range(m))]), Perm.from_cycles(m, [(0, 1)]))]
    return [(Perm.from_cycles(m, c1), Perm.from_cycles(m, c2)) for c1, c2 in _MINIMAL_2T[m]]


def _lift(a: Perm, v: int) -> Perm:
    """(a, v) in S_2 wr S_m: 2i + b goes to 2a(i) + (b xor bit i of v)."""
    return Perm._raw(tuple(2 * a.images[i] + (b ^ (v >> i & 1))
                           for i in range(a.degree) for b in (0, 1)))


def classify_perfect_matchings(m: int, mode: str) -> Catalog:
    """Every connected graph on 2m vertices with a perfect matching M on
    which the full automorphism group acts as required, one entry per class,
    named after the catalog when it holds the class.

    With M = {2i, 2i+1}, the stabilizer of M lies in S_2 wr S_m and, up to
    relabeling, holds lifts (a_1, v_1), (a_2, v_2) of some _minimal_groups
    pair; so the graph is M plus orbits of H0 = <(a_1, v_1), (a_2, v_2)>, and
    each such union qualifies.  Conjugating by u in F_2^m adds u + a_1(u) to
    v_1, so v_1 runs over coset representatives of those vectors."""
    mode = normalize_mode(mode)
    groups = _minimal_groups(m, mode)
    n = 2 * m
    pairs = list(itertools.combinations(range(n), 2))
    index = {e: k for k, e in enumerate(pairs)}
    matching = Matching((2 * i, 2 * i + 1) for i in range(m))
    others = [e for e in pairs if e not in matching.edges]
    base = sum(1 << index[e] for e in matching)
    seen: set[int] = set()
    classes: dict[str, Graph] = {}
    for a1, a2 in groups:
        if not is_2transitive(PermGroup([a1, a2])):
            raise AssertionError("a listed group is not 2-transitive")
        # v_1 modulo the vectors u + a_1(u) is its parity on each cycle of a_1
        roots = [next(iter(tree)) for tree in orbits([a1], range(m))]
        for s, v2 in itertools.product(range(1 << len(roots)), range(1 << m)):
            h1 = _lift(a1, sum(1 << r for k, r in enumerate(roots) if s >> k & 1))
            unions = [base]
            for tree in orbits([h1, _lift(a2, v2)], others, _on_edge):
                orbit = sum(1 << index[e] for e in tree)
                unions += [u | orbit for u in unions]
            # A is primitive on M, so a union is connected unless it is M alone
            for mask in unions[1:]:
                if mask not in seen:
                    seen.add(mask)
                    g = Graph(n, [pairs[k] for k in _bits(mask)])
                    classes.setdefault(canonical_graph6(g), g)
    known = {e.canonical: e.name for e in matching_catalog(m, mode).entries}
    entries = []
    for canon, g in sorted(classes.items()):
        if not matching_report(g, matching).passes(mode):
            raise AssertionError("class %s fails its own matching" % canon)
        entries.append(CatalogEntry(known.get(canon, canon), g, canon, matching))
    return Catalog(m, mode, tuple(entries))


def verify_catalog_membership(m: int, mode: str) -> Catalog:
    """Search a qualifying matching in every catalog graph under its full
    automorphism group; the witness field of each entry records the find."""
    cat = matching_catalog(m, mode)
    entries = []
    for e in cat.entries:
        witness = find_matching(e.graph, None, m, mode)
        entries.append(replace(e, witness=witness))
    return Catalog(cat.m, cat.mode, tuple(entries))


def classification_report(m: int, mode: str) -> dict:
    """Observed-versus-expected comparison, JSON-friendly.

    observed/expected list canonical graph6 forms; witnesses map each
    observed class (catalog name when known, canonical form otherwise)
    to its qualifying matching.
    """
    mode = normalize_mode(mode)
    observed = classify_perfect_matchings(m, mode)
    expected = matching_catalog(m, mode)
    match = observed.canonical_forms() == expected.canonical_forms()
    return {
        "m": m,
        "mode": mode,
        "observed": sorted(e.canonical for e in observed.entries),
        "expected": sorted(e.canonical for e in expected.entries),
        "match": match,
        "witnesses": {e.name: str(e.witness) for e in observed.entries},
    }

"""Catalogs of matching-symmetric graphs and exhaustive small-order checks.

The catalog lists the known families whose full automorphism group induces
the symmetric group (permutable mode) or a 2-transitive group (two-transitive
mode) on some perfect matching of 2m vertices.  For m <= 3 the catalog can be
checked against an exhaustive sweep of all connected graphs on 2m vertices.
"""

from __future__ import annotations

import functools
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
    is_connected,
    join,
    matching_join,
    paley_incidence,
    paley_incidence_cliques,
    petersen,
)
from .matchings import (
    MODE_PERMUTABLE,
    _group_or_aut,
    _passes,
    find_matching,
    matching_report,
    normalize_mode,
)

MAX_ENUMERATION_VERTICES = 6
CATALOG_MAX_M = 7


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

    def entry(self, name: str) -> CatalogEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

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
    entries = []
    seen = set()
    for name, g in named:
        canon = canonical_graph6(g)
        if canon in seen:
            continue
        seen.add(canon)
        entries.append(CatalogEntry(name, g, canon))
    return Catalog(m, mode, tuple(entries))


@functools.lru_cache(maxsize=None)
def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices up to isomorphism, one canonical
    representative per class, by sweeping every labeled graph."""
    if not 1 <= n <= MAX_ENUMERATION_VERTICES:
        raise ValueError("enumeration supports 1 <= n <= %d" % MAX_ENUMERATION_VERTICES)
    pairs = list(itertools.combinations(range(n), 2))
    seen: set[str] = set()
    reps: list[Graph] = []
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for i in _bits(mask):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        g = Graph._raw(n, tuple(rows))
        if not is_connected(g):
            continue
        canon = canonical_graph6(g)
        if canon not in seen:
            seen.add(canon)
            reps.append(g)
    return tuple(reps)


def perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings, built by always pairing the smallest unmatched
    vertex."""
    if g.n % 2:
        return []
    out: list[Matching] = []

    def rec(unmatched: frozenset[int], acc: list[tuple[int, int]]) -> None:
        if not unmatched:
            out.append(Matching(acc))
            return
        v = min(unmatched)
        rest = unmatched - {v}
        for u in g.neighbors(v):
            if u in rest:
                rec(rest - {u}, acc + [(v, u)])

    rec(frozenset(range(g.n)), [])
    return out


def classify_perfect_matchings(m: int, mode: str) -> Catalog:
    """Sweep all connected graphs on 2m vertices and keep those with a
    perfect matching on which the full automorphism group acts as required.

    Observed classes are named after the catalog when they match a known
    family, otherwise by their canonical form.
    """
    mode = normalize_mode(mode)
    if not 1 <= m * 2 <= MAX_ENUMERATION_VERTICES:
        raise ValueError("exhaustive classification supports m <= %d"
                         % (MAX_ENUMERATION_VERTICES // 2))
    known = {e.canonical: e.name for e in matching_catalog(m, mode).entries} \
        if m >= 2 else {}
    entries = []
    for g in enumerate_connected(2 * m):
        pms = perfect_matchings(g)
        if not pms:
            continue
        group = _group_or_aut(g, None)  # the automorphism group, known to act on g
        for pm in pms:
            report = matching_report(g, pm, group)
            if _passes(report, mode):
                canon = canonical_graph6(g)
                entries.append(CatalogEntry(known.get(canon, canon), g, canon, pm))
                break
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

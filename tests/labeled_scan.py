"""The labeled scan: the reference classification for 2m <= 6 vertices.

It sweeps every labeled graph on n vertices, keeps one representative of
each connected class by canonical form, and tests every perfect matching of
each representative under its full automorphism group.  It uses no group
route, so the tests compare permatch.classify_perfect_matchings against it.
"""

import functools
import itertools

from permatch import (
    Catalog,
    CatalogEntry,
    Graph,
    MODE_PERMUTABLE,
    Matching,
    automorphism_group,
    canonical_graph6,
    is_connected,
    matching_catalog,
    matching_report,
    normalize_mode,
)

MAX_ENUMERATION_VERTICES = 6


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
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
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


def classify_by_scan(m: int, mode: str) -> Catalog:
    """Sweep all connected graphs on 2m vertices and keep those with a
    perfect matching on which the full automorphism group acts as required,
    named after the catalog when they match a known family."""
    mode = normalize_mode(mode)
    known = {e.canonical: e.name for e in matching_catalog(m, mode).entries}
    entries = []
    for g in enumerate_connected(2 * m):
        pms = perfect_matchings(g)
        if not pms:
            continue
        group = automorphism_group(g)
        for pm in pms:
            report = matching_report(g, pm, group)
            if report.permutable if mode == MODE_PERMUTABLE else report.two_transitive:
                canon = canonical_graph6(g)
                entries.append(CatalogEntry(known.get(canon, canon), g, canon, pm))
                break
    return Catalog(m, mode, tuple(entries))

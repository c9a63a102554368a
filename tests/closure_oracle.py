"""Every element of a permutation group, listed by closing its generators
under products: the reference for group orders, membership and stabilizers.

It is slow (it lists the whole group) and shares no code with perms, so the
tests compare the two on small groups.
"""


def brute_closure(gens, n):
    """Every element of <gens> on n points as an image tuple, by
    breadth-first products."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        frontier = [u for u in {tuple(g.images[x] for x in t) for t in frontier for g in gens}
                    if u not in seen]
        seen.update(frontier)
    return seen

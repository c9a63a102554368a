"""From-scratch equitable refinement: the reference for autiso's splitter queue.

Every round recomputes each vertex's neighbour count into every cell and
splits each cell by those signatures, until a round splits nothing.  The
result is the coarsest equitable partition finer than the input.  It is
slow (each round costs n times the number of cells) and shares no code with
autiso._Partition, so the tests compare the two on small graphs.
"""


def refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by (neighbor count into each cell) until equitable."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells: list[list[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in c:
                rv = rows[v]
                sig = tuple((rv & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        if not changed:
            return new_cells
        cells = new_cells


def is_equitable(rows: tuple[int, ...], cells: list[list[int]]) -> bool:
    """All vertices of a cell have equal neighbour counts into every cell."""
    masks = [sum(1 << v for v in c) for c in cells]
    return all(len({tuple((rows[v] & m).bit_count() for m in masks) for v in c}) == 1
               for c in cells)

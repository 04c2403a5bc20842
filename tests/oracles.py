"""Brute-force oracles that the fast routines of ``dispersim`` are tested
against, and the enumeration of every small polyomino that the tests
run them and the paper's claims on. They trade speed for obviousness and
are never used by the package itself.
"""

from collections import deque

from dispersim.grid import RING, Cell, Region, adjacent, bfs_distances_cells


def recorded(trace) -> tuple[list[int], list]:
    """A recorded trace's robots as two lists, their spawn steps and
    their action logs, in id order."""
    return [rb.spawned for rb in trace.robots], [rb.log for rb in trace.robots]


def articulation_points(r: Region, among=None) -> set[Cell]:
    """Cells whose removal disconnects the region, of all its cells or
    only of those ``among``: one BFS per cell."""
    out = set()
    if len(r.cells) <= 1:
        return out
    for v in r.cells if among is None else among:
        rest = set(r.cells)
        rest.remove(v)
        seed = next(iter(rest))
        if len(bfs_distances_cells(rest, seed)) != len(rest):
            out.add(v)
    return out


def vertex_class(cells, v: Cell) -> tuple[str, Cell | None]:
    """``(kind, diagonal)`` of ``v`` in ``cells``, spelled out from the
    definitions: with at most one neighbor ``v`` is a corner; with three
    or more, interior; with two, the cells other than ``v`` next to both
    are its diagonal, none for opposite neighbors (interior), and the
    one of a right angle makes ``v`` a corner when it is in ``cells``
    and a hall when it is not."""
    nbrs = [u for u in adjacent(v) if u in cells]
    if len(nbrs) <= 1:
        return "corner", None
    if len(nbrs) >= 3:
        return "interior", None
    u, w = nbrs
    common = (set(adjacent(u)) & set(adjacent(w))) - {v}
    if not common:
        return "interior", None
    (diagonal,) = common
    return ("corner" if diagonal in cells else "hall"), diagonal


def has_hole(r: Region) -> bool:
    """True when a wall inside the bounding box is cut off from the
    outside: one 8-connected flood fill of the complement, from a ring of
    walls padded around the box (4-connected cells pair with an
    8-connected complement)."""
    x0, x1 = r.min_x - 1, r.max_x + 1
    y0, y1 = r.min_y - 1, r.max_y + 1
    seen = {(x0, y0)}
    todo = deque(seen)
    while todo:
        x, y = todo.popleft()
        for dx, dy in RING:
            nb = (x + dx, y + dy)
            if x0 <= nb[0] <= x1 and y0 <= nb[1] <= y1 and nb not in r.cells and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return (x1 - x0 + 1) * (y1 - y0 + 1) != len(seen) + len(r.cells)


def fixed_polyominoes(n):
    """Yield the cell set of every fixed polyomino of at most n cells
    once (Redelmeier, "Counting polyominoes: yet another attack",
    Discrete Math. 36, 1981): grow from (0, 0) over the cells above row 0
    and right of it on row 0, and never try a cell twice on one branch."""
    poly = []
    seen = {(0, 0)}

    def grow(untried):
        while untried:
            cell = untried.pop()
            poly.append(cell)
            yield frozenset(poly)
            if len(poly) < n:
                new = [
                    nb for nb in adjacent(cell)
                    if (nb[1] > 0 or nb[1] == 0 and nb[0] > 0) and nb not in seen
                ]
                seen.update(new)
                yield from grow(untried + new)
                seen.difference_update(new)
            poly.pop()

    yield from grow([(0, 0)])

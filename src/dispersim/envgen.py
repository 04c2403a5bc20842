"""Environment generators: rectangles, seeded random simply connected
regions, and the comb-with-a-loop family G(k) used for deadlock tests."""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .errors import BadParameters, DoorOutOfBounds
from .grid import RING, RING_GAPS, Cell, Region, adjacent


def rect(w: int, h: int, door: Cell) -> Region:
    if w < 1 or h < 1:
        raise BadParameters(f"rectangle sides must be >= 1, got {w}x{h}")
    dx, dy = door
    if not (0 <= dx < w and 0 <= dy < h):
        raise DoorOutOfBounds(f"door {door} outside {w}x{h} rectangle")
    cells = frozenset((x, y) for x in range(w) for y in range(h))
    return Region(cells, door)


def _attachable(cells: set, c: Cell) -> bool:
    """True when adding c, a 4-neighbor of the simply connected region
    ``cells``, keeps the region simply connected: c is a simple point
    exactly when its 4-neighbors in the region form one group around its
    8-ring, so that it has fewer than two gaps
    (:data:`~dispersim.grid.RING_GAPS`; Rosenfeld, JACM 1970; Kong &
    Rosenfeld, 1989). Its ring is never all region: c would be a hole."""
    x, y = c
    empty = 0
    for i, (ox, oy) in enumerate(RING):
        if (x + ox, y + oy) not in cells:
            empty |= 1 << i
    return not RING_GAPS[empty]


def random_simply_connected(V: int, seed: int) -> Region:
    """Grow a region cell by cell from the origin, attaching a uniformly
    chosen boundary cell each round and rejecting attachments that would
    pinch off or enclose part of the complement. Door is the first cell."""
    if V < 1:
        raise BadParameters(f"V must be >= 1, got {V}")
    rng = random.Random(seed)
    door = (0, 0)
    cells = {door}
    boundary = set(adjacent(door))
    pool = sorted(boundary)  # the boundary, kept sorted for the draws
    while len(cells) < V:
        cand = rng.choice(pool)
        boundary.discard(cand)
        del pool[bisect_left(pool, cand)]
        if not _attachable(cells, cand):
            continue
        cells.add(cand)
        cx, cy = cand
        # Every empty ring cell next to the region is a candidate, also
        # one rejected before the region grew around it.
        for ox, oy in RING:
            nb = (cx + ox, cy + oy)
            if nb not in cells and nb not in boundary and any(
                c in cells for c in adjacent(nb)
            ):
                boundary.add(nb)
                insort(pool, nb)
    return Region(frozenset(cells), door)


def g_k(r: int, k: int) -> Region:
    """Comb of 10r unit-width columns on a bottom row, all of height
    30r^2 except columns 1 and k, which rise one cell higher and are
    joined by a top row, closing a loop. Columns sit at x = j*(2r+1)
    (a 2r-cell gap between columns); door at the bottom-left corner."""
    if r < 1:
        raise BadParameters(f"r must be >= 1, got {r}")
    ncols = 10 * r
    if not (2 <= k <= ncols):
        raise BadParameters(f"k must be in [2, {ncols}], got {k}")
    pitch = 2 * r + 1
    height = 30 * r * r
    cells = set()
    last_x = (ncols - 1) * pitch
    for x in range(last_x + 1):
        cells.add((x, 0))
    for j in range(ncols):
        x = j * pitch
        top = height + 1 if j in (0, k - 1) else height
        for y in range(1, top + 1):
            cells.add((x, y))
    # The joining row sits one cell above the raised columns so the
    # plain columns it passes over stay dead ends.
    for x in range((k - 1) * pitch + 1):
        cells.add((x, height + 2))
    return Region(frozenset(cells), (0, 0))

"""Grid environments: cells, directions, the 4-neighbor order and BFS,
the 8-ring and its gaps, regions, their int layout and ASCII maps.

Coordinate frame: x grows to the right, y grows upward. Row 0 of an ASCII
map is the topmost line, so it holds the cells with the highest y.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import (
    DisconnectedRegion,
    MalformedMap,
    MultipleDoors,
    NoDoor,
)

Cell = tuple[int, int]

# Direction codes in clockwise scan order starting from "up".
UP, RIGHT, DOWN, LEFT = range(4)
DIR_VECTORS: tuple[Cell, ...] = ((0, 1), (1, 0), (0, -1), (-1, 0))
DIR_NAMES = "URDL"

# The 8 cells around a cell, clockwise from "up". Bit i of a ring mask
# stands for RING[i]: axis direction d is bit 2d, and bit 2d+1 lies
# between directions d and d+1.
RING: tuple[Cell, ...] = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))
DIR_BITS = (1, 4, 16, 64)  # the ring-mask bit of each axis direction
# FREE_DIRS[mask]: the directions whose axis bit is clear, in U, R, D, L order.
FREE_DIRS: tuple[tuple[int, ...], ...] = tuple(
    tuple(d for d in range(4) if not mask & DIR_BITS[d]) for mask in range(256)
)


def _ring_gaps(outside: int) -> tuple[int, ...]:
    """One ring position per gap of a ring mask (bit i set: the cell
    ``RING[i]`` away is outside a cell set S), () when the 4-neighbors
    in S form fewer than two groups. Two consecutive 4-neighbors in S
    are one group when the diagonal between them is in S; a gap is the
    arc between two groups, and the position given is its first outside
    cell."""
    axes = [p for p in (0, 2, 4, 6) if not outside >> p & 1]
    gaps = []
    for a, b in zip(axes, axes[1:] + axes[:1]):
        arc = [p % 8 for p in range(a + 1, b if b > a else b + 8) if outside >> p % 8 & 1]
        if arc:
            gaps.append(arc[0])
    return tuple(gaps) if len(gaps) > 1 else ()


# RING_GAPS[mask]: the gaps of each ring mask. By the 4/8 duality of
# digital topology (Kong & Rosenfeld, 1989), a cell of S is a cut cell
# of S when two of its gaps lie in one 8-component outside S, and a
# 4-neighbor of a simply connected S joins it keeping it simply
# connected exactly when it has fewer than two gaps.
RING_GAPS: tuple[tuple[int, ...], ...] = tuple(_ring_gaps(m) for m in range(256))

WALL_CHAR = "#"
FLOOR_CHAR = "."
DOOR_CHAR = "S"


def rotate_cw(d: int) -> int:
    return (d + 1) % 4


def rotate_ccw(d: int) -> int:
    return (d - 1) % 4


def opposite(d: int) -> int:
    return (d + 2) % 4


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class Region:
    """A finite 4-connected set of lattice cells with a designated door.

    Immutable after construction; safe to share between threads.

    ``door_distances`` is the read-only map from every cell to its
    4-neighbor distance from the door: the BFS that checks connectivity
    here, kept. A run's optimum (:func:`~dispersim.metrics.run_metrics`),
    the FCDFS checker's door-distance schedule and
    :func:`~dispersim.topology.geometric_median` read it, so none of
    them runs a BFS of its own.

    ``layout`` is the region's :class:`Layout`, built once here and
    shared by every run on the region: the engine's and the planners'
    int cell numbering.
    """

    __slots__ = ("cells", "door", "door_distances", "layout", "min_x", "max_x", "min_y", "max_y")

    def __init__(self, cells, door: Cell):
        cells = frozenset(tuple(c) for c in cells)
        if not cells:
            raise DisconnectedRegion("region has no cells")
        door = tuple(door)
        if door not in cells:
            raise NoDoor(f"door {door} is not a cell of the region")
        self.cells = cells
        self.door = door
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        self.min_x, self.max_x = min(xs), max(xs)
        self.min_y, self.max_y = min(ys), max(ys)
        reached = bfs_distances_cells(cells, door)
        if len(reached) != len(cells):
            raise DisconnectedRegion(
                f"{len(cells) - len(reached)} cells unreachable from the door"
            )
        self.door_distances = MappingProxyType(reached)
        self.layout = Layout(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Region)
            and self.cells == other.cells
            and self.door == other.door
        )

    def __hash__(self) -> int:
        return hash((self.cells, self.door))

    def __repr__(self) -> str:
        return f"Region({len(self.cells)} cells, door={self.door})"

    def to_ascii(self, marks: dict[Cell, str] | None = None) -> str:
        """Render the bounding box as an ASCII map, padding with '#'.

        ``marks`` maps region cells to the characters drawn on them in
        place of '.' or 'S'. Without marks this is the inverse of
        :func:`from_ascii` given the bounding box's minimum corner
        ``(min_x, min_y)`` as its origin.
        """
        marks = marks or {}
        cells = self.cells
        rows = []
        for y in range(self.max_y, self.min_y - 1, -1):
            row = []
            for x in range(self.min_x, self.max_x + 1):
                cell = (x, y)
                if cell not in cells:
                    row.append(WALL_CHAR)
                elif cell in marks:
                    row.append(marks[cell])
                elif cell == self.door:
                    row.append(DOOR_CHAR)
                else:
                    row.append(FLOOR_CHAR)
            rows.append("".join(row))
        return "\n".join(rows)


class Layout:
    """A region's cells numbered as ints: its bounding box laid out
    row-major with one padding cell on each side, so every region cell's
    ring and move targets are in range.

    ``index(pos)`` numbers a cell of the box or its padding, and
    ``cell_at[i]`` is the region cell numbered i, None on padding and
    walls; ``door`` is the door's number. ``ring`` and ``dirs`` are the
    offsets of the cells :data:`RING` and :data:`DIR_VECTORS` away, in
    their order, so a move in direction d is ``+ dirs[d]`` and the
    direction of a step ``s`` is ``dirs.index(s)``. Every field is
    read-only, since one layout, ``Region.layout``, serves every run on
    its region.
    """

    __slots__ = ("cell_at", "door", "ring", "dirs", "_width", "_base")

    def __init__(self, region: Region):
        self._width = width = region.max_x - region.min_x + 3
        self._base = (region.min_y - 1) * width + region.min_x - 1
        cell_at: list[Cell | None] = [None] * (width * (region.max_y - region.min_y + 3))
        for cell in region.cells:
            cell_at[self.index(cell)] = cell
        self.cell_at = tuple(cell_at)
        self.door = self.index(region.door)
        self.ring = tuple(dx + dy * width for dx, dy in RING)
        self.dirs = tuple(dx + dy * width for dx, dy in DIR_VECTORS)

    def index(self, pos: Cell) -> int:
        return pos[1] * self._width + pos[0] - self._base


def adjacent(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    """The four 4-neighbors of ``cell`` in :data:`DIR_VECTORS` order:
    up, right, down, left. Strategy determinism depends on this order."""
    x, y = cell
    return ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y))


def bfs_distances_cells(cells, src: Cell) -> dict[Cell, int]:
    """4-neighbor shortest-path distances from ``src`` within ``cells``;
    the keys are exactly the cells reachable from ``src``. This is the
    tuple BFS of ``Region``, ``topology`` and the test oracles; the
    planners search their :class:`Layout` instead."""
    dist = {src: 0}
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        reached = []
        for x, y in frontier:
            # adjacent(), inline: every Region build runs this BFS, which
            # checks connectivity and is kept as the door distances.
            for nb in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if nb in cells and nb not in dist:
                    dist[nb] = d
                    reached.append(nb)
        frontier = reached
    return dist


def from_ascii(text: str, origin: Cell = (0, 0)) -> Region:
    """Parse an ASCII map into a Region.

    The map must be a rectangular block of '#', '.' and 'S' characters
    with exactly one 'S'; row 0 is the top. A trailing newline is
    allowed. The bottom-left character of the map is the cell ``origin``.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise MalformedMap("empty map")
    width = len(lines[0])
    if width == 0:
        raise MalformedMap("empty first line")
    cells = set()
    door = None
    height = len(lines)
    x0, y0 = origin
    for row, line in enumerate(lines):
        if len(line) != width:
            raise MalformedMap(f"line {row} has length {len(line)}, expected {width}")
        y = y0 + height - 1 - row
        for x, ch in enumerate(line, x0):
            if ch == WALL_CHAR:
                continue
            if ch == DOOR_CHAR:
                if door is not None:
                    raise MultipleDoors(f"second door at {(x, y)}")
                door = (x, y)
                cells.add((x, y))
            elif ch == FLOOR_CHAR:
                cells.add((x, y))
            else:
                raise MalformedMap(f"bad character {ch!r} at row {row}, col {x - x0}")
    if door is None:
        raise NoDoor("map has no 'S' cell")
    return Region(cells, door)

"""Brute-force oracles that the fast routines of ``dispersim`` are tested
against, and the enumeration of every small polyomino that the tests
run them and the paper's claims on. They trade speed for obviousness and
are never used by the package itself.
"""

from collections import deque

from dispersim.engine import A_SETTLE, A_STAY
from dispersim.grid import DIR_NAMES, DIR_VECTORS, RING, Cell, Region, adjacent, bfs_distances_cells


def recorded(trace) -> tuple[list[int], list]:
    """A recorded trace's robots as two lists, their spawn steps and
    their action logs, in id order."""
    return [rb.spawned for rb in trace.robots], [rb.log for rb in trace.robots]


def tuple_space_mask(sim, cell) -> int:
    """The ring mask of ``cell`` by its definition over cells: bit i is
    set when ``cell + RING[i]`` is not a region cell or holds a robot,
    active or settled. The one view the engine's ring read is checked
    against."""
    occupied = {rb.pos for rb in sim.robots}
    mask = 0
    for i, (dx, dy) in enumerate(RING):
        nb = (cell[0] + dx, cell[1] + dy)
        if nb not in sim.region.cells or nb in occupied:
            mask |= 1 << i
    return mask


def ascii_map(r: Region, marks: dict) -> str:
    """``Region.to_ascii(marks)`` written one cell at a time: '#' off the
    region, else the cell's mark, else 'S' on the door and '.'."""
    rows = []
    for y in range(r.max_y, r.min_y - 1, -1):
        row = ""
        for x in range(r.min_x, r.max_x + 1):
            if (x, y) not in r.cells:
                row += "#"
            elif (x, y) in marks:
                row += marks[(x, y)]
            else:
                row += "S" if (x, y) == r.door else "."
        rows.append(row)
    return "\n".join(rows)


def articulation_points(cells, among=None) -> set[Cell]:
    """Cells whose removal disconnects the connected set ``cells``, of all
    of them or only of those ``among``: one BFS per cell."""
    out = set()
    if len(cells) <= 1:
        return out
    for v in cells if among is None else among:
        rest = set(cells)
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


class RefRobot:
    """One robot of a :class:`ReferenceRun`."""

    def __init__(self, rid: int, pos: Cell, spawned: int):
        self.id = rid
        self.pos = pos
        self.spawned = spawned
        self.settled = None
        self.moves = 0
        self.log = bytearray()
        self.mem = 0


class ReferenceRun:
    """The engine's rules for one step, spelled out on ``(x, y)`` tuples
    with a snapshot of the occupied cells: the naive stepper that
    :class:`dispersim.engine.Simulation` is tested against.

    ``step(choices)`` takes one ``(action, memory)`` pair per active
    robot, in id order. Every memory is written first. A move must stay
    in the region, enter a cell free in the snapshot and be the only
    move into it; the first move that is not ends the run in a
    ``("collision", t, message)`` at the last step done, and changes
    nothing else. Otherwise all moves, settles and log entries apply,
    and a robot spawns at the door, with memory 0, when no robot held the
    door in the snapshot and no move entered it. The run ends
    ``("covered", t, "")`` when it holds a robot per cell, and
    ``("deadlock", t, message)`` when the active robots' cells and
    memories repeat with no spawn or settle in between, the message
    naming the step they were first seen and the period.
    """

    def __init__(self, region: Region):
        self.region = region
        self.robots: list[RefRobot] = []
        self.t = 0
        self.outcome = None
        self.seen: list = []

    @property
    def active(self) -> list[RefRobot]:
        return [rb for rb in self.robots if rb.settled is None]

    def step(self, choices) -> None:
        t = self.t + 1
        cells, door = self.region.cells, self.region.door
        active = self.active
        assert len(choices) == len(active)
        occupied = {rb.pos for rb in self.robots}
        for robot, (_, mem) in zip(active, choices):
            robot.mem = mem
        targets: dict[Cell, RefRobot] = {}
        for robot, (act, _) in zip(active, choices):
            if act in (A_STAY, A_SETTLE):
                continue
            dx, dy = DIR_VECTORS[act]
            cell = (robot.pos[0] + dx, robot.pos[1] + dy)
            if cell not in cells:
                why = f"robot {robot.id} at {robot.pos} moved {DIR_NAMES[act]} off the region"
            elif cell in occupied:
                why = f"robot {robot.id} at {robot.pos} moved {DIR_NAMES[act]} into occupied cell {cell}"
            elif cell in targets:
                why = f"robots {targets[cell].id} and {robot.id} both target {cell}"
            else:
                targets[cell] = robot
                continue
            self.outcome = ("collision", self.t, f"t={t}: {why}")
            return
        changed = False
        for robot, (act, _) in zip(active, choices):
            robot.log.append(act)
            if act == A_SETTLE:
                robot.settled = t
                changed = True
            elif act != A_STAY:
                dx, dy = DIR_VECTORS[act]
                robot.pos = (robot.pos[0] + dx, robot.pos[1] + dy)
                robot.moves += 1
        if door not in occupied and door not in targets:
            self.robots.append(RefRobot(len(self.robots) + 1, door, t))
            changed = True
        self.t = t
        if len(self.robots) == len(cells):
            self.outcome = ("covered", t, "")
            return
        if changed:
            self.seen = []
        config = [(rb.pos, rb.mem) for rb in self.active]
        for first, seen in self.seen:
            if seen == config:
                why = f"t={t}: the configuration of step {first} repeats (period {t - first})"
                self.outcome = ("deadlock", t, why)
                return
        self.seen.append((t, config))

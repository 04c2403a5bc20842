"""Find-Corner Depth-First Search, full-memory form.

A robot keeps a primary direction (secondary is always its 90-degree
clockwise rotation) and its two previous positions as relative offsets.
It walks primary/secondary only; when both are blocked it is at a corner
or a hall of the residual region. The diagonal cell sits at 135 degrees
counter-clockwise from the primary direction; if it is unoccupied, or if
the robot itself stood there two steps ago (a trailing robot is on it
now: a fake hall), the position is a corner and the robot settles.
Otherwise it is a hall and the robot redirects its primary to the
neighbor it has not come from.

A robot's first primary is its first free direction clockwise from the
strategy's ``rotation``: 0 (Up) for ``fcdfs``; ``rand-corner`` draws it
once per run.

``RunChecker`` asserts the paper's runtime lemmas about this rule at
every step; ``fcdfs`` and its variants declare it as their invariants.
"""

from __future__ import annotations

from .. import topology
from ..errors import InvariantViolation
from ..grid import DIR_BITS, DIR_VECTORS, FREE_DIRS, manhattan, rotate_cw
from .base import A_SETTLE, A_STAY, Strategy


def diag_offset(primary: int) -> tuple[int, int]:
    """Offset of diag(v) when primary and secondary are blocked: the
    common neighbor of the two remaining directions, at 135 degrees
    counter-clockwise from primary."""
    px, py = DIR_VECTORS[primary]
    sx, sy = DIR_VECTORS[rotate_cw(primary)]
    return (-px - sx, -py - sy)


# DIAG_BITS[p]: the ring-mask bit of the cell at diag_offset(p).
DIAG_BITS = tuple(1 << (2 * p + 5) % 8 for p in range(4))


class FcdfsMemory:
    __slots__ = ("primary", "prev", "prev2")

    def __init__(self):
        self.primary: int | None = None
        self.prev: tuple[int, int] | None = None  # offset of pos one step ago
        self.prev2: tuple[int, int] | None = None  # offset two steps ago

    def record_move(self, d: int) -> None:
        dx, dy = DIR_VECTORS[d]
        self.prev2 = (
            (self.prev[0] - dx, self.prev[1] - dy) if self.prev is not None else None
        )
        self.prev = (-dx, -dy)

    def key(self):
        return (self.primary, self.prev, self.prev2)


class RunChecker:
    """Per-step assertions of the runtime invariants:

    - active robots A_i, A_j (i < j) are at graph distance >= 2(j - i);
    - next(A_{i+1}) = prev(A_i) (follow the leader);
    - robots settle only at corners of the residual region;
    - primary-direction changes happen only at halls of the residual
      region (skipping the initial choice);
    - no Stay actions.

    These hold for the FCDFS family on simply connected regions.

    The spacing lemma is certified by the door-distance schedule. Robot
    i emerges at step 2i-1 and moves along a shortest path, so at the
    start of step t it is at door distance t - 2i. When every active
    robot is on that schedule, the triangle inequality
    |d(door, a) - d(door, b)| <= d(a, b) gives every pair i < j a
    distance of at least 2(j - i): the check passes exactly, in
    O(active) work. Only when some robot is off the schedule (on a
    region with a hole, or for a strategy outside the family) are the
    pairs compared one by one, with a BFS distance as the last resort.

    Settled robots never move or change memory again, so every check
    walks only the robots active at the start of the step plus the one
    spawned during it, and each hook walks them once. ``before_step``
    keeps the step's robots with their primary directions, as (robot,
    primary) pairs, and their cells by id; the cells by id of the
    previous step are kept too. ``after_step`` checks the redirects and
    follow-the-leader in one pass over those pairs, and still raises
    every redirect violation before any follow-the-leader one.
    ``residual`` (the region minus settled cells) is kept incrementally:
    a cell leaves it when its robot settles. The door distances are the
    region's own (``region.door_distances``), so building a checker
    runs no BFS.
    """

    def __init__(self, region):
        self.region = region
        self.dist: dict = {}  # cell -> its BFS distances, for off-schedule pairs
        self.residual = set(region.cells)
        self._at_start: dict[int, tuple[int, int]] = {}  # active at the start of the step
        self._at_prev: dict[int, tuple[int, int]] = {}  # active at the start of the last one
        self._primaries: list = []  # (robot, primary at the start of the step), then the spawned robot
        self._n_robots = 0  # robots spawned before the step

    def before_step(self, sim) -> None:
        t = sim.t + 1
        door_dist = self.region.door_distances
        at_start = {}
        primaries = []
        on_schedule = True
        for a in sim.active:
            pos = a.pos
            at_start[a.id] = pos
            # A memory without a primary direction (a baseline's, or a
            # hand-fed run's None) has none to watch.
            primaries.append((a, getattr(a.mem, "primary", None)))
            if on_schedule and door_dist[pos] != t - 2 * a.id:
                on_schedule = False
        if not on_schedule:
            self._check_spacing(t, [a for a, _ in primaries])
        self._at_prev = self._at_start
        self._at_start = at_start
        self._primaries = primaries
        self._n_robots = len(sim.robots)

    def _check_spacing(self, t, active) -> None:
        door_dist = self.region.door_distances
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                bound = 2 * (b.id - a.id)
                if manhattan(a.pos, b.pos) >= bound:
                    continue
                if abs(door_dist[a.pos] - door_dist[b.pos]) >= bound:
                    continue
                if a.pos not in self.dist:
                    self.dist[a.pos] = topology.bfs_distances(self.region, a.pos)
                if self.dist[a.pos][b.pos] < bound:
                    raise InvariantViolation(
                        f"t={t}: robots {a.id} at {a.pos} and {b.id} at "
                        f"{b.pos} are closer than {bound}"
                    )

    def after_step(self, sim, actions, settled_now) -> None:
        t = sim.t
        residual = self.residual
        primaries = self._primaries
        if A_STAY in actions:
            rid = primaries[actions.index(A_STAY)][0].id
            raise InvariantViolation(f"t={t}: robot {rid} issued Stay")
        for robot in settled_now:
            cls = topology.classify_cells(residual, robot.pos)
            if cls.kind != topology.CORNER:
                raise InvariantViolation(
                    f"t={t}: robot {robot.id} settled at {robot.pos}, a "
                    f"{cls.kind} of the residual region"
                )
        # Follow the leader: position of A_{i+1} at the end of this step
        # must equal A_i's position at the start of the previous step, as
        # long as A_i was active at the start of both steps. The robot
        # spawned this step follows too, and has no primary to watch. The
        # first robot that strays is raised only once no redirect is wrong.
        for robot in sim.robots[self._n_robots :]:
            primaries.append((robot, None))
        at_start = self._at_start
        at_prev = self._at_prev
        stray = None
        for robot, before in primaries:
            if before is not None:
                after = robot.mem.primary
                if after != before and after is not None:
                    # Position at the start of the step, where the redirect happened.
                    at = at_start[robot.id]
                    cls = topology.classify_cells(residual, at)
                    if cls.kind != topology.HALL:
                        raise InvariantViolation(
                            f"t={t}: robot {robot.id} changed primary at {at}, a "
                            f"{cls.kind} of the residual region"
                        )
            if stray is None:
                pred = robot.id - 1
                if pred in at_prev and robot.pos != at_prev[pred] and pred in at_start:
                    stray = robot
        if stray is not None:
            pred = stray.id - 1
            raise InvariantViolation(
                f"t={t}: robot {stray.id} at {stray.pos} does not "
                f"follow robot {pred} (expected {at_prev[pred]})"
            )
        if settled_now:
            residual.difference_update(robot.pos for robot in settled_now)


class Fcdfs(Strategy):
    name = "fcdfs"
    invariants = RunChecker
    rotation = 0  # the initial scan starts this many quarter turns clockwise of Up

    def table_key(self) -> tuple:
        return (type(self), self.rotation)

    def fresh_memory(self) -> FcdfsMemory:
        return FcdfsMemory()

    def decide(self, view: int, m: FcdfsMemory) -> int:
        free = FREE_DIRS[view]
        if not free:
            return A_SETTLE
        if m.prev is None:
            m.primary = min(free, key=lambda d: (d - self.rotation) % 4)
        p = m.primary
        for d in (p, rotate_cw(p)):
            if not view & DIR_BITS[d]:
                m.record_move(d)
                return d
        # Primary and secondary blocked: corner or hall.
        if len(free) == 1 and DIR_VECTORS[free[0]] == m.prev:
            return A_SETTLE  # dead end
        if m.prev2 == diag_offset(p) or not view & DIAG_BITS[p]:
            return A_SETTLE
        # Hall: point primary at the neighbor we did not come from.
        d = free[0] if DIR_VECTORS[free[0]] != m.prev else free[1]
        m.primary = d
        m.record_move(d)
        return d

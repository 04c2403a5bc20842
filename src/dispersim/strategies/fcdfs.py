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

``RunChecker`` asserts the paper's runtime lemmas about this rule at
every step; ``fcdfs`` and its variants declare it as their invariants.
"""

from __future__ import annotations

from .. import topology
from ..errors import InvariantViolation, NoLegalAction
from ..grid import DIR_VECTORS, manhattan, rotate_cw
from .base import A_SETTLE, A_STAY, Strategy


def diag_offset(primary: int) -> tuple[int, int]:
    """Offset of diag(v) when primary and secondary are blocked: the
    common neighbor of the two remaining directions, at 135 degrees
    counter-clockwise from primary."""
    px, py = DIR_VECTORS[primary]
    sx, sy = DIR_VECTORS[rotate_cw(primary)]
    return (-px - sx, -py - sy)


class FcdfsMemory:
    __slots__ = ("primary", "prev", "prev2", "has_moved")

    def __init__(self):
        self.primary: int | None = None
        self.prev: tuple[int, int] | None = None  # offset of pos one step ago
        self.prev2: tuple[int, int] | None = None  # offset two steps ago
        self.has_moved = False

    def record_move(self, d: int) -> None:
        dx, dy = DIR_VECTORS[d]
        self.prev2 = (
            (self.prev[0] - dx, self.prev[1] - dy) if self.prev is not None else None
        )
        self.prev = (-dx, -dy)
        self.has_moved = True

    def key(self):
        return (self.primary, self.prev, self.prev2, self.has_moved)


class RunChecker:
    """Per-step assertions of the runtime invariants:

    - active robots A_i, A_j (i < j) are at graph distance >= 2(j - i);
    - next(A_{i+1}) = prev(A_i) (follow the leader);
    - robots settle only at corners of the residual region;
    - primary-direction changes happen only at halls of the residual
      region (skipping the initial choice);
    - no Stay actions.

    These hold for the FCDFS family on simply connected regions.

    Settled robots never move or change memory again, so every check
    walks only the robots active at the start of the step plus the one
    spawned during it. ``residual`` (the region minus settled cells) is
    kept incrementally: a cell leaves it when its robot settles.
    """

    def __init__(self, region):
        self.dist = topology.DistanceCache(region)
        self.residual = set(region.cells)
        self._positions: dict[int, list] = {}  # id -> [pos at t-1, pos at t]
        self._primaries: dict[int, object] = {}
        self._stepping: list = []  # robots active at the start of the step
        self._n_robots = 0  # robots spawned before the step

    def before_step(self, sim) -> None:
        t = sim.t + 1
        # A copy: the engine appends the robot spawned this step to sim.active.
        active = list(sim.active)
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                bound = 2 * (b.id - a.id)
                if manhattan(a.pos, b.pos) >= bound:
                    continue
                if self.dist.distance(a.pos, b.pos) < bound:
                    raise InvariantViolation(
                        f"t={t}: robots {a.id} at {a.pos} and {b.id} at "
                        f"{b.pos} are closer than {bound}"
                    )
        self._stepping = active
        self._n_robots = len(sim.robots)
        # Robots without memory (a baseline's, or a hand-fed run's) have
        # no primary direction to watch.
        self._primaries = {r.id: r.mem.primary for r in active if r.mem is not None}

    def after_step(self, sim, actions, settled_now) -> None:
        t = sim.t
        residual = self.residual
        for rid, act in actions.items():
            if act == A_STAY:
                raise InvariantViolation(f"t={t}: robot {rid} issued Stay")
        for robot in settled_now:
            cls = topology.classify_cells(residual, robot.pos)
            if cls.kind != topology.CORNER:
                raise InvariantViolation(
                    f"t={t}: robot {robot.id} settled at {robot.pos}, a "
                    f"{cls.kind} of the residual region"
                )
        for robot in self._stepping:
            before = self._primaries.get(robot.id)
            if before is None:
                continue
            after = robot.mem.primary
            if after is None or before == after:
                continue
            # Position at the start of the step, where the redirect happened.
            hist = self._positions.get(robot.id)
            at = hist[-1] if hist else robot.pos
            cls = topology.classify_cells(residual, at)
            if cls.kind != topology.HALL:
                raise InvariantViolation(
                    f"t={t}: robot {robot.id} changed primary at {at}, a "
                    f"{cls.kind} of the residual region"
                )
        # Follow the leader: position of A_{i+1} at the end of this step
        # must equal A_i's position two step-boundaries earlier, as long
        # as A_i was active at the start of the step.
        robots = self._stepping + sim.robots[self._n_robots :]
        for robot in robots:
            pred_hist = self._positions.get(robot.id - 1)
            if not pred_hist or len(pred_hist) < 2:
                continue
            pred_was_active = pred_hist[-1] is not None
            own_hist = self._positions.get(robot.id)
            was_active_at_start = not own_hist or own_hist[-1] is not None
            if pred_was_active and was_active_at_start and robot.pos != pred_hist[0]:
                raise InvariantViolation(
                    f"t={t}: robot {robot.id} at {robot.pos} does not "
                    f"follow robot {robot.id - 1} (expected {pred_hist[0]})"
                )
        for robot in robots:
            hist = self._positions.setdefault(robot.id, [])
            hist.append(robot.pos if robot.active else None)
            if len(hist) > 2:
                del hist[0]
        residual.difference_update(robot.pos for robot in settled_now)


class Fcdfs(Strategy):
    name = "fcdfs"
    invariants = RunChecker

    def fresh_memory(self) -> FcdfsMemory:
        return FcdfsMemory()

    def initial_primary(self, free: list[int]) -> int:
        """Clockwise scan from Up for the first unoccupied neighbor."""
        return free[0]

    def decide(self, view, m: FcdfsMemory):
        free = view.free_dirs()
        if not free:
            return A_SETTLE, m
        if not m.has_moved:
            m.primary = self.initial_primary(free)
        p = m.primary
        s = rotate_cw(p)
        for d in (p, s):
            if not view.occupied_dir(d):
                m.record_move(d)
                return d, m
        # Primary and secondary blocked: corner or hall.
        if len(free) == 1 and DIR_VECTORS[free[0]] == m.prev:
            return A_SETTLE, m  # dead end
        diag = diag_offset(p)
        if m.prev2 == diag or not view.occupied_offset(*diag):
            return A_SETTLE, m
        # Hall: point primary at the neighbor we did not come from.
        cands = [d for d in free if DIR_VECTORS[d] != m.prev]
        if len(cands) != 1:
            raise NoLegalAction(
                f"hall redirect found {len(cands)} candidates (free={free})"
            )
        m.primary = cands[0]
        m.record_move(cands[0])
        return cands[0], m

"""Adapted leader-follower baselines.

These model the classic dispersal algorithms whose original setting
grants robots communication (Hsiang et al., WAFR 2002). They are
run-level controllers: they override ``decide_all`` and ``on_spawn`` and
plan from the whole simulation. The comparison with FCDFS targets
metrics, not model parity; they declare no runtime invariants. Both
plan on the region's :class:`~dispersim.grid.Layout`, the engine's own
cell numbering, so a cell is an int, a move's action is
``layout.dirs.index(step)``, and the engine's ``sim.blocked`` reads
directly. Both read the residual region, the engine's ``sim.residual``,
and never write it: the engine removes a settling robot's cell after
every robot of the step has decided, so a planner sees only the settles
of earlier steps.

DFLF: a depth-first walk of the region is fixed up front (seeded-random
tie-breaks). Robots follow it downward only: a cell's non-final walk
visits are each followed by a child cell, so a robot either steps
into the next child, skips a finished subtree by jumping its walk index
forward to the cell's next visit, or settles when it stands at the
final visit of its cell. Deepest cells settle first. Two robots never
pick one target in a step, so DFLF keeps no claims: every move enters a
child of the mover's cell, each cell has one parent, and two robots
never share a cell.

DFLF never stays, so for DFLF the residual's timing cannot change a
run: seeing a settle of the same step could only turn a Stay behind the
settling robot into a skip. Suppose robot R at cell c stays at step t
because its next walk cell, a child ch of c, holds an active robot Q. Q
entered ch from c at some step s. R could not enter c at step s, by a
move or, at the door, by a spawn, since Q held c in that step's
snapshot, so t >= s + 2. Robots only move down the tree, so Q held ch
and was active from step s to step t: at step s + 1 it stayed. Every
Stay follows an earlier one, so there is no first.

BFLF: each spawned robot is assigned the nearest unclaimed cell whose
claim keeps the unclaimed remainder connected to the door, kept in its
``robot.mem`` until it settles there, and walks a shortest path through
the residual region toward it, pausing (Stay) whenever blocked by an
active robot or by a cell another robot enters this step. A spawn
pending at a free door claims the door first, so no robot steps into
it that step. Pauses count as travel but not as moves. The door stays
unclaimed until it is the last cell and every claim keeps the
unclaimed cells connected, so a claim is safe exactly when the cell is
not an articulation point of the unclaimed cells: one Hopcroft-Tarjan
pass from the door per spawn, ``topology.cut_cells``, finds them all. One breadth-first search from the door through the
residual region then stops at the first level that holds a safe cell:
that level's safe cells, in ``(x, y)`` order, are the pool the target
is drawn from, and the search tree gives the robot's path to it.
"""

from __future__ import annotations

import random

from ..grid import Layout, Region
from ..topology import cut_cells
from .base import A_SETTLE, A_STAY, Strategy


def _dfs_walk(region: Region, layout: Layout, rng: random.Random) -> list[int]:
    """Full DFS traversal from the door, recording every visit including
    backtrack passes, with seeded-random tie-breaks. It ends back at the
    door, so every cell's last visit marks the completion of its
    subtree."""
    cell_at, dirs = layout.cell_at, layout.dirs
    door = layout.index(region.door)
    walk = [door]
    visited = {door}
    trail = [door]
    while trail:
        head = trail[-1]
        fresh = [nb for nb in (head + d for d in dirs) if cell_at[nb] is not None and nb not in visited]
        if fresh:
            nxt = rng.choice(fresh)
            visited.add(nxt)
            trail.append(nxt)
            walk.append(nxt)
        else:
            trail.pop()
            if trail:
                walk.append(trail[-1])
    return walk


class Dflf(Strategy):
    name = "dflf"

    def __init__(self, region: Region, seed: int = 0):
        super().__init__(region, seed)
        self.layout = layout = Layout(region)
        self.walk = walk = _dfs_walk(region, layout, random.Random(seed))
        # skip[i]: the walk index of the next visit to walk[i], None at
        # its last visit.
        self.skip: list[int | None] = [None] * len(walk)
        later: dict[int, int] = {}
        for i in range(len(walk) - 1, -1, -1):
            self.skip[i] = later.get(walk[i])
            later[walk[i]] = i

    def on_spawn(self, sim, robot) -> None:
        robot.mem = 0  # its position on the walk

    def decide_all(self, sim) -> list[int]:
        actions: list[int] = []
        blocked, residual, dirs = sim.blocked, sim.residual, self.layout.dirs
        walk, skip = self.walk, self.skip
        for robot in sim.active:
            i = robot.mem
            # Finished branch: skip to this cell's next visit.
            while skip[i] is not None and walk[i + 1] not in residual:
                i = skip[i]
            if skip[i] is None:
                actions.append(A_SETTLE)  # last visit: the subtree below is done
                continue
            target = walk[i + 1]
            if blocked[target]:
                robot.mem = i
                actions.append(A_STAY)
            else:
                robot.mem = i + 1
                actions.append(dirs.index(target - robot.idx))
        return actions


class Bflf(Strategy):
    name = "bflf"

    def __init__(self, region: Region, seed: int = 0):
        super().__init__(region, seed)
        self.layout = layout = Layout(region)
        self.door = layout.index(region.door)
        self.rng = random.Random(seed)
        self.unclaimed: set[int] = {layout.index(c) for c in region.cells}
        self.paths: dict[int, list[int]] = {}  # remaining cells to target

    def _search(self, src: int, goal, residual: set[int], blocked=None) -> list[int]:
        """Breadth-first search from ``src`` through the ``residual`` cells
        not set in ``blocked``, one level at a time. It stops at the first
        level for which ``goal(level)`` names a cell and returns the
        search tree's path to that cell, ``src`` excluded; [] when no
        level does."""
        dirs = self.layout.dirs
        prev = {src: src}
        level = [src]
        while level:
            cell = goal(level)
            if cell is not None:
                path = []
                while cell != src:
                    path.append(cell)
                    cell = prev[cell]
                path.reverse()
                return path
            reached = []
            for v in level:
                for d in dirs:
                    nb = v + d
                    if nb in residual and nb not in prev and (blocked is None or not blocked[nb]):
                        prev[nb] = v
                        reached.append(nb)
            level = reached
        return []

    def _route(self, src: int, dst: int, residual: set[int], blocked=None) -> list[int]:
        """A shortest path src -> dst: the search with the goal ``dst``."""
        return self._search(src, lambda level: dst if dst in level else None, residual, blocked)

    def on_spawn(self, sim, robot) -> None:
        """Claim a nearest safe unclaimed cell for the new robot, drawn in
        ``(x, y)`` order, as its ``mem``, and route it there."""
        unclaimed, door, cell_at = self.unclaimed, self.door, self.layout.cell_at
        cut = cut_cells(unclaimed, door, self.layout.dirs)

        def nearest(level):
            pool = [c for c in level if c in unclaimed and c not in cut and (c != door or len(unclaimed) == 1)]
            return self.rng.choice(sorted(pool, key=cell_at.__getitem__)) if pool else None

        path = self._search(door, nearest, sim.residual)
        # An empty path from the door ends at the door.
        robot.mem = target = path[-1] if path else door
        unclaimed.discard(target)
        self.paths[robot.id] = path

    def decide_all(self, sim) -> list[int]:
        actions: list[int] = []
        blocked, residual, dirs = sim.blocked, sim.residual, self.layout.dirs
        # The cells this step's moves enter; a spawn pending at a free
        # door claims it first.
        claimed_now: set[int] = set() if blocked[self.door] else {self.door}
        for robot in sim.active:
            target = robot.mem
            if robot.idx == target:
                del self.paths[robot.id]
                actions.append(A_SETTLE)
                continue
            path = self.paths[robot.id]
            if not path or not residual.issuperset(path):
                path = self._route(robot.idx, target, residual)
                self.paths[robot.id] = path
            if not path:
                actions.append(A_STAY)
                continue
            nxt = path[0]
            if blocked[nxt] or nxt in claimed_now:
                # Try flowing around the robots in the way.
                detour = self._route(robot.idx, target, residual, blocked)
                # The detour never enters an occupied cell.
                if detour and detour[0] not in claimed_now:
                    path = detour
                    nxt = detour[0]
                else:
                    actions.append(A_STAY)
                    continue
            claimed_now.add(nxt)
            self.paths[robot.id] = path[1:]
            actions.append(dirs.index(nxt - robot.idx))
        return actions

"""Adapted leader-follower baselines.

These model the classic dispersal algorithms whose original setting
grants robots communication (Hsiang et al., WAFR 2002). They are
run-level controllers: they override ``decide_all`` and ``on_spawn`` and
plan from the whole simulation. The comparison with FCDFS targets
metrics, not model parity; they declare no runtime invariants.

DFLF: a depth-first walk of the region is fixed up front (seeded-random
tie-breaks). Robots follow it downward only: a cell's non-final walk
visits are each followed by a child cell, so a robot either steps
into the next child, skips a finished subtree by jumping its walk index
forward to the cell's next visit, or settles when it stands at the
final visit of its cell. Deepest cells settle first. Two robots never
pick one target in a step, so DFLF keeps no claims: every move enters a
child of the mover's cell, each cell has one parent, and two robots
never share a cell.

BFLF: each spawned robot is assigned the nearest unclaimed cell whose
claim keeps the unclaimed remainder connected to the door, and walks a
shortest path through the unsettled cells toward it, pausing (Stay)
whenever blocked by an active robot or by a cell another robot enters
this step. A spawn pending at a free door claims the door first, so no
robot steps into it that step. Pauses count as travel but not as
moves. The door stays unclaimed until it is the last cell and every
claim keeps the unclaimed cells connected, so a claim is safe exactly
when the cell is not an articulation point of the unclaimed cells: one
Hopcroft-Tarjan pass from the door per spawn, ``topology.cut_cells``,
finds them all.
"""

from __future__ import annotations

import random
from collections import deque

from ..grid import DIR_VECTORS, Cell, Region, adjacent, bfs_distances_cells
from ..topology import cut_cells
from .base import A_SETTLE, A_STAY, Strategy

_DIR_OF = {v: d for d, v in enumerate(DIR_VECTORS)}


def _move_action(src: Cell, dst: Cell) -> int:
    return _DIR_OF[(dst[0] - src[0], dst[1] - src[1])]


def _dfs_walk(region: Region, rng: random.Random) -> list[Cell]:
    """Full DFS traversal from the door, recording every visit including
    backtrack passes, with seeded-random tie-breaks. It ends back at the
    door, so every cell's last visit marks the completion of its
    subtree."""
    door = region.door
    cells = region.cells
    walk = [door]
    visited = {door}
    trail = [door]
    while trail:
        head = trail[-1]
        fresh = [nb for nb in adjacent(head) if nb in cells and nb not in visited]
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
        self.walk = walk = _dfs_walk(region, random.Random(seed))
        # skip[i]: the walk index of the next visit to walk[i], None at
        # its last visit.
        self.skip: list[int | None] = [None] * len(walk)
        later: dict[Cell, int] = {}
        for i in range(len(walk) - 1, -1, -1):
            self.skip[i] = later.get(walk[i])
            later[walk[i]] = i
        self.settled: set[Cell] = set()  # cells of the settles issued so far

    def on_spawn(self, sim, robot) -> None:
        robot.mem = 0  # its position on the walk

    def decide_all(self, sim) -> list[int]:
        actions: list[int] = []
        settling: list[Cell] = []
        blocked, index = sim.blocked, sim.index
        walk, skip, settled = self.walk, self.skip, self.settled
        for robot in sim.active:
            i = robot.mem
            # Finished branch: skip to this cell's next visit.
            while skip[i] is not None and walk[i + 1] in settled:
                i = skip[i]
            if skip[i] is None:
                settling.append(robot.pos)  # last visit: the subtree below is done
                actions.append(A_SETTLE)
                continue
            target = walk[i + 1]
            if blocked[index(target)]:
                robot.mem = i
                actions.append(A_STAY)
            else:
                robot.mem = i + 1
                actions.append(_move_action(robot.pos, target))
        # Settles take effect at the end of the step.
        settled.update(settling)
        return actions


class Bflf(Strategy):
    name = "bflf"

    def __init__(self, region: Region, seed: int = 0):
        super().__init__(region, seed)
        self.region = region
        self.rng = random.Random(seed)
        self.unclaimed: set[Cell] = set(region.cells)
        # Cells without a settled robot. decide_all removes the cells it
        # settles after deciding every robot, so the set stays the
        # settles of earlier steps while it decides.
        self.unsettled: set[Cell] = set(region.cells)
        self.targets: dict[int, Cell] = {}  # active robot id -> target
        self.paths: dict[int, list[Cell]] = {}  # remaining cells to target

    def _route(self, src: Cell, dst: Cell, avoid=()) -> list[Cell]:
        """Shortest path src -> dst through unsettled cells not in
        ``avoid`` (excluding src); empty when none exists."""
        unsettled = self.unsettled
        prev: dict[Cell, Cell] = {src: src}
        todo = deque([src])
        while todo:
            v = todo.popleft()
            if v == dst:
                path = [v]
                while prev[v] != v:
                    v = prev[v]
                    path.append(v)
                path.reverse()
                return path[1:]
            for nb in adjacent(v):
                if nb in unsettled and nb not in prev and nb not in avoid:
                    prev[nb] = v
                    todo.append(nb)
        return []

    def on_spawn(self, sim, robot) -> None:
        """Claim the nearest safe unclaimed cell for the new robot and
        route it there."""
        unclaimed = self.unclaimed
        door = self.region.door
        dist = bfs_distances_cells(self.unsettled, door)
        cut = cut_cells(unclaimed, door)
        safe = [c for c in unclaimed if c not in cut and (c != door or len(unclaimed) == 1)]
        nearest = min(dist[c] for c in safe)
        pool = sorted(c for c in safe if dist[c] == nearest)
        target = self.rng.choice(pool)
        self.targets[robot.id] = target
        unclaimed.discard(target)
        self.paths[robot.id] = self._route(robot.pos, target)

    def decide_all(self, sim) -> list[int]:
        actions: list[int] = []
        settling: list[Cell] = []
        blocked, index = sim.blocked, sim.index
        unsettled = self.unsettled
        # The cells this step's moves enter; a spawn pending at a free
        # door claims it first.
        door = self.region.door
        claimed_now: set[Cell] = set() if blocked[index(door)] else {door}
        for robot in sim.active:
            target = self.targets[robot.id]
            if robot.pos == target:
                del self.targets[robot.id]
                del self.paths[robot.id]
                settling.append(target)
                actions.append(A_SETTLE)
                continue
            path = self.paths[robot.id]
            if not path or not unsettled.issuperset(path):
                path = self._route(robot.pos, target)
                self.paths[robot.id] = path
            if not path:
                actions.append(A_STAY)
                continue
            nxt = path[0]
            if blocked[index(nxt)] or nxt in claimed_now:
                # Try flowing around the robots in the way.
                detour = self._route(robot.pos, target, {r.pos for r in sim.active})
                # The detour never enters an occupied cell.
                if detour and detour[0] not in claimed_now:
                    path = detour
                    nxt = detour[0]
                else:
                    actions.append(A_STAY)
                    continue
            claimed_now.add(nxt)
            self.paths[robot.id] = path[1:]
            actions.append(_move_action(robot.pos, nxt))
        # Settles take effect at the end of the step.
        unsettled.difference_update(settling)
        return actions

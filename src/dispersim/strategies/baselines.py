"""Adapted leader-follower baselines.

These model the classic dispersal algorithms whose original setting
grants robots communication (Hsiang et al., WAFR 2002). They are
run-level controllers: they override ``decide_all`` and ``on_spawn`` and
plan from the whole simulation. The comparison with FCDFS targets
metrics, not model parity; they declare no runtime invariants. Both
plan on the region's :class:`~dispersim.grid.Layout`,
``region.layout``, the engine's own cell numbering, so a cell is an int
and a move's action is ``layout.dirs.index(step)``; BFLF reads the
engine's ``sim.blocked`` directly. Both read the residual region, the engine's ``sim.residual``,
a ``bytearray`` that is 1 at each region cell without a settled robot,
and never write it: the engine clears a settling robot's cell after
every robot of the step has decided, so a planner sees only the settles
of earlier steps. Outside BFLF's searches, and its path test on the
step after a settle, a step costs O(1) per robot.

DFLF: a depth-first walk of the region is fixed up front (seeded-random
tie-breaks). Robots follow it downward only: a cell's non-final walk
visits are each followed by a child cell, so a robot either steps
into the next child, skips a finished subtree by jumping its walk index
forward to the cell's next visit, or settles when it stands at the
final visit of its cell. Each walk step's action is computed once,
up front. Deepest cells settle first. Two robots never
pick one target in a step, so DFLF keeps no claims: every move enters a
child of the mover's cell, each cell has one parent, and two robots
never share a cell.

A DFLF robot's ``mem`` is its walk index, which grows on every step
the robot stays active, skips included. So no configuration with an
active robot repeats, and ``Dflf`` declares
``never_repeats_while_active``: the engine takes no deadlock key then.

DFLF never stays, so its ``decide_all`` reads no ``sim.blocked``: a
settled robot's cell is skipped, and no active robot holds the next
walk cell (below), so no DFLF move collides. Nor can the residual's
timing change a DFLF run: seeing a settle of the same step could only
turn a Stay behind the settling robot into a skip. Suppose robot R at
cell c stays at step t because its next walk cell, a child ch of c,
holds an active robot Q. Q entered ch from c at some step s. R could
not enter c at step s, by a move or, at the door, by a spawn, since Q
held c in that step's snapshot, so t >= s + 2. Robots only move down
the tree, so Q held ch and was active from step s to step t: at step
s + 1 it stayed. Every Stay follows an earlier one, so there is no
first.

BFLF: each spawned robot is assigned the nearest unclaimed cell whose
claim keeps the unclaimed remainder connected to the door, kept in its
``robot.mem`` until it settles there, and walks a shortest path through
the residual region toward it, pausing (Stay) whenever blocked by an
active robot or by a cell another robot enters this step. A spawn
pending at a free door claims the door first, so no robot steps into
it that step. Pauses count as travel but not as moves. The door stays
unclaimed until it is the last cell and every claim keeps the
unclaimed cells U connected, so a claim is safe exactly when the cell
is not a cut cell of U.

A path is a stack, the target first and the next cell last, so a move
pops it. It is re-routed when it is empty or meets a cell settled in
the last step, ``stale``. No other settled cell can be on it: every
active robot is decided every step, so a path kept from an earlier
step was tested then, and a route or a spawn's path reads the
residual region of its own step.

A spawn tests only the cells it looks at, each with one ring read and
at most four union-find lookups, by the 4/8 duality of digital
topology (Kong & Rosenfeld, "Digital topology: introduction and
survey", 1989): a closed 8-path of cells outside U separates U's
4-connected cells. The cells outside U, walls,
layout padding and claimed cells, only grow, so a union-find keeps
their 8-connected components (``taken``, ``parent``).

- **Ring and gaps.** Group the 4-neighbors in U of a cell c of U around
  c's 8-ring, two consecutive ones joined when the diagonal between
  them is in U. The ring cells between two groups, a gap, hold at least
  one cell outside U, and those are 8-connected. With at most one group
  c is not a cut cell. Otherwise it is one exactly when two of its gaps
  lie in one component outside U: that component and c close a curve
  between two groups. If every gap lies in its own component, taking c
  out merges k components into one and raises U's Euler number
  (components minus holes) by k - 1, so U keeps its component count.
  ``grid.RING_GAPS`` gives one ring position per gap for each mask.
- **The cache.** A claim outside c's ring leaves c's gaps as they are
  and can only merge components. So a cut cell stays cut until a claim
  enters its ring, and ``cut``, the cells found cut, cleared around each
  claim, holds only cut cells.

The pool is the safe cells of the first level of a breadth-first search
from the door through the residual region that holds one, in ``(x, y)``
order; the search tree gives the robot's path. The tree depends on the
residual region alone, which changes only when a robot settles, and
BFLF decides every settle. It grows a level at a time only as far as a
spawn asks.

- **A settle keeps the tree down to its level.** A settle on a tree
  cell c at level d takes c out of its level and, when c has a child,
  drops the levels below d; an empty tail level goes. What is kept is
  the fresh search's: c takes part only in discovering level d + 1, so
  the levels 0..d of a search without c, their order and predecessors
  included, are those with c, and a leaf c discovered nothing, so
  every level stays. Its children could only be its 4-neighbors, so
  ``_settle`` reads their four predecessors and keeps no child count.
  A settle on a cell the tree has not reached changes none, and the
  door's own settle, as the last cell, drops the tree. Dropped levels
  grow again, through the new residual region, only as far as a spawn
  asks.
- **The first level to scan.** ``low`` is the first level that can
  still hold a safe cell. Below it every unclaimed cell but the door is
  in ``cut`` (the door is level 0 and is safe only as the last
  unclaimed cell, which the pool answers first), and such a cell
  becomes safe again only when a claim clears it from ``cut``, which
  lowers ``low`` to its depth. A rebuild starts at level 1.
"""

from __future__ import annotations

import random

from ..grid import RING_GAPS, Layout, Region
from .base import A_SETTLE, A_STAY, Strategy


def _dfs_walk(layout: Layout, rng: random.Random) -> list[int]:
    """Full DFS traversal from the door, recording every visit including
    backtrack passes, with seeded-random tie-breaks. It ends back at the
    door, so every cell's last visit marks the completion of its
    subtree."""
    cell_at, dirs, door = layout.cell_at, layout.dirs, layout.door
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
    never_repeats_while_active = True

    def __init__(self, region: Region, seed: int = 0):
        super().__init__(region, seed)
        self.layout = layout = region.layout
        self.walk = walk = _dfs_walk(layout, random.Random(seed))
        # action[i]: the move from walk[i] to walk[i + 1].
        self.action = [layout.dirs.index(b - a) for a, b in zip(walk, walk[1:])]
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
        residual, walk, skip, action = sim.residual, self.walk, self.skip, self.action
        for robot in sim.active:
            i = robot.mem
            # Finished branch: skip to this cell's next visit.
            while skip[i] is not None and not residual[walk[i + 1]]:
                i = skip[i]
            if skip[i] is None:
                actions.append(A_SETTLE)  # last visit: the subtree below is done
                continue
            robot.mem = i + 1
            actions.append(action[i])
        return actions


def _free(residual: bytearray, blocked: bytearray) -> bytearray:
    """``residual[i] and not blocked[i]`` for every i, as a new
    bytearray: both hold only 0s and 1s, so one bitwise pass over them
    as ints gives it."""
    n = len(residual)
    free = int.from_bytes(residual, "little") & ~int.from_bytes(blocked, "little")
    return bytearray(free.to_bytes(n, "little"))


class Bflf(Strategy):
    name = "bflf"

    def __init__(self, region: Region, seed: int = 0):
        super().__init__(region, seed)
        self.layout = layout = region.layout
        self.door = layout.door
        self.rng = random.Random(seed)
        # Each active robot's remaining cells to its target, as a stack:
        # the target first, the next cell last.
        self.paths: dict[int, list[int]] = {}
        # The cells settled in the last decide_all, which the engine has
        # taken out of the residual region since.
        self.stale: set[int] = set()
        # taken[i]: layout int i is outside the unclaimed cells (a wall,
        # padding or a claimed cell); left counts the unclaimed cells.
        self.taken = taken = bytearray([cell is None for cell in layout.cell_at])
        self.left = len(region.cells)
        # A union-find of the 8-connected components of the taken cells,
        # and the cells known to be cut cells of the unclaimed ones.
        self.parent = list(range(len(taken)))
        for i, out in enumerate(taken):
            if out:
                self._join(i)
        self.cut: set[int] = set()
        # The door's BFS tree through the residual region, grown a level
        # at a time: each reached cell's predecessor and depth, and the
        # levels. low is the first level that can still hold a safe cell.
        # A settle on a cell with a child drops the levels below it.
        self.prev: dict[int, int] | None = None
        self.depth: dict[int, int] = {}
        self.levels: list[list[int]] = []
        self.low = 1

    def _find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def _join(self, i: int) -> None:
        """Union the taken cell ``i`` with the taken cells of its ring.
        Padding cells' rings may leave the layout, or wrap to the other
        side of it, onto padding that is one component anyway."""
        taken, parent, find = self.taken, self.parent, self._find
        for o in self.layout.ring:
            j = i + o
            if 0 <= j < len(taken) and taken[j]:
                parent[find(j)] = find(i)

    def claim(self, c: int) -> None:
        """Take the unclaimed cell ``c`` out of the unclaimed cells. Only
        the cut cells in its ring can stop being cut; one in a level of
        the door's tree below ``low`` lowers it."""
        self.taken[c] = 1
        self.left -= 1
        self._join(c)
        cut, depth = self.cut, self.depth
        for o in self.layout.ring:
            j = c + o
            if j in cut:
                cut.remove(j)
                if depth.get(j, self.low) < self.low:
                    self.low = depth[j]

    def is_cut(self, c: int) -> bool:
        """True when the unclaimed cell ``c``, not in ``cut``, is a cut
        cell of the unclaimed cells: two of its ring's gaps lie in one
        component of the taken cells. It then joins ``cut``."""
        t = self.taken
        o0, o1, o2, o3, o4, o5, o6, o7 = ring = self.layout.ring
        gaps = RING_GAPS[
            t[c + o0] | t[c + o1] << 1 | t[c + o2] << 2 | t[c + o3] << 3
            | t[c + o4] << 4 | t[c + o5] << 5 | t[c + o6] << 6 | t[c + o7] << 7
        ]
        if not gaps:
            return False
        find = self._find
        roots = {find(c + ring[g]) for g in gaps}
        if len(roots) == len(gaps):
            return False
        self.cut.add(c)
        return True

    def pool(self, residual: bytearray) -> list[int]:
        """The safe unclaimed cells, in ``(x, y)`` order, of the first
        level of the door's BFS tree through ``residual`` that holds one;
        [] when no level does. The door, level 0, is safe only as the
        last unclaimed cell. The scan starts at ``low`` and the tree
        grows only as far as it asks."""
        door, taken, cut, is_cut = self.door, self.taken, self.cut, self.is_cut
        if self.left == 1:
            return [door]
        if self.prev is None:
            self.prev, self.depth, self.levels, self.low = {door: door}, {door: 0}, [[door]], 1
        levels, prev, depth, dirs = self.levels, self.prev, self.depth, self.layout.dirs
        k = self.low
        while True:
            if k == len(levels):
                reached = []
                for v in levels[-1]:
                    for d in dirs:
                        nb = v + d
                        if residual[nb] and nb not in prev:
                            prev[nb] = v
                            depth[nb] = k
                            reached.append(nb)
                if not reached:
                    self.low = k
                    return []
                levels.append(reached)
            found = [c for c in levels[k] if not taken[c] and c not in cut and not is_cut(c)]
            if found:
                self.low = k
                return sorted(found, key=self.layout.cell_at.__getitem__)
            k += 1

    def _settle(self, c: int) -> None:
        """Keep the door's tree across the settle on ``c`` down to
        ``c``'s level: ``c`` leaves its level and, when it has a child,
        the deeper levels go, with their cells' predecessors and depths,
        to be grown again through the new residual region. The door's
        settle drops the tree."""
        prev = self.prev
        if prev is None or c not in prev:
            return
        if c == self.door:
            self.prev = None
            return
        levels, depth = self.levels, self.depth
        d = depth.pop(c)
        del prev[c]
        levels[d].remove(c)
        if any(prev.get(c + o) == c for o in self.layout.dirs):
            for level in levels[d + 1 :]:
                for v in level:
                    del prev[v], depth[v]
            del levels[d + 1 :]
        while not levels[-1]:
            levels.pop()
        self.low = min(self.low, len(levels))

    def _route(self, src: int, dst: int, residual: bytearray, blocked=None) -> list[int]:
        """A shortest path from ``src`` to ``dst != src`` through the
        ``residual`` cells not set in ``blocked``, as a stack: ``dst``
        first, ``src`` left out; [] when there is none. It returns when
        the search first reaches ``dst``, whose predecessor is fixed from
        then on."""
        d0, d1, d2, d3 = dirs = self.layout.dirs
        free = bytearray(residual) if blocked is None else _free(residual, blocked)
        # The search's visited mark: a reached cell's byte becomes 2 plus
        # the direction it was reached in, which leads back to src. The
        # four directions are written out, since this loop is most of
        # BFLF's time.
        free[src] = 0
        level = [src]
        while level:
            reached = []
            for v in level:
                nb = v + d0
                if free[nb] == 1:
                    free[nb] = 2
                    if nb == dst:
                        break
                    reached.append(nb)
                nb = v + d1
                if free[nb] == 1:
                    free[nb] = 3
                    if nb == dst:
                        break
                    reached.append(nb)
                nb = v + d2
                if free[nb] == 1:
                    free[nb] = 4
                    if nb == dst:
                        break
                    reached.append(nb)
                nb = v + d3
                if free[nb] == 1:
                    free[nb] = 5
                    if nb == dst:
                        break
                    reached.append(nb)
            else:  # dst not reached yet
                level = reached
                continue
            path = []
            v = dst
            while v != src:
                path.append(v)
                v -= dirs[free[v] - 2]
            return path
        return []

    def on_spawn(self, sim, robot) -> None:
        """Claim a cell of the pool for the new robot, drawn at random,
        as its ``mem``, and route it there along the door's tree."""
        door, pool = self.door, self.pool(sim.residual)
        robot.mem = cell = self.rng.choice(pool) if pool else door
        prev = self.prev
        path = []
        while cell != door:
            path.append(cell)
            cell = prev[cell]
        self.claim(robot.mem)
        self.paths[robot.id] = path

    def decide_all(self, sim) -> list[int]:
        actions: list[int] = []
        blocked, residual, dirs, paths = sim.blocked, sim.residual, self.layout.dirs, self.paths
        # A path can meet a settled cell only if that cell settled in the
        # last step: every robot tested its path then.
        stale = self.stale
        self.stale = settling = set()
        # The cells this step's moves enter; a spawn pending at a free
        # door claims it first.
        claimed_now: set[int] = set() if blocked[self.door] else {self.door}
        for robot in sim.active:
            idx, target = robot.idx, robot.mem
            if idx == target:
                del paths[robot.id]
                settling.add(target)
                self._settle(target)
                actions.append(A_SETTLE)
                continue
            path = paths[robot.id]
            if not path or stale and not stale.isdisjoint(path):
                path = paths[robot.id] = self._route(idx, target, residual)
            if not path:
                actions.append(A_STAY)
                continue
            nxt = path[-1]
            if blocked[nxt] or nxt in claimed_now:
                # Try flowing around the robots in the way.
                detour = self._route(idx, target, residual, blocked)
                # The detour never enters an occupied cell.
                if detour and detour[-1] not in claimed_now:
                    path = paths[robot.id] = detour
                    nxt = detour[-1]
                else:
                    actions.append(A_STAY)
                    continue
            claimed_now.add(nxt)
            path.pop()
            actions.append(dirs.index(nxt - idx))
        return actions

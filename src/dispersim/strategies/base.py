"""Strategy interface.

The engine drives every strategy through two hooks. ``decide_all(sim)``
returns one action per robot of ``sim.active``, in that order, as a
list, and ``on_spawn(sim, robot)`` sets up a robot that has just
emerged at the door. A local strategy overrides neither: it defines
``fresh_memory()`` and the rule ``decide(view, mem)``, which returns
the action for a robot with ring mask ``view`` and memory ``mem`` and
updates ``mem`` in place. The view is an int in ``range(256)``: bit i
is set when the cell ``grid.RING[i]`` away is a wall or holds a robot,
the two being indistinguishable. The ring runs clockwise from up, so
axis direction d is bit 2d.

A local robot has finite memory, so the default hooks run ``decide``
as a transition table. The memory contract:

- ``key()`` describes the whole memory: two memories with equal keys
  behave the same in every future step;
- a memory can be copied with ``copy.copy`` and hashes by identity
  (None is a memory too, with key None);
- ``decide`` depends only on the view, the memory and the strategy's
  constants, never on the robot, the step or the region.

Each strategy instance interns memories by ``key()``: a robot's
``mem`` is always the canonical object for its key, shared with every
other robot in that state and never changed. Per canonical memory a
row of 256 entries holds ``(action, next canonical memory)``; an entry
is filled on first use by calling ``decide`` once on a copy of the
memory. ``decide_all`` is then one ring read and one table read per
active robot, and the engine's deadlock key compares memories by
identity.

The leader-follower baselines override both hooks: they model
algorithms whose original setting grants leader-follower signaling, so
they plan from the whole simulation.

A run's configuration is its active robots' cells and memories: the
engine's deadlock key holds nothing else, and its seen set is cleared
on every spawn and settle. So a strategy keeps in ``robot.mem``
whatever of its state can change in between. ``dflf`` keeps each
robot's walk index there, which moves when a staying robot skips a
finished branch. ``bflf`` leaves ``robot.mem`` None: its claims and
targets change only when a robot spawns or settles, and the tests
check that two steps with one key between two clears hold the same
routes.

``invariants`` names the runtime checker of the lemmas a strategy
guarantees, built as ``invariants(region)`` when a run is checked; None
declares no lemmas beyond the engine's own checks.
"""

from __future__ import annotations

import copy

from ..engine import A_SETTLE, A_STAY  # noqa: F401  (re-export)


class Strategy:
    name = "?"
    invariants = None

    def __init__(self, region=None, seed: int = 0):
        # Local strategies must not look at the region; the argument only
        # exists so the registry can construct every strategy uniformly.
        self.seed = seed
        self._memories: dict = {}  # key() -> canonical memory
        self._rows: dict = {}  # canonical memory -> its 256 table entries

    def fresh_memory(self):
        raise NotImplementedError

    def decide(self, view: int, mem) -> int:
        """Return the action for a robot with ring mask ``view``,
        updating ``mem`` in place."""
        raise NotImplementedError

    def decide_all(self, sim) -> list[int]:
        """Return one action per robot of ``sim.active``, in that order,
        moving each robot's memory to its next canonical memory."""
        rows = self._rows
        ring_mask = sim.ring_mask
        actions = []
        for robot in sim.active:
            view = ring_mask(robot.idx)
            entry = rows[robot.mem][view]
            if entry is None:
                entry = self._transition(robot.mem, view)
            action, robot.mem = entry
            actions.append(action)
        return actions

    def on_spawn(self, sim, robot) -> None:
        """Set up ``robot``, which has just emerged at the door."""
        robot.mem = self._intern(self.fresh_memory())

    def _intern(self, mem):
        """The canonical memory with ``mem``'s key, ``mem`` itself if the
        key is new."""
        key = None if mem is None else mem.key()
        memories = self._memories
        if key not in memories:
            memories[key] = mem
            self._rows[mem] = [None] * 256
        return memories[key]

    def _transition(self, mem, view: int) -> tuple:
        """Fill and return the table entry of canonical ``mem`` under
        ``view``: ``decide`` on a copy, its result interned."""
        after = copy.copy(mem)
        action = self.decide(view, after)
        entry = self._rows[mem][view] = (action, self._intern(after))
        return entry

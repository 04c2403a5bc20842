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
- ``decide`` depends only on the view, the memory and the constants
  named in ``table_key()``, never on the robot, the step, the region or
  the seed.

A transition table belongs to the rule, not to one run: one table per
``table_key()``, the strategy's class and its constants, is shared by
every instance in the process with that key. A strategy with a
constant overrides ``table_key()`` to add it. The table interns
memories by ``key()``: a robot's ``mem`` is always the canonical object
for its key, shared with every other robot in that state, in any run,
and never changed. Per canonical memory a row of 256 entries holds
``(action, next canonical memory)``; an entry is filled on first use by
calling ``decide`` once on a copy of the memory. ``on_spawn`` hands
out the table's canonical fresh memory, and ``decide_all`` is one ring
read and one table read per active robot. The engine's deadlock key
compares memories by identity, which is exact because equal keys share
one object; two strategies with different table keys never run in one
simulation.

The leader-follower baselines override both hooks: they model
algorithms whose original setting grants leader-follower signaling, so
they plan from the whole simulation.

A run's configuration is its active robots' cells and memories: the
engine's deadlock key holds nothing else, and its seen set is cleared
on every spawn and settle. So a strategy keeps in ``robot.mem``
whatever of its state can change in between. ``dflf`` keeps each
robot's walk index there. ``bflf`` keeps each robot's target there,
drawn at spawn and fixed until the robot settles on it; its claims
change only when a robot spawns, and its routes stay out of the key:
the tests check that two steps with one key between two clears hold
the same routes.

``invariants`` names the runtime checker of the lemmas a strategy
guarantees, built as ``invariants(region)`` when a run is checked; None
declares no lemmas beyond the engine's own checks.
"""

from __future__ import annotations

import copy
import functools

from ..engine import A_SETTLE, A_STAY  # noqa: F401  (re-export)


# table_key() -> that rule's transition table, filled lazily and shared
# by every instance in the process with the key.
_TABLES: dict = {}


class _Table:
    """The interned memories of one rule, their rows and the canonical
    fresh memory."""

    __slots__ = ("memories", "rows", "fresh")

    def __init__(self, fresh):
        self.memories: dict = {}  # key() -> canonical memory
        self.rows: dict = {}  # canonical memory -> its 256 table entries
        self.fresh = self.intern(fresh)

    def intern(self, mem):
        """The canonical memory with ``mem``'s key, ``mem`` itself if the
        key is new."""
        key = None if mem is None else mem.key()
        memories = self.memories
        if key not in memories:
            memories[key] = mem
            self.rows[mem] = [None] * 256
        return memories[key]


class Strategy:
    name = "?"
    invariants = None

    def __init__(self, region=None, seed: int = 0):
        # Local strategies must not look at the region; the argument only
        # exists so the registry can construct every strategy uniformly.
        self.seed = seed

    def table_key(self) -> tuple:
        """The rule's identity: its class and every constant ``decide``
        reads. Instances with equal keys share one transition table."""
        return (type(self),)

    @functools.cached_property
    def _table(self) -> _Table:
        # Looked up on first use, so a subclass may set its constants
        # after Strategy.__init__.
        key = self.table_key()
        table = _TABLES.get(key)
        if table is None:
            table = _TABLES[key] = _Table(self.fresh_memory())
        return table

    def fresh_memory(self):
        raise NotImplementedError

    def decide(self, view: int, mem) -> int:
        """Return the action for a robot with ring mask ``view``,
        updating ``mem`` in place."""
        raise NotImplementedError

    def decide_all(self, sim) -> list[int]:
        """Return one action per robot of ``sim.active``, in that order,
        moving each robot's memory to its next canonical memory.

        A robot's view is the package's one ring read of
        ``sim.blocked``: 8 indexed reads around ``robot.idx``, inline,
        one per active robot. Bit i is set when the cell
        ``grid.RING[i]`` away is blocked: a wall, padding and a robot,
        active or settled, all set the same bit."""
        rows = self._table.rows
        b = sim.blocked
        o0, o1, o2, o3, o4, o5, o6, o7 = sim.layout.ring
        actions = []
        for robot in sim.active:
            i = robot.idx
            view = (
                b[i + o0] | b[i + o1] << 1 | b[i + o2] << 2 | b[i + o3] << 3
                | b[i + o4] << 4 | b[i + o5] << 5 | b[i + o6] << 6 | b[i + o7] << 7
            )
            entry = rows[robot.mem][view]
            if entry is None:
                entry = self._transition(robot.mem, view)
            action, robot.mem = entry
            actions.append(action)
        return actions

    def on_spawn(self, sim, robot) -> None:
        """Set up ``robot``, which has just emerged at the door."""
        robot.mem = self._table.fresh

    def _transition(self, mem, view: int) -> tuple:
        """Fill and return the table entry of canonical ``mem`` under
        ``view``: ``decide`` on a copy, its result interned."""
        table = self._table
        after = copy.copy(mem)
        action = self.decide(view, after)
        entry = table.rows[mem][view] = (action, table.intern(after))
        return entry

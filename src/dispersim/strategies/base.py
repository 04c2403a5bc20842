"""Strategy interface.

The engine drives every strategy through two hooks. ``decide_all(sim)``
returns each active robot's action, by id, for the coming step; by
default it calls ``decide(view, mem)`` once per active robot with that
robot's ring mask and private memory and nothing else, so a local
strategy overrides only ``decide`` and cannot see more. The view is an
int in ``range(256)``: bit i is set when the cell ``grid.RING[i]`` away
is a wall or holds a robot, the two being indistinguishable. The ring
runs clockwise from up, so axis direction d is bit 2d. ``decide``
returns the action and updates the memory in place.
``on_spawn(sim, robot)`` runs when a robot emerges at the door; by
default it gives the robot ``fresh_memory()``. The leader-follower
baselines override both hooks: they model algorithms whose original
setting grants leader-follower signaling, so they plan from the whole
simulation.

``invariants`` names the runtime checker of the lemmas a strategy
guarantees, built as ``invariants(region)`` when a run is checked; None
declares no lemmas beyond the engine's own checks.
"""

from __future__ import annotations

from ..engine import A_SETTLE, A_STAY  # noqa: F401  (re-export)


class Strategy:
    name = "?"
    invariants = None

    def __init__(self, region=None, seed: int = 0):
        # Local strategies must not look at the region; the argument only
        # exists so the registry can construct every strategy uniformly.
        self.seed = seed

    def fresh_memory(self):
        raise NotImplementedError

    def decide(self, view: int, mem) -> int:
        """Return the action for a robot with ring mask ``view``,
        updating ``mem`` in place."""
        raise NotImplementedError

    def decide_all(self, sim) -> dict[int, int]:
        """Return {robot id: action} for the robots in ``sim.active``."""
        decide = self.decide
        ring_mask = sim.ring_mask
        return {robot.id: decide(ring_mask(robot.idx), robot.mem) for robot in sim.active}

    def on_spawn(self, sim, robot) -> None:
        """Set up ``robot``, which has just emerged at the door."""
        robot.mem = self.fresh_memory()

    def state_key(self):
        """Extra run-level state for deadlock configuration hashing."""
        return None

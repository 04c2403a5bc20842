"""Empirically optimal FCDFS variants.

``rand-corner`` drops the fixed Up-first orientation: a run-level seeded
draw sets the inherited ``rotation`` to 0-3 quarter turns, and every
robot scans for its initial primary clockwise from that random direction
instead of from Up. All robots in a run share the rotation, which keeps
the single-file chain out of the door intact (per-robot random draws let
chains diverge and collide; see the notes in the repository history).

``left-hand`` keeps a heading and scales the boundary clockwise with an
obstacle on its left: it turns left only when a wall on its left just
ended, otherwise goes straight, then right; it settles on the same
corner test as FCDFS.
"""

from __future__ import annotations

import random

from ..grid import DIR_BITS, DIR_VECTORS, FREE_DIRS, opposite, rotate_ccw, rotate_cw
from .base import A_SETTLE, Strategy
from .fcdfs import DIAG_BITS, Fcdfs, FcdfsMemory, diag_offset


def _corner_pair_settle(view: int, m) -> bool:
    """True if some blocked L-pair marks the current cell as a corner:
    the pair's diagonal is unoccupied, or the robot stood on it two
    steps ago (fake hall)."""
    for d in range(4):
        if view & DIR_BITS[d] and view & DIR_BITS[rotate_cw(d)]:
            if m.prev2 == diag_offset(d) or not view & DIAG_BITS[d]:
                return True
    return False


class RandomCorner(Fcdfs):
    name = "rand-corner"

    def __init__(self, region=None, seed: int = 0):
        super().__init__(region, seed)
        # Randomness is consumed once, at run initialization.
        self.rotation = random.Random(seed).randrange(4)


class LeftHand(Strategy):
    """Keeps its heading in ``FcdfsMemory.primary``."""

    name = "left-hand"

    def fresh_memory(self) -> FcdfsMemory:
        return FcdfsMemory()

    def decide(self, view: int, m: FcdfsMemory) -> int:
        free = FREE_DIRS[view]
        if not free:
            return A_SETTLE
        if m.prev is None:
            m.primary = free[0]  # clockwise scan from Up
            m.record_move(m.primary)
            return m.primary
        dead_end = len(free) == 1 and DIR_VECTORS[free[0]] == m.prev
        if dead_end or _corner_pair_settle(view, m):
            return A_SETTLE
        h = m.primary
        left = rotate_ccw(h)
        # Turn left only when a wall on the left just ended: the cell
        # diagonally behind-left, diag_offset(h), is still an obstacle.
        if not view & DIR_BITS[left] and view & DIAG_BITS[h]:
            d = left
        else:
            d = next(d for d in (h, rotate_cw(h), left, opposite(h)) if not view & DIR_BITS[d])
        m.primary = d
        m.record_move(d)
        return d

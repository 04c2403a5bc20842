"""FCDFS as a 5-bit automaton.

Persistent state is five bits: b1b2 encode the primary direction, b3
whether the last step was in the secondary direction, and b4b5 a short
counter reset to 10 on initialization and on every hall redirect, then
shifted to (b3, 1) each step. A corner with an occupied diagonal is
recognized as fake (really a corner, not a hall) exactly when b5 = 1 and
b3 + b4 = 1: at least one step has passed since the last redirect and
exactly one of the two previous steps was secondary, so the robot itself
stood on the diagonal two steps ago. Settling is encoded by b3b4b5 = 011;
such a robot would re-settle forever and never moves again.
"""

from __future__ import annotations

from ..errors import NoLegalAction
from ..grid import DIR_BITS, FREE_DIRS, opposite, rotate_cw
from .base import A_SETTLE, Strategy
from .fcdfs import DIAG_BITS, RunChecker


class FiveBitMemory:
    __slots__ = ("b12", "b3", "b4", "b5")

    def __init__(self):
        self.b12 = 0  # primary direction code
        self.b3 = 0
        self.b4 = 0
        self.b5 = 0

    @property
    def settled(self) -> bool:
        return (self.b3, self.b4, self.b5) == (0, 1, 1)

    @property
    def primary(self) -> int | None:
        # Before initialization (b4b5 = 00) no direction has been chosen.
        if (self.b4, self.b5) == (0, 0):
            return None
        return self.b12

    def key(self):
        return (self.b12, self.b3, self.b4, self.b5)


class Fcdfs5(Strategy):
    name = "fcdfs5"
    invariants = RunChecker

    def fresh_memory(self) -> FiveBitMemory:
        return FiveBitMemory()

    def decide(self, view: int, m: FiveBitMemory) -> int:
        free = FREE_DIRS[view]
        if not free:
            m.b3, m.b4, m.b5 = 0, 1, 1
            return A_SETTLE
        counter_updated = False
        if (m.b4, m.b5) == (0, 0):
            m.b12 = free[0]  # clockwise scan from Up
            m.b4, m.b5 = 1, 0
            counter_updated = True
        if view & DIR_BITS[m.b12] and view & DIR_BITS[rotate_cw(m.b12)]:
            if len(free) == 1:
                m.b3, m.b4, m.b5 = 0, 1, 1
                return A_SETTLE
            if (m.b5 == 1 and m.b3 + m.b4 == 1) or not view & DIAG_BITS[m.b12]:
                m.b3, m.b4, m.b5 = 0, 1, 1
                return A_SETTLE
            # Hall: the obstacle-less direction that is not the 180-degree
            # rotation of the previous step direction.
            prev_dir = m.b12 if m.b3 == 0 else rotate_cw(m.b12)
            cands = [d for d in free if d != opposite(prev_dir)]
            if len(cands) != 1:
                raise NoLegalAction(
                    f"hall redirect found {len(cands)} candidates (free={free})"
                )
            m.b12 = cands[0]
            m.b4, m.b5 = 1, 0
            counter_updated = True
        if not counter_updated:
            m.b4, m.b5 = m.b3, 1
        if not view & DIR_BITS[m.b12]:
            m.b3 = 0
            return m.b12
        secondary = rotate_cw(m.b12)
        if not view & DIR_BITS[secondary]:
            m.b3 = 1
            return secondary
        m.b3, m.b4, m.b5 = 0, 1, 1
        return A_SETTLE

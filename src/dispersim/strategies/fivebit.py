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

``decide`` has four cases:

- no free neighbor: settle;
- first decision (b4b5 = 00): the primary is the first free direction
  clockwise from Up, the counter reads 10, and the robot steps primary;
- primary free: step primary, b3 = 0; else secondary free: step
  secondary, b3 = 1; either way the counter shifts to (old b3, 1);
- both blocked: settle at a dead end (one free neighbor), a fake hall or
  an unoccupied diagonal; otherwise it is a hall, whose free neighbors
  are the opposites of primary and secondary. The robot came from the
  opposite of its last step's direction, so the new primary is
  opposite(secondary) if b3 = 0, else opposite(primary); the counter
  reads 10 and the robot steps.
"""

from __future__ import annotations

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
    def primary(self) -> int | None:
        # Before initialization (b4b5 = 00) no direction has been chosen.
        return self.b12 if self.b4 or self.b5 else None

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
        if (m.b4, m.b5) == (0, 0):
            m.b12 = free[0]  # clockwise scan from Up
            m.b3, m.b4, m.b5 = 0, 1, 0
            return m.b12
        primary, secondary = m.b12, rotate_cw(m.b12)
        for d, b3 in ((primary, 0), (secondary, 1)):
            if not view & DIR_BITS[d]:
                m.b3, m.b4, m.b5 = b3, m.b3, 1
                return d
        if len(free) == 1 or (m.b5 == 1 and m.b3 + m.b4 == 1) or not view & DIAG_BITS[primary]:
            m.b3, m.b4, m.b5 = 0, 1, 1
            return A_SETTLE
        # Hall: the free neighbor the robot did not come from.
        m.b12 = opposite(secondary) if m.b3 == 0 else opposite(primary)
        m.b3, m.b4, m.b5 = 0, 1, 0
        return m.b12

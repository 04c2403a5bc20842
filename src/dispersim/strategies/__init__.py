"""Strategy registry.

Local strategies decide from an 8-bit ring mask and their own memory
alone; the leader-follower baselines are run-level controllers with
engine access.
"""

from __future__ import annotations

from ..errors import BadParameters
from ..grid import Region
from .base import Strategy
from .baselines import Bflf, Dflf
from .fcdfs import Fcdfs
from .fivebit import Fcdfs5
from .variants import LeftHand, RandomCorner

STRATEGIES: dict[str, type[Strategy]] = {
    cls.name: cls for cls in (Fcdfs, Fcdfs5, RandomCorner, LeftHand, Dflf, Bflf)
}


def make_strategy(name: str, region: Region, seed: int = 0) -> Strategy:
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise BadParameters(f"unknown strategy: {name!r}") from None
    return cls(region, seed=seed)


__all__ = [
    "STRATEGIES",
    "make_strategy",
    "Strategy",
    "Fcdfs",
    "Fcdfs5",
    "RandomCorner",
    "LeftHand",
    "Dflf",
    "Bflf",
]

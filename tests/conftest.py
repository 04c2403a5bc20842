import random

import pytest

from dispersim.envgen import random_simply_connected

SUITE_SIZE = 200
SUITE_MASTER_SEED = 42
SUITE_MAX_V = 400


def suite_regions() -> list:
    """200 seeded random simply connected regions, V in [2, 400]: the
    ``suite`` fixture, for helpers that run outside pytest."""
    rng = random.Random(SUITE_MASTER_SEED)
    return [
        random_simply_connected(rng.randint(2, SUITE_MAX_V), seed=1000 + i)
        for i in range(SUITE_SIZE)
    ]


@pytest.fixture(scope="session")
def suite():
    """200 seeded random simply connected regions, V in [2, 400]."""
    return suite_regions()

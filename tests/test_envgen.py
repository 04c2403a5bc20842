import hashlib
import random

import pytest

from dispersim import topology as tp
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.errors import BadParameters, DoorOutOfBounds


def test_rect_shapes():
    r = rect(1, 5, (0, 0))
    assert len(r.cells) == 5
    r = rect(30, 30, (13, 13))
    assert len(r.cells) == 900
    assert tp.is_simply_connected(r)
    r = rect(2, 2, (0, 0))
    assert all(tp.classify_cells(r.cells, c).kind == tp.CORNER for c in r.cells)


def test_rect_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        rect(0, 3, (0, 0))
    with pytest.raises(DoorOutOfBounds):
        rect(3, 3, (3, 0))


def test_random_region_exact_size_and_simply_connected():
    rng = random.Random(9)
    for _ in range(40):
        V = rng.randint(1, 250)
        seed = rng.randrange(10**6)
        r = random_simply_connected(V, seed)
        assert len(r.cells) == V
        assert tp.is_simply_connected(r)
        assert r.door == (0, 0)


def test_random_region_deterministic():
    a = random_simply_connected(120, 77)
    b = random_simply_connected(120, 77)
    assert a == b


def test_random_region_single_cell():
    r = random_simply_connected(1, 0)
    assert r.cells == frozenset({(0, 0)})


def test_g_k_structure():
    r = g_k(1, 5)
    # 10 width-1 columns with a 2-cell gap: bottom row spans x = 0..27.
    assert (27, 0) in r.cells and (28, 0) not in r.cells
    col = lambda x: {y for (cx, y) in r.cells if cx == x and y <= 31}
    assert max(col(0)) == 31 and max(col(12)) == 31  # columns 1 and 5 rise higher
    assert all(max(col(3 * j)) == 30 for j in range(10) if j not in (0, 4))
    # the joining row passes one cell above the plain columns
    assert (0, 32) in r.cells and (12, 32) in r.cells and (3, 31) not in r.cells
    assert r.door == (0, 0)
    assert not tp.is_simply_connected(r)  # the 1-5 loop encloses walls


def test_g_k_matches_near_door_regardless_of_k():
    a = g_k(1, 2)
    b = g_k(1, 9)
    near = lambda r: {c for c in r.cells if abs(c[0]) + abs(c[1]) <= 2}
    assert near(a) == near(b)


def test_g_k_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        g_k(0, 2)
    with pytest.raises(BadParameters):
        g_k(1, 1)
    with pytest.raises(BadParameters):
        g_k(1, 11)


def test_generator_outputs_connected_oracle():
    # the generator invariant, sampled (the full 1000-seed sweep is slow)
    for V in (10, 50, 200):
        for seed in range(25):
            r = random_simply_connected(V, seed)
            assert tp.is_simply_connected(r)


def _digest(regions):
    h = hashlib.sha256()
    for r in regions:
        h.update(repr((sorted(r.cells), r.door)).encode())
    return h.hexdigest()


# Both digests were computed with the generator that decided ambiguous
# attachments by a flood fill; the local simple-point test must grow the
# same regions from the same seeds.
def test_suite_regions_pinned(suite):
    assert _digest(suite) == "67812d84c4ec317ae15989ed9391f3eb93d9291bcef601b65342a2ea744efba0"


def test_large_regions_pinned():
    regions = [random_simply_connected(20 * i, 7919 * i) for i in range(1, 51)]
    assert max(len(r.cells) for r in regions) == 1000
    assert _digest(regions) == "6efe2c95b9e01425bff9a08552167ec4da706744841f00af9b010f7a235432a5"

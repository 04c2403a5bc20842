import pytest

from dispersim import grid
from dispersim.errors import (
    DisconnectedRegion,
    MalformedMap,
    MultipleDoors,
    NoDoor,
)
from dispersim.grid import Region, from_ascii


def test_direction_tables():
    assert grid.DIR_VECTORS[grid.UP] == (0, 1)
    assert grid.DIR_VECTORS[grid.RIGHT] == (1, 0)
    assert grid.DIR_VECTORS[grid.DOWN] == (0, -1)
    assert grid.DIR_VECTORS[grid.LEFT] == (-1, 0)
    for d in range(4):
        assert grid.rotate_cw(grid.rotate_ccw(d)) == d
        assert grid.opposite(grid.opposite(d)) == d


def test_ring_mask_layout():
    # Clockwise from up: the eight cells at Chebyshev distance 1, with
    # axis direction d at bit 2d.
    assert len(set(grid.RING)) == 8
    assert all(max(abs(dx), abs(dy)) == 1 for dx, dy in grid.RING)
    for d in range(4):
        assert grid.RING[2 * d] == grid.DIR_VECTORS[d]
        assert grid.DIR_BITS[d] == 1 << 2 * d
    for mask in range(256):
        free = tuple(d for d in range(4) if not mask >> 2 * d & 1)
        assert grid.FREE_DIRS[mask] == free


def test_manhattan():
    assert grid.manhattan((0, 0), (3, -4)) == 7
    assert grid.manhattan((2, 2), (2, 2)) == 0


def test_region_rejects_missing_door():
    with pytest.raises(NoDoor):
        Region({(0, 0), (1, 0)}, (5, 5))


def test_region_rejects_disconnected():
    with pytest.raises(DisconnectedRegion):
        Region({(0, 0), (2, 0)}, (0, 0))
    with pytest.raises(DisconnectedRegion):
        Region(set(), (0, 0))


def test_neighbors_order_is_up_right_down_left():
    assert grid.adjacent((0, 0)) == ((0, 1), (1, 0), (0, -1), (-1, 0))


def test_from_ascii_round_trip():
    text = "S..\n#.#\n..."
    r = from_ascii(text)
    assert r.door == (0, 2)  # top row is the highest y
    assert len(r.cells) == 7
    assert r.to_ascii() == text


def test_from_ascii_errors():
    with pytest.raises(NoDoor):
        from_ascii("...\n...")
    with pytest.raises(MultipleDoors):
        from_ascii("S.S")
    with pytest.raises(MalformedMap):
        from_ascii("S..\n....")
    with pytest.raises(DisconnectedRegion):
        from_ascii("S#.")


def test_flood_fill():
    cells = {(0, 0), (1, 0), (1, 1), (3, 3)}
    assert grid.bfs_distances_cells(cells, (0, 0)) == {(0, 0): 0, (1, 0): 1, (1, 1): 2}

import pickle

import pytest

from dispersim import grid
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.errors import MapError
from dispersim.grid import Region, from_ascii

from oracles import ascii_map


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
    with pytest.raises(MapError, match=r"door \(5, 5\) is not a cell of the region"):
        Region({(0, 0), (1, 0)}, (5, 5))


def test_region_rejects_disconnected():
    with pytest.raises(MapError, match="1 cells unreachable from the door"):
        Region({(0, 0), (2, 0)}, (0, 0))
    with pytest.raises(MapError, match="region has no cells"):
        Region(set(), (0, 0))


def test_neighbors_order_is_up_right_down_left():
    assert grid.adjacent((0, 0)) == ((0, 1), (1, 0), (0, -1), (-1, 0))


def test_from_ascii_round_trip():
    text = "S..\n#.#\n..."
    r = from_ascii(text)
    assert r.door == (0, 2)  # top row is the highest y
    assert len(r.cells) == 7
    assert r.to_ascii() == text


def test_to_ascii_matches_a_cell_by_cell_writer(suite):
    """The map drawn once and marked in a copy equals one written cell by
    cell, before and after marks, with marks off the region ignored."""
    for i, r in enumerate(suite):
        box = [(x, y) for x in range(r.min_x, r.max_x + 1) for y in range(r.min_y, r.max_y + 1)]
        marks = {c: "o^>v<"[k % 5] for k, c in enumerate(sorted(r.cells)[i % 3::3])}
        marks.update({c: "x" for c in box if c not in r.cells})  # walls in the box
        marks[(r.min_x - 1, r.max_y)] = "x"  # outside the box
        assert r.to_ascii() == ascii_map(r, {})
        assert r.to_ascii(marks) == ascii_map(r, marks), i
        assert r.to_ascii() == ascii_map(r, {})


@pytest.mark.parametrize("region", [
    rect(7, 4, (3, 0)),
    random_simply_connected(60, 1),  # min corner (-8, -3)
    g_k(1, 5),
], ids=["rect", "random-negative-origin", "g_k"])
def test_region_pickles_as_its_cells_and_door(region):
    """A region crosses a process boundary: the copy has the same cells,
    door, door distances, int layout and map."""
    copy = pickle.loads(pickle.dumps(region))
    assert copy is not region
    assert copy.cells == region.cells
    assert copy.door == region.door
    assert dict(copy.door_distances) == dict(region.door_distances)
    assert copy.layout.cell_at == region.layout.cell_at
    assert copy.to_ascii() == region.to_ascii()


def test_from_ascii_errors():
    with pytest.raises(MapError, match="map has no 'S' cell"):
        from_ascii("...\n...")
    with pytest.raises(MapError, match=r"second door at \(2, 0\)"):
        from_ascii("S.S")
    with pytest.raises(MapError, match="line 1 has length 4, expected 3"):
        from_ascii("S..\n....")
    with pytest.raises(MapError, match="1 cells unreachable from the door"):
        from_ascii("S#.")


def test_flood_fill():
    cells = {(0, 0), (1, 0), (1, 1), (3, 3)}
    assert grid.bfs_distances_cells(cells, (0, 0)) == {(0, 0): 0, (1, 0): 1, (1, 1): 2}

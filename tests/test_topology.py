from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dispersim import topology as tp
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.errors import DispersimError
from dispersim.grid import RING as RING_OFFSETS, Region, from_ascii
from dispersim.strategies import make_strategy

from oracles import articulation_points, fixed_polyominoes, has_hole, vertex_class

L_TROMINO = from_ascii("S#\n..")
# Three halls in a row, the door in the middle one.
STAIRCASE = from_ascii("..#\n#S.\n##.")
RING = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))


def test_classify_dead_end():
    corridor = rect(3, 1, (0, 0))
    assert tp.classify_cells(corridor.cells, (0, 0)) == tp.CORNER == vertex_class(corridor.cells, (0, 0))[0]
    assert tp.classify_cells(corridor.cells, (1, 0)) == tp.INTERIOR == vertex_class(corridor.cells, (1, 0))[0]


def test_classify_corner_vs_hall():
    # 2x2 block: two blocked sides, diagonal inside the region: corner.
    sq = rect(2, 2, (0, 0))
    assert tp.classify_cells(sq.cells, (0, 0)) == tp.CORNER == vertex_class(sq.cells, (0, 0))[0]
    # The tromino bend has the same neighbor shape, but its diagonal
    # is a wall: a hall.
    assert tp.classify_cells(L_TROMINO.cells, (0, 0)) == tp.HALL == vertex_class(L_TROMINO.cells, (0, 0))[0]
    assert tp.classify_cells(RING.cells, (0, 0)) == tp.HALL == vertex_class(RING.cells, (0, 0))[0]


@pytest.mark.parametrize("as_set", [frozenset, set])
def test_classify_agrees_with_the_definitions_on_every_ring(as_set):
    """Every one of the 256 rings of a cell, as a region's cells or a
    residual set: the kind equals the brute-force reference's."""
    v = (5, -3)
    kinds = Counter()
    for mask in range(256):
        cells = as_set([v] + [(v[0] + dx, v[1] + dy) for i, (dx, dy) in enumerate(RING_OFFSETS) if mask >> i & 1])
        kind = tp.classify_cells(cells, v)
        assert kind == vertex_class(cells, v)[0], mask
        kinds[kind] += 1
    assert kinds == {tp.CORNER: 112, tp.INTERIOR: 112, tp.HALL: 32}


def test_square_has_four_corners():
    sq = rect(2, 2, (0, 0))
    for cell in sq.cells:
        assert tp.classify_cells(sq.cells, cell) == tp.CORNER


def test_simple_connectivity():
    assert tp.is_simply_connected(rect(5, 4, (0, 0)))
    assert not tp.is_simply_connected(RING)


def test_hall_tree_l_tromino():
    tree = tp.hall_tree(L_TROMINO)
    assert len(tree.components) == 2
    assert len(tree.edges) == 1
    root_cells = tree.components[tree.root]
    assert L_TROMINO.door in root_cells


def _assert_hall_tree(r, tree):
    """The components cover the region, the root holds the door, and
    the edges form a tree on the components."""
    n = len(tree.components)
    assert frozenset().union(*tree.components) == r.cells
    assert r.door in tree.components[tree.root]
    assert len(tree.edges) == n - 1
    adj = {i: set() for i in range(n)}
    for i, j in tree.edges:
        assert 0 <= i < j < n
        adj[i].add(j)
        adj[j].add(i)
    seen, todo = {tree.root}, [tree.root]
    while todo:
        for j in adj[todo.pop()] - seen:
            seen.add(j)
            todo.append(j)
    assert len(seen) == n


def test_hall_tree_staircase_is_its_own_component():
    assert tp.halls(STAIRCASE) == [(1, 1), (1, 2), (2, 1)]
    tree = tp.hall_tree(STAIRCASE)
    assert sorted(map(sorted, tree.components)) == [
        [(0, 2), (1, 2)],
        [(1, 1), (1, 2), (2, 1)],
        [(2, 0), (2, 1)],
    ]
    assert tree.components[tree.root] == {(1, 1), (1, 2), (2, 1)}
    _assert_hall_tree(STAIRCASE, tree)


@settings(max_examples=150, deadline=None)
@given(V=st.integers(1, 150), seed=st.integers(0, 2**20))
def test_hall_tree_is_a_tree_covering_the_region(V, seed):
    r = random_simply_connected(V, seed)
    _assert_hall_tree(r, tp.hall_tree(r))


def test_hall_tree_requires_simple_connectivity():
    with pytest.raises(DispersimError, match="hall tree is only defined for simply connected regions"):
        tp.hall_tree(RING)


def test_rectangle_has_no_halls():
    r = rect(6, 5, (0, 0))
    assert all(tp.classify_cells(r.cells, c) != tp.HALL for c in r.cells)
    tree = tp.hall_tree(r)
    assert len(tree.components) == 1
    assert tree.edges == ()


def _cut_cells(r, root):
    """The cut cells that BFLF finds in the region's cells with the door
    at ``root``, before any claim, read back as cells."""
    strategy = make_strategy("bflf", Region(r.cells, root), 0)
    index = strategy.layout.index
    return {c for c in r.cells if strategy.is_cut(index(c))}


def test_articulation_points_corridor():
    corridor = rect(5, 1, (0, 0))
    arts = articulation_points(corridor.cells)
    assert arts == {(1, 0), (2, 0), (3, 0)}
    for root in corridor.cells:
        assert _cut_cells(corridor, root) == arts


# A 9x7 rectangle with interior walls: they enclose holes, and a
# dead-end corridor winds between them, whose cells are cut cells.
WALLED = from_ascii(
    ".........\n"
    ".###.###.\n"
    ".#.....#.\n"
    ".#.###.#.\n"
    ".#...#.#.\n"
    ".#####.#.\n"
    "....S....\n"
)


def test_simple_connectivity_matches_the_flood_fill_on_every_small_polyomino():
    sizes = Counter()
    holes = 0
    for cells in fixed_polyominoes(9):
        r = Region(cells, (0, 0))
        hole = has_hole(r)
        assert tp.is_simply_connected(r) is not hole, sorted(cells)
        sizes[len(cells)] += 1
        holes += hole
    # OEIS A001168; the 8-cell ring is the first polyomino with a hole.
    assert [sizes[n] for n in range(1, 10)] == [1, 2, 6, 19, 63, 216, 760, 2725, 9910]
    assert holes == 13


@pytest.mark.parametrize("r", [RING, g_k(1, 5), WALLED], ids=["ring", "g1_5", "walled"])
def test_cut_cells_match_the_oracle_from_every_root(r):
    assert not tp.is_simply_connected(r)
    arts = articulation_points(r.cells)
    for root in r.cells:
        assert _cut_cells(r, root) == arts, root


def test_bfs_distances_and_sum():
    r = rect(3, 3, (0, 0))
    d = tp.bfs_distances(r, (0, 0))
    assert d[(2, 2)] == 4
    assert sum(d.values()) == sum(x + y for x in range(3) for y in range(3))


def test_sum_distances_table_value():
    r = rect(30, 30, (13, 13))
    d = tp.bfs_distances(r, (13, 13))
    assert sum(d.values()) == 13620
    assert max(d.values()) == 32


def test_geometric_median_of_square():
    r = rect(4, 4, (0, 0))
    assert tp.geometric_median(r) == {(1, 1), (1, 2), (2, 1), (2, 2)}


"""Region topology: corner/hall classification, simple connectivity,
the hall tree decomposition, BFS distances and optimal door placement.

Cells are ``(x, y)`` tuples. The simulation's checks call these
routines, so none is a remove-and-test brute force: simple
connectivity is one count over the tree of column runs, and
``geometric_median`` runs in O(V) through the half-spaces of a median
graph, on the same column runs. The brute-force oracles they are
tested against live under ``tests/``: the flood fill of the complement
in ``tests/oracles.py``, and the one-BFS-per-cell median in
``tests/test_properties.py``. BFLF keeps the cut cells of its unclaimed
cells itself (``strategies/baselines.py``), tested against the
remove-and-test articulation points of ``tests/oracles.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DispersimError
from .grid import Cell, Region, adjacent, bfs_distances_cells

CORNER = "corner"
HALL = "hall"
INTERIOR = "interior"


@dataclass(frozen=True)
class HallTree:
    """Hall-separated components of a simply connected region.

    Each component cell-set includes its adjacent halls; components
    sharing a hall are joined by an edge; a staircase of two or more
    halls is a component of its own; the root is the component
    containing the door.
    """

    components: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...]
    root: int


def classify_cells(cells: frozenset | set, v: Cell) -> str:
    """The kind of ``v`` in an explicit cell set (used both for full
    regions and for residual regions during runtime checks): CORNER,
    HALL or INTERIOR.

    A cell with at most one neighbor in ``cells`` is a corner, one with
    three or four, or with two opposite ones, is interior. With two
    neighbors at a right angle (an L) it is a corner when the diagonal
    cell between them is in ``cells`` and a hall when it is not."""
    if v not in cells:
        raise DispersimError(f"{v} is not in the cell set")
    x, y = v
    # adjacent(), inline: the checker classifies every settle.
    up = (x, y + 1) in cells
    right = (x + 1, y) in cells
    down = (x, y - 1) in cells
    left = (x - 1, y) in cells
    n = up + right + down + left
    if n <= 1:
        return CORNER
    if n >= 3 or up == down:  # up == down: a straight corridor
        return INTERIOR
    # L-configuration: the unique common neighbor of the two, other than v.
    w = (x + 1 if right else x - 1, y + 1 if up else y - 1)
    return CORNER if w in cells else HALL


def halls(r: Region) -> list[Cell]:
    return [v for v in sorted(r.cells) if classify_cells(r.cells, v) == HALL]


def is_simply_connected(r: Region) -> bool:
    """True iff no closed path in the region surrounds a wall (the
    complement is taken 8-connected).

    The region's maximal vertical runs, joined where they overlap across
    adjacent columns, form a tree exactly when this holds; see
    :func:`_column_runs`.
    """
    return _is_tree(_column_runs(r.cells))


def hall_tree(r: Region) -> HallTree:
    """Decompose a simply connected region into its hall tree.

    The hall-free cells fall into 4-connected components. The halls
    form maximal 4-connected runs. A one-hall run joins the components
    it touches: the hall belongs to each, and they share an edge. A run
    of two or more halls (a staircase) is a component of its own; each
    end hall is shared with the component it touches, which the run is
    joined to.
    """
    if not is_simply_connected(r):
        raise DispersimError(
            "hall tree is only defined for simply connected regions"
        )
    hall_set = set(halls(r))
    comps: list[set] = []
    comp_of: dict[Cell, int] = {}  # hall-free cell -> its component
    unassigned = set(r.cells) - hall_set
    while unassigned:
        comp = set(bfs_distances_cells(unassigned, min(unassigned)))
        unassigned -= comp
        comp_of.update(dict.fromkeys(comp, len(comps)))
        comps.append(comp)
    edges = set()
    unassigned = set(hall_set)
    while unassigned:
        run = bfs_distances_cells(unassigned, min(unassigned))
        unassigned.difference_update(run)
        # (hall, component) for each run hall next to a hall-free cell.
        touching = {(h, comp_of[nb]) for h in run for nb in adjacent(h) if nb in comp_of}
        if len(run) == 1:
            joined = {i for _, i in touching}
        else:
            joined = {len(comps)}
            comps.append(set(run))
        for h, i in touching:
            comps[i].add(h)
            edges.update((min(i, j), max(i, j)) for j in joined if j != i)
    root = next(i for i, comp in enumerate(comps) if r.door in comp)
    return HallTree(
        components=tuple(frozenset(c) for c in comps),
        edges=tuple(sorted(edges)),
        root=root,
    )


def bfs_distances(r: Region, src: Cell) -> dict[Cell, int]:
    """Exact 4-neighbor shortest-path distances within the region."""
    if src not in r.cells:
        raise DispersimError(f"{src} is not a cell of the region")
    return bfs_distances_cells(r.cells, src)


def geometric_median(r: Region) -> set[Cell]:
    """All cells minimizing the sum of distances to the rest of the
    region (there may be several), in O(V).

    A simply connected region is a squaregraph, so a median graph
    (Bandelt & Chepoi, "Metric graph theory and geometry: a survey",
    2008). Removing one Θ-class of edges splits it into two half-spaces,
    and along an edge u→w every cell of the half holding w comes one step
    closer while the rest go one step farther: S(w) = S(u) + V - 2·|W_w|.
    The region's door distances give S at the door and one more pass
    gives every other S. Raises DispersimError on a region with a
    hole.
    """
    cells = r.cells
    V = len(cells)
    runs = _column_runs(cells)
    if not _is_tree(runs):
        raise DispersimError(
            "geometric median is only computed for simply connected regions"
        )
    half: dict[tuple[Cell, Cell], int] = {}  # (u, w) -> |half holding w|
    for flip in (False, True):
        frame_runs = _column_runs({(y, x) for x, y in cells}) if flip else runs
        for u, w, size in _east_halves(frame_runs, V):
            if flip:
                u, w = u[::-1], w[::-1]
            half[u, w] = size
            half[w, u] = V - size
    sums = {r.door: sum(r.door_distances.values())}
    todo = [r.door]
    for u in todo:
        for w in adjacent(u):
            if w in cells and w not in sums:
                sums[w] = sums[u] + V - 2 * half[u, w]
                todo.append(w)
    best = min(sums.values())
    return {v for v, s in sums.items() if s == best}


def _column_runs(cells):
    """The maximal vertical runs of ``cells`` and their joins.

    Returns ``(run, size, joined)``: ``run`` maps each cell to the number
    of its run, ``size[a]`` is the cell count of run a, and ``joined``
    lists once, in first-seen order, each pair (a, b) of a run a in
    column x that overlaps a run b in column x+1. The runs of a
    4-connected region, joined this way, form a tree exactly when the
    region is simply connected.
    """
    run: dict[Cell, int] = {}  # cell -> its maximal vertical run
    size: list[int] = []
    for x, y in sorted(cells):
        below = run.get((x, y - 1))
        if below is None:
            below = len(size)
            size.append(0)
        size[below] += 1
        run[x, y] = below
    joined = dict.fromkeys(
        (a, run[x + 1, y]) for (x, y), a in run.items() if (x + 1, y) in run
    )
    return run, size, joined


def _is_tree(runs) -> bool:
    """True when the column runs ``runs`` of a 4-connected region, joined
    where they overlap, form a tree: the region is simply connected."""
    _, size, joined = runs
    return len(joined) == len(size) - 1


def _east_halves(runs, V: int):
    """Yield (u, w, |half holding w|) for every edge from a cell u to its
    east neighbor w of a simply connected region of V cells, given its
    column runs ``runs`` as :func:`_column_runs` returns them.

    The edges between columns x and x+1 where a maximal vertical run of
    column x overlaps one of column x+1 form a Θ-class. The runs, joined
    when they overlap, form a tree, and the half holding w is the cell
    count of the subtree on w's side of that edge.
    """
    run, size, joined = runs
    adj: list[list[int]] = [[] for _ in size]
    for a, b in joined:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * len(size)
    order = [0]
    for a in order:
        for b in adj[a]:
            if b != parent[a]:
                parent[b] = a
                order.append(b)
    subtree = size[:]
    for a in reversed(order[1:]):
        subtree[parent[a]] += subtree[a]
    for (x, y), a in run.items():
        b = run.get((x + 1, y))
        if b is not None:
            yield (x, y), (x + 1, y), subtree[b] if parent[b] == a else V - subtree[a]

"""Property-based tests over generated simply connected regions."""

import functools
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dispersim import envgen
from dispersim.engine import Simulation, SimulationTrace, run
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.errors import DispersimError, InvariantViolation
from dispersim.grid import DIR_VECTORS, RING, Region, from_ascii
from dispersim.metrics import compute_metrics
from dispersim.render import ascii_frame
from dispersim.strategies import STRATEGIES, make_strategy
from dispersim.strategies.fcdfs import RunChecker
from dispersim.topology import bfs_distances, bfs_distances_cells, geometric_median, is_simply_connected

from oracles import fixed_polyominoes, has_hole, recorded


def _moved(V, seed, dx, dy):
    base = random_simply_connected(V, seed)
    return Region({(x + dx, y + dy) for x, y in base.cells}, (base.door[0] + dx, base.door[1] + dy))


@settings(max_examples=50, deadline=None)
@given(
    V=st.integers(2, 120),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_fcdfs_trace_survives_json_round_trip(V, seed, dx, dy):
    r = _moved(V, seed, dx, dy)
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    back = SimulationTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
    assert recorded(back) == recorded(trace)
    assert back.outcome == trace.outcome
    assert back.region == r
    assert compute_metrics(back, back.region) == m
    last = trace.outcome.t
    assert ascii_frame(back, last) == ascii_frame(trace, last)


@settings(max_examples=100, deadline=None)
@given(
    V=st.integers(2, 80),
    seed=st.integers(0, 2**20),
    strategy_seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_fcdfs_family_disperses_optimally_under_its_invariants(V, seed, strategy_seed, dx, dy):
    """The paper's claims for the FCDFS family on simply connected
    regions: with the runtime lemmas checked at every step, the region is
    covered in 2V-1 steps and every robot travels exactly its settle
    cell's distance from the door; fcdfs5 replays fcdfs action for action."""
    r = _moved(V, seed, dx, dy)
    dist = bfs_distances(r, r.door)
    logs = {}
    for name in ("fcdfs", "fcdfs5", "rand-corner"):
        trace, m = run(r, make_strategy(name, r, strategy_seed), check=True)
        assert m.outcome == "covered" and m.makespan == 2 * V - 1, name
        assert m.optimal, name
        last = trace.outcome.t
        _, robots = next(trace.states([last]))
        assert len(robots) == V
        for rb in robots:
            travel = (last if rb.active else rb.settled - 1) - rb.spawned
            assert travel == dist[rb.pos], (name, rb.id)
        logs[name] = recorded(trace)
    assert logs["fcdfs"] == logs["fcdfs5"]


# The seeds that draw rand-corner's rotations 0, 1, 2 and 3.
ROTATION_SEEDS = (2, 1, 5, 0)


def check_every_small_polyomino(max_cells: int) -> int:
    """The FCDFS family's claims on every simply connected fixed
    polyomino of at most ``max_cells`` cells, with every cell as the
    door: fcdfs, fcdfs5, left-hand and rand-corner at each rotation cover
    in 2V-1 steps with total travel equal to the sum of door distances,
    the family under its invariants, and fcdfs5 replays fcdfs action for
    action. Polyominoes with a hole are skipped. Returns the number of
    runs. CI's deep run calls it beyond tier-1's bound:
    ``PYTHONPATH=src:tests python -c "from test_properties import
    check_every_small_polyomino as c; assert c(8) == 201_754"``."""
    cell = Region({(0, 0)}, (0, 0))
    assert [make_strategy("rand-corner", cell, seed).rotation for seed in ROTATION_SEEDS] == [0, 1, 2, 3]
    runs = [("fcdfs", 0), ("fcdfs5", 0), ("left-hand", 0)]
    runs += [("rand-corner", seed) for seed in ROTATION_SEEDS]
    count = 0
    for cells in fixed_polyominoes(max_cells):
        if has_hole(Region(cells, (0, 0))):
            continue
        V = len(cells)
        for door in sorted(cells):
            r = Region(cells, door)
            logs = {}
            for name, seed in runs:
                trace, m = run(r, make_strategy(name, r, seed), check=True)
                where = (sorted(cells), door, name, seed)
                assert (m.outcome, m.makespan, m.optimal) == ("covered", 2 * V - 1, True), where
                logs[name] = recorded(trace)
                count += 1
            assert logs["fcdfs"] == logs["fcdfs5"], (sorted(cells), door)
    return count


def test_every_small_polyomino_from_every_door():
    """Tier-1's bound for the exhaustive check: every polyomino of at
    most 7 cells, none of which has a hole."""
    assert check_every_small_polyomino(7) == 49_210


HOLEY_10_DIGEST = "9db3827a8978674e0d95dd63f8759e99bd5cf07dbe63ddb3bfc12b3e17a6d024"


@functools.cache
def _holey_10_runs() -> list:
    """``(cells, door, strategy, outcome, metrics)`` of every strategy at
    seed 0 on each of the 88 fixed 10-cell polyominoes with a hole, with
    every cell as the door (880 pairs)."""
    holey = sorted(
        tuple(sorted(cells))
        for cells in fixed_polyominoes(10)
        if len(cells) == 10 and has_hole(Region(cells, (0, 0)))
    )
    assert len(holey) == 88
    runs = []
    for cells in holey:
        for door in cells:
            r = Region(set(cells), door)
            for name in sorted(STRATEGIES):
                trace, m = run(r, make_strategy(name, r, 0), record=False)
                runs.append((cells, door, name, trace.outcome, m))
    return runs


def test_every_holey_10_cell_region_pinned():
    """Every strategy at seed 0 on each of the 880 holey 10-cell pairs:
    one digest over ``(cells, door, strategy, outcome kind, outcome t,
    total travel, total moves)``, a collision's t being the last step
    done. The local strategies deadlock or collide on every pair, which
    takes "FCDFS deadlocks on G(k)" to every small region with a hole;
    the baselines cover every pair, never with optimal travel."""
    digest = hashlib.sha256()
    outcomes = Counter()
    for cells, door, name, outcome, m in _holey_10_runs():
        row = (cells, door, name, outcome.kind, outcome.t, m.total_travel, m.total_moves)
        outcomes[name, m.outcome] += 1
        outcomes[name, "optimal"] += m.outcome == "covered" and m.optimal
        digest.update(repr(row).encode() + b"\n")
    local = {"deadlock": 715, "collision": 165, "optimal": 0}
    assert {name: {kind: outcomes[name, kind] for kind in local} for name in sorted(STRATEGIES)} == {
        "bflf": {"deadlock": 0, "collision": 0, "optimal": 0},
        "dflf": {"deadlock": 0, "collision": 0, "optimal": 0},
        "fcdfs": local,
        "fcdfs5": local,
        "left-hand": {"deadlock": 714, "collision": 166, "optimal": 0},
        "rand-corner": local,
    }
    assert outcomes["bflf", "covered"] == outcomes["dflf", "covered"] == 880
    assert digest.hexdigest() == HOLEY_10_DIGEST


def test_only_a_covered_run_is_optimal():
    """A run cut short is never ``optimal``, even when its robots have
    travelled exactly the optimum before it ended: on the holey 10-cell
    pairs 15 ``fcdfs`` and 20 ``left-hand`` collisions do."""
    exact = Counter()
    for _, _, name, outcome, m in _holey_10_runs():
        if outcome.kind != "covered":
            assert not m.optimal, (name, outcome)
            exact[name] += m.total_travel == m.optimum
    assert (exact["fcdfs"], exact["left-hand"]) == (15, 20)


@settings(max_examples=60, deadline=None)
@given(V=st.integers(2, 250), seed=st.integers(0, 2**20))
def test_local_attach_test_equals_the_flood_fill(V, seed):
    """Every candidate the generator draws is accepted by the local
    simple-point test exactly when the grown region stays simply
    connected by the global flood fill."""
    local = envgen._attachable
    verdicts = []

    def checked(cells, c):
        ok = local(cells, c)
        assert ok == is_simply_connected(Region(cells | {c}, (0, 0))), (sorted(cells), c)
        verdicts.append(ok)
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envgen, "_attachable", checked)
        r = random_simply_connected(V, seed)
    assert verdicts.count(True) == len(r.cells) - 1


def _brute_force_median(r):
    """One BFS per cell: every cell with the least distance sum."""
    sums = {v: sum(bfs_distances_cells(r.cells, v).values()) for v in r.cells}
    best = min(sums.values())
    return {v for v, s in sums.items() if s == best}


@settings(max_examples=100, deadline=None)
@given(
    V=st.integers(1, 200),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_geometric_median_equals_brute_force_on_generated_regions(V, seed, dx, dy):
    r = _moved(V, seed, dx, dy)
    assert geometric_median(r) == _brute_force_median(r)


@settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 14), h=st.integers(1, 14), data=st.data())
def test_geometric_median_equals_brute_force_on_rectangles(w, h, data):
    door = (data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1)))
    r = rect(w, h, door)
    assert geometric_median(r) == _brute_force_median(r)


def test_geometric_median_requires_simple_connectivity():
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    for r in (ring, g_k(1, 5)):
        with pytest.raises(DispersimError, match="geometric median is only computed for simply connected regions"):
            geometric_median(r)


@settings(max_examples=100, deadline=None)
@given(
    V=st.integers(1, 150),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_ascii_map_round_trips_at_its_origin(V, seed, dx, dy):
    r = _moved(V, seed, dx, dy)
    assert from_ascii(r.to_ascii(), (r.min_x, r.min_y)) == r


@settings(max_examples=60, deadline=None)
@given(
    V=st.integers(1, 150),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
    k=st.integers(2, 10),
)
def test_door_distances_are_the_door_bfs(V, seed, dx, dy, k):
    """A region keeps the BFS from its door that checks its connectivity:
    on a moved random region, on its ASCII round trip and on G(1, k) it
    equals a fresh BFS, it cannot be written, and a checked run leaves it
    as it was."""
    r = _moved(V, seed, dx, dy)
    for region in (r, from_ascii(r.to_ascii(), (r.min_x, r.min_y)), g_k(1, k)):
        fresh = bfs_distances(region, region.door)
        assert region.door_distances == fresh
        with pytest.raises(TypeError):
            region.door_distances[region.door] = 1
        if region.cells == r.cells:
            run(region, make_strategy("fcdfs", region, 0), record=False, check=True)
        else:  # G(k) has a hole, and FCDFS breaks its spacing lemma there
            with pytest.raises(InvariantViolation):
                run(region, make_strategy("fcdfs", region, 0), record=False, check=True)
        assert region.door_distances == fresh


class _NoDistances:
    """Stands in for RunChecker's map of BFS distances; any lookup fails."""

    def __contains__(self, a):
        raise AssertionError(f"pairwise BFS distances asked for from {a}")

    __getitem__ = __contains__


def _no_pairwise_check(t, active):
    raise AssertionError(f"t={t}: the pairwise spacing check ran")


@settings(max_examples=60, deadline=None)
@given(
    V=st.integers(1, 120),
    seed=st.integers(0, 2**20),
    strategy_seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_fcdfs_family_keeps_the_door_distance_schedule(V, seed, strategy_seed, dx, dy):
    """Every FCDFS robot travels a shortest path from the door: robot i,
    spawned at step 2i-1, is at door distance t - (2i - 1) at the end of
    step t. So the checker certifies the spacing lemma from the schedule
    alone and never falls back to comparing pairs or asking for a BFS
    distance."""
    r = _moved(V, seed, dx, dy)
    dist = bfs_distances(r, r.door)
    for name in ("fcdfs", "fcdfs5", "rand-corner"):
        checker = RunChecker(r)
        checker.dist = _NoDistances()
        checker._check_spacing = _no_pairwise_check
        sim = Simulation(r, make_strategy(name, r, strategy_seed), record=False, checker=checker)
        while sim.outcome is None:
            sim.step()
            for rb in sim.active:
                assert dist[rb.pos] == sim.t - (2 * rb.id - 1), (name, sim.t, rb.id)
        assert sim.outcome.kind == "covered" and sim.t == 2 * V - 1, name


@pytest.mark.parametrize("name", ["rand-corner", "left-hand"])
@settings(max_examples=100, deadline=None)
@given(
    V=st.integers(1, 120),
    seed=st.integers(0, 2**20),
    strategy_seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_variant_covers_in_2v_minus_1_with_optimal_travel(name, V, seed, strategy_seed, dx, dy):
    """Criterion 4 as a property: the variants disperse like FCDFS."""
    r = _moved(V, seed, dx, dy)
    _, m = run(r, make_strategy(name, r, strategy_seed), record=False)
    assert m.outcome == "covered"
    assert m.makespan == 2 * V - 1
    assert m.total_travel == m.optimum


def _tuple_space_mask(sim, cell):
    """The ring mask by its definition over cells: bit i is set when
    ``cell + RING[i]`` is not a region cell or holds a robot."""
    occupied = {rb.pos for rb in sim.robots}
    mask = 0
    for i, (dx, dy) in enumerate(RING):
        nb = (cell[0] + dx, cell[1] + dy)
        if nb not in sim.region.cells or nb in occupied:
            mask |= 1 << i
    return mask


def _assert_layout_matches_cells(r):
    """The region's layout numbers the padded bounding box one to one,
    ``cell_at`` reading back each region cell and None on padding and
    walls, ``door`` is the door's number, and its ``ring`` and ``dirs``
    step to the cells ``RING`` and ``DIR_VECTORS`` away, in that order. After every step of ``fcdfs`` and
    ``left-hand``, the int-indexed ring of every region cell equals its
    tuple-space definition, and every robot's ``idx`` numbers its
    ``pos``."""
    layout = r.layout
    assert layout.door == layout.index(r.door)
    box = [(x, y) for x in range(r.min_x - 1, r.max_x + 2) for y in range(r.min_y - 1, r.max_y + 2)]
    assert sorted(layout.index(c) for c in box) == list(range(len(layout.cell_at)))
    for c in box:
        assert layout.cell_at[layout.index(c)] == (c if c in r.cells else None), c
    x, y = r.door
    for offsets, vectors in ((layout.ring, RING), (layout.dirs, DIR_VECTORS)):
        assert [layout.index((x + dx, y + dy)) - layout.index(r.door) for dx, dy in vectors] == list(offsets)
    for name in ("fcdfs", "left-hand"):
        sim = Simulation(r, make_strategy(name, r, 0), record=False)
        while sim.outcome is None and sim.t < 4 * len(r.cells):
            sim.step()
            for cell in r.cells:
                assert sim.sense(cell) == _tuple_space_mask(sim, cell), (name, sim.t, cell)
            for robot in sim.robots:
                assert robot.idx == sim.layout.index(robot.pos), (name, sim.t, robot.id)


@settings(max_examples=40, deadline=None)
@given(
    V=st.integers(1, 60),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_int_layout_senses_like_tuple_space_on_generated_regions(V, seed, dx, dy):
    _assert_layout_matches_cells(_moved(V, seed, dx, dy))


def test_int_layout_senses_like_tuple_space_on_regions_with_holes():
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    for r in (ring, g_k(1, 5)):
        _assert_layout_matches_cells(r)

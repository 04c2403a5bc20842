import json
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dispersim import grid, topology
from dispersim.engine import (
    A_SETTLE,
    A_STAY,
    Outcome,
    Robot,
    Simulation,
    SimulationTrace,
    _LogPlayer,
    run,
)
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.errors import DispersimError, InvariantViolation
from dispersim.grid import (
    DIR_BITS, DIR_NAMES, DIR_VECTORS, DOWN, FREE_DIRS, LEFT, Region, UP, RIGHT, from_ascii, manhattan,
)
from dispersim.metrics import compute_metrics, run_metrics
from dispersim.render import ascii_frame, ascii_frames, frame_steps, heading
from dispersim.strategies import STRATEGIES, make_strategy
from dispersim.strategies.base import Strategy
from dispersim.strategies.fcdfs import RunChecker

from oracles import ReferenceRun, fixed_polyominoes, recorded, tuple_space_mask


def test_sensor_view_walls_and_robots_indistinguishable():
    r = rect(2, 1, (0, 0))
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    sim.step()  # spawns a robot at the door
    view = tuple_space_mask(sim, (1, 0))
    assert view & 1 << grid.RING.index((-1, 0))  # robot
    assert view & 1 << grid.RING.index((0, 1))  # wall
    assert view == 255
    assert FREE_DIRS[view] == ()
    # Bit i is RING[i], set by the cell's byte of ``blocked``: a wall,
    # padding or a robot, active or settled.
    r = rect(4, 4, (0, 0))
    sim = Simulation(r, make_strategy("fcdfs", r, 0), record=False)
    sim.finish(12)
    settled = [rb for rb in sim.robots if not rb.active]
    assert settled and sim.active
    for cell in r.cells:
        view = tuple_space_mask(sim, cell)
        for i, (dx, dy) in enumerate(grid.RING):
            nb = (cell[0] + dx, cell[1] + dy)
            assert view >> i & 1 == sim.blocked[sim.layout.index(nb)]


def test_spawn_every_other_step():
    r = rect(1, 9, (0, 0))
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    for _ in range(8):
        sim.step()
    assert recorded(sim.trace)[0] == [1, 3, 5, 7]


def test_corridor_run_is_covered_in_2v_minus_1():
    r = rect(1, 5, (0, 0))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    assert m.outcome == "covered"
    assert m.makespan == 9
    assert m.total_travel == 10 == m.optimum
    assert m.max_travel == 4
    assert trace.outcome.kind == "covered"


def test_single_cell_region():
    r = rect(1, 1, (0, 0))
    _, m = run(r, make_strategy("fcdfs", r, 0))
    assert m.outcome == "covered"
    assert m.makespan == 1
    assert m.total_travel == 0


class _Counter:
    def __init__(self):
        self.n = 0

    def key(self):
        return self.n


class _Climber(Strategy):
    """Moves up twice, then settles; the next robot up the column runs
    into it."""

    name = "climber"

    def fresh_memory(self):
        return _Counter()

    def decide(self, view, mem):
        mem.n += 1
        return UP if mem.n <= 2 else A_SETTLE


def test_moving_into_occupied_cell_collides():
    """A refused move ends the run at the last step done. Robot 1 settles
    at the top of the column at t=4, and robot 2, one cell below, moves
    into it at t=5."""
    r = rect(1, 3, (0, 0))
    sim = Simulation(r, _Climber())
    while sim.outcome is None:
        sim.step()
    assert sim.outcome == Outcome("collision", 4)
    assert sim.outcome.message == "t=5: robot 2 at (0, 1) moved U into occupied cell (0, 2)"


class _Walker(Strategy):
    """Always moves in ``direction``."""

    name = "walker"

    def __init__(self, direction):
        super().__init__()
        self.direction = direction

    def table_key(self):
        return (type(self), self.direction)

    def fresh_memory(self):
        return None

    def decide(self, view, mem):
        return self.direction


@pytest.mark.parametrize(
    "direction, door, target",
    [(UP, (0, 1), (0, 2)), (RIGHT, (0, 0), (1, 0)), (DOWN, (0, 0), (0, -1)), (LEFT, (0, 1), (-1, 1))],
)
def test_moving_off_a_corridor_edge_raises(direction, door, target):
    """Every cell of a 1-wide corridor touches the layout's padding; a
    move onto it is a collision that names the move and says it leaves
    the region, not that the wall cell is occupied."""
    r = rect(1, 2, door)
    assert target not in r.cells
    sim = Simulation(r, _Walker(direction))
    sim.step()  # robot 1 emerges at the door
    sim.step()
    assert sim.outcome == Outcome("collision", 1)
    assert sim.outcome.message == f"t=2: robot 1 at {door} moved {DIR_NAMES[direction]} off the region"


class _Heading:
    def __init__(self):
        self.d = None

    def key(self):
        return self.d


class _TwoWayRammer(Strategy):
    """Robots head for (1, 1) of a 2x2 block from both sides: robot 1 up
    from the door, robot 2 right. Each waits until the other is beside
    (1, 1), at ``RING[3]`` from (0, 1) or ``RING[7]`` from (1, 0), and
    then moves into it."""

    name = "tworam"

    def fresh_memory(self):
        return _Heading()

    def decide(self, view, mem):
        if mem.d is None:
            mem.d = UP if not view & DIR_BITS[UP] else RIGHT
            return mem.d
        if not view & (1 << 3 if mem.d == UP else 1 << 7):
            return A_STAY
        return RIGHT if mem.d == UP else UP


def test_simultaneous_same_target_collides():
    r = rect(2, 2, (0, 0))
    sim = Simulation(r, _TwoWayRammer())
    while sim.outcome is None:
        sim.step()
    assert [rb.pos for rb in sim.robots] == [(0, 1), (1, 0)]
    assert sim.outcome == Outcome("collision", 4)
    assert sim.outcome.message == "t=5: robots 1 and 2 both target (1, 1)"


def _state(sim):
    """Everything a refused step must leave as it was."""
    robots = [(rb.id, rb.pos, rb.idx, rb.spawned, rb.settled, rb.moves) for rb in sim.robots]
    spawns, logs = recorded(sim.trace)
    logs = [bytes(log) for log in logs]
    return (
        sim.t, bytes(sim.blocked), bytes(sim.residual), robots, [rb.id for rb in sim.active],
        list(spawns), logs,
    )


@pytest.mark.parametrize("extra", [-1, 1])
def test_decide_all_of_the_wrong_length_raises_before_anything_changes(extra):
    """Every active robot gets exactly one action: a list one short (here
    robot 1's action dropped at step 3) or one long stops the step before
    any robot moves, settles or spawns and before the trace grows."""
    r = rect(1, 6, (0, 0))
    strategy = make_strategy("fcdfs", r, 0)
    sim = Simulation(r, strategy)
    sim.step()
    sim.step()
    decide_all = strategy.decide_all

    def miscounted(sim):
        actions = decide_all(sim)
        return actions[:-1] if extra < 0 else actions + [A_STAY]

    strategy.decide_all = miscounted
    before = _state(sim)
    with pytest.raises(ValueError) as info:
        sim.step()
    assert str(info.value) == f"t=3: {1 + extra} actions for 1 active robots"
    assert _state(sim) == before


class _Scripted:
    """Plays ``script[t]``, the actions of the active robots at step t,
    and stays otherwise."""

    name = "scripted"
    seed = 0

    def __init__(self, script):
        self.script = script

    def decide_all(self, sim):
        return self.script.get(sim.t + 1, [A_STAY] * len(sim.active))

    def on_spawn(self, sim, robot):
        robot.mem = None


@pytest.mark.parametrize(
    "last, message",
    [
        ([UP, UP], "t=6: robot 3 at (0, 0) moved U into occupied cell (0, 1)"),
        ([UP, LEFT], "t=6: robot 3 at (0, 0) moved L off the region"),
        ([DOWN, RIGHT], "t=6: robots 2 and 3 both target (1, 0)"),
    ],
    ids=["into-occupied", "off-the-region", "one-target"],
)
def test_a_step_refused_for_a_collision_changes_nothing(last, message):
    """A move marks its target in ``blocked`` as it is checked. When a
    later move of the step collides, into a settled robot, off the
    region or onto a cell an earlier robot of the step targets, the
    run ends in a collision at the last step done, with the marks
    cleared: no robot has moved, settled or spawned, and the trace has
    not grown. Robot 1 settles at (0, 1) on a 2x4 square; robots 2 at
    (1, 1) and 3 at the door (0, 0) are active when robot 2's move is
    marked and robot 3's collides."""
    r = rect(2, 4, (0, 0))
    script = {2: [UP], 3: [A_SETTLE], 4: [RIGHT], 5: [UP], 6: last}
    sim = Simulation(r, _Scripted(script))
    for _ in range(5):
        sim.step()
    assert [(rb.id, rb.pos, rb.active) for rb in sim.robots] == [
        (1, (0, 1), False), (2, (1, 1), True), (3, (0, 0), True)
    ]
    before = _state(sim)
    sim.step()
    assert sim.outcome == Outcome("collision", 5)
    assert sim.outcome.message == message
    assert _state(sim) == before


def test_step_limit_outcome():
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    _, m = run(ring, make_strategy("left-hand", ring, 0), max_steps=3)
    assert m.outcome == "limit"


def test_deadlock_detected_on_ring():
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    trace, m = run(ring, make_strategy("fcdfs", ring, 0))
    assert m.outcome == "deadlock"
    assert trace.outcome.kind == "deadlock"


# (outcome, t) of runs that end in a deadlock, taken when the deadlock
# key still held each memory's key(); it now holds the interned memory.
DEADLOCK_STEPS_PINNED = [
    ("fcdfs", "ring", 0, 17),
    ("fcdfs5", "ring", 0, 16),
    ("rand-corner", "ring", 0, 17),
    ("left-hand", "ring", 0, 17),
    ("fcdfs", "g_k(1,5)", 0, 177),
    ("fcdfs5", "g_k(1,5)", 0, 176),
    ("rand-corner", "g_k(1,5)", 0, 177),
    ("left-hand", "g_k(1,5)", 0, 507),
    ("fcdfs", "g_k(2,5)", 0, 569),
    ("fcdfs5", "g_k(2,5)", 0, 568),
    ("rand-corner", "g_k(2,5)", 0, 569),
    ("left-hand", "g_k(2,5)", 0, 4319),
    ("fcdfs", "g_k(3,10)", 0, 1341),
    ("bflf", "rect(12,12,(5,5))", 69, 71),
]

PINNED_REGIONS = {
    "ring": lambda: Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0)),
    "g_k(1,5)": lambda: g_k(1, 5),
    "g_k(2,5)": lambda: g_k(2, 5),
    "g_k(2,20)": lambda: g_k(2, 20),
    "g_k(3,10)": lambda: g_k(3, 10),
    "rect(12,12,(5,5))": lambda: rect(12, 12, (5, 5)),
}


@pytest.mark.parametrize("name, region, seed, t", DEADLOCK_STEPS_PINNED)
def test_deadlock_steps_pinned(name, region, seed, t):
    r = PINNED_REGIONS[region]()
    trace, _ = run(r, make_strategy(name, r, seed), record=False)
    assert (trace.outcome.kind, trace.outcome.t) == ("deadlock", t)


def test_trace_json_shape():
    r = rect(2, 2, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    d = trace.to_json_dict()
    assert list(d) == ["env", "origin", "strategy", "seed", "robots", "outcome"]
    assert d["env"] == "..\nS."
    assert d["origin"] == [0, 0]
    assert d["strategy"] == "fcdfs"
    # One row per robot: its spawn step, then one letter per step after
    # it up to its settle ("X") or the end of the run; robot 4 emerged
    # on the last step.
    assert d["robots"] == [[1, "URX"], [3, "UX"], [5, "RX"], [7, ""]]
    assert d["outcome"] == {"kind": "covered", "t": 7}


def _json_round_trip(trace):
    return SimulationTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))


def test_trace_json_round_trip():
    r = rect(3, 2, (1, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    clone = _json_round_trip(trace)
    assert recorded(clone) == recorded(trace)
    assert clone.outcome == trace.outcome
    assert clone.region == trace.region


def test_trace_round_trip_keeps_a_negative_origin():
    r = random_simply_connected(40, seed=10)
    assert r.door == (0, 0) and (r.min_x, r.min_y) == (-3, -7)
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    clone = _json_round_trip(trace)
    assert clone.region == r
    assert (clone.region.min_x, clone.region.min_y) == (-3, -7)
    assert compute_metrics(clone, r) == m
    steps = range(1, trace.outcome.t + 1)
    assert list(ascii_frames(clone, steps)) == list(ascii_frames(trace, steps))


def _robot_records(trace):
    return [(rb.id, rb.spawned, rb.settled, rb.moves, rb.pos, bytes(rb.log)) for rb in trace.robots]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_read_trace_keeps_the_robots_of_the_run(name):
    """A recorded trace's robots are the run's own records, and a trace
    read back from JSON holds the robots of the run that checked it:
    the same spawn and settle steps, moves, cells and logs."""
    for r in (rect(7, 6, (3, 2)), random_simply_connected(70, 12), g_k(1, 5)):
        sim = Simulation(r, make_strategy(name, r, 1))
        sim.finish(4 * len(r.cells))
        assert sim.trace.robots is sim.robots
        back = _json_round_trip(sim.trace)
        assert _robot_records(back) == _robot_records(sim.trace), (name, r)


def test_run_without_recording_keeps_metrics():
    r = rect(4, 4, (0, 0))
    trace, m = run(r, make_strategy("fcdfs", r, 0), record=False)
    assert trace.robots is None
    assert m.outcome == "covered"
    assert m.makespan == 31
    with pytest.raises(ValueError, match="trace was recorded without logs"):
        trace.to_json_dict()


def test_trace_records_the_strategy_seed():
    r = rect(3, 3, (1, 1))
    sim = Simulation(r, make_strategy("rand-corner", r, 5))
    sim.finish(100)
    assert sim.trace.seed == 5
    assert sim.trace.to_json_dict()["seed"] == 5


def test_checker_accepts_fcdfs_and_flags_stay():
    r = rect(5, 5, (2, 2))
    _, m = run(r, make_strategy("fcdfs", r, 0), check=True)
    assert m.outcome == "covered"

    class Idler(Strategy):
        name = "idler"
        invariants = RunChecker

        def fresh_memory(self):
            return None

        def decide(self, view, mem):
            return A_STAY

    with pytest.raises(InvariantViolation):
        run(rect(2, 1, (0, 0)), Idler(), max_steps=5, check=True)


def test_checker_flags_settling_at_interior():
    class EagerSettler(Strategy):
        name = "eager"
        invariants = RunChecker

        def fresh_memory(self):
            return None

        def decide(self, view, mem):
            return A_SETTLE

    # Door in the middle of a corridor: an interior cell.
    with pytest.raises(InvariantViolation):
        run(rect(3, 1, (1, 0)), EagerSettler(), max_steps=5, check=True)


@pytest.mark.parametrize(
    "name, region",
    [("left-hand", rect(30, 30, (13, 13))), ("dflf", rect(30, 30, (13, 13))), ("bflf", rect(12, 12, (5, 5)))],
)
def test_check_on_a_strategy_without_invariants_changes_nothing(name, region):
    """The FCDFS lemmas do not hold for these strategies; a checked run
    must not apply them."""
    assert make_strategy(name, region, 0).invariants is None
    _, checked = run(region, make_strategy(name, region, 0), record=False, check=True)
    _, plain = run(region, make_strategy(name, region, 0), record=False)
    assert checked == plain
    assert checked.outcome == "covered"


# -- the active set ------------------------------------------------------

ACTIVE_SET_REGIONS = [rect(6, 6, (2, 2)), random_simply_connected(60, seed=7)]


def _step_to_end(sim):
    """Step ``sim`` to its end (or 4V steps), yielding after each step."""
    limit = 4 * len(sim.region.cells)
    while sim.outcome is None and sim.t < limit:
        sim.step()
        yield sim.t


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_active_list_is_the_active_robots_in_id_order(name):
    for r in ACTIVE_SET_REGIONS:
        sim = Simulation(r, make_strategy(name, r, 1), record=False)
        for _ in _step_to_end(sim):
            assert sim.active == [rb for rb in sim.robots if rb.active]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_settled_robots_are_never_decided(name):
    for r in ACTIVE_SET_REGIONS:
        strategy = make_strategy(name, r, 1)
        sim = Simulation(r, strategy, record=False)
        decided: list[int] = []
        decide_all = strategy.decide_all

        def checked_all(sim):
            actions = decide_all(sim)
            assert len(actions) == len(sim.active)
            decided.append(len(actions))
            return actions

        strategy.decide_all = checked_all
        settled_mems = {}  # robot id -> its memory when first seen settled
        for _ in _step_to_end(sim):
            for rb in sim.robots:
                if not rb.active:
                    assert settled_mems.setdefault(rb.id, rb.mem) is rb.mem
        assert decided
        # Every robot is decided exactly on the steps it is active.
        assert sum(decided) == sum(
            (sim.t if rb.active else rb.settled) - rb.spawned for rb in sim.robots
        )


@pytest.mark.parametrize("name", ["fcdfs", "fcdfs5", "rand-corner"])
def test_a_checked_run_adds_no_bfs(name, monkeypatch):
    """The optimum and the checker's door-distance schedule read the
    region's door distances: a checked run of the FCDFS family on a
    region built beforehand runs no BFS."""
    regions = [rect(9, 7, (4, 3)), random_simply_connected(150, 7)]
    calls = []
    real = grid.bfs_distances_cells

    def counted(cells, src):
        calls.append(src)
        return real(cells, src)

    for module in (grid, topology):  # topology imports it by name
        monkeypatch.setattr(module, "bfs_distances_cells", counted)
    for r in regions:
        _, m = run(r, make_strategy(name, r, 3), record=False, check=True)
        assert m.optimal, name
    assert calls == []
    assert sum(topology.bfs_distances(r, r.door).values()) == m.optimum
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_run_builds_no_layout(name, monkeypatch):
    """A region builds its layout once: a run on a region built
    beforehand, the engine's and a planner's part alike, builds none."""
    calls = []
    real = grid.Layout.__init__

    def counted(self, region):
        calls.append(region)
        real(self, region)

    monkeypatch.setattr(grid.Layout, "__init__", counted)
    regions = [rect(6, 5, (2, 1)), random_simply_connected(60, 4)]
    assert calls == regions
    for r in regions:
        run(r, make_strategy(name, r, 2))
        run(r, make_strategy(name, r, 3), record=False, check=True)
    assert calls == regions


def test_the_engine_and_the_planners_share_the_regions_layout():
    r = random_simply_connected(60, 4)
    assert Simulation(r, make_strategy("fcdfs", r, 0)).layout is r.layout
    for name in ("dflf", "bflf"):
        assert make_strategy(name, r, 1).layout is r.layout


def test_checker_residual_is_region_minus_settled_cells():
    for r in ACTIVE_SET_REGIONS:
        checker = RunChecker(r)
        sim = Simulation(r, make_strategy("fcdfs", r, 0), record=False, checker=checker)
        for _ in _step_to_end(sim):
            settled = {rb.pos for rb in sim.robots if not rb.active}
            assert checker.residual == set(r.cells) - settled
        assert sim.outcome.kind == "covered"


# The local strategies deadlock on G(1, 5) and collide on the holey
# region; the baselines cover both.
RESIDUAL_REGIONS = {
    "rect": rect(12, 12, (5, 5)),
    "random": random_simply_connected(60, seed=7),
    "g_k(1,5)": g_k(1, 5),
    "holey": grid.from_ascii("...#\n.#.#\n....\n###S"),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_residual_is_the_region_minus_the_settled_cells(name):
    """``sim.residual`` is 1 exactly at the region's layout ints minus the
    ``idx`` of every settled robot after every step, through a deadlock
    and up to a collision."""
    ends = {}
    for key, r in RESIDUAL_REGIONS.items():
        sim = Simulation(r, make_strategy(name, r, 1), record=False)
        cells = {sim.layout.index(c) for c in r.cells}
        while True:
            residual = {i for i, one in enumerate(sim.residual) if one}
            assert residual == cells - {rb.idx for rb in sim.robots if not rb.active}, (key, sim.t)
            if sim.outcome is not None or sim.t == 60 * len(r.cells):
                ends[key] = sim.outcome and sim.outcome.kind
                break
            sim.step()
    local = name not in ("bflf", "dflf")
    assert ends == {
        "rect": "covered",
        "random": "covered",
        "g_k(1,5)": "deadlock" if local else "covered",
        "holey": "collision" if local else "covered",
    }


# -- the action logs ----------------------------------------------------

RING = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
LOG_REGIONS = [rect(5, 4, (2, 1)), random_simply_connected(40, seed=10), RING]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_replay_rebuilds_every_step_of_the_run(name):
    """The state ``states`` rebuilds from the logs equals the engine's
    own robots after every step, on a rectangle, a region with a
    negative origin and the ring (where the local strategies
    deadlock)."""
    for r in LOG_REGIONS:
        sim = Simulation(r, make_strategy(name, r, 3), record=False)
        expected = [[(rb.id, rb.pos, rb.active) for rb in sim.robots] for _ in _step_to_end(sim)]
        trace, m = run(r, make_strategy(name, r, 3))
        steps = range(1, trace.outcome.t + 1)
        rebuilt = [[(rb.id, rb.pos, rb.active) for rb in robots] for _, robots in trace.states(steps)]
        assert rebuilt == expected, (name, r)
        assert trace.outcome.t == sim.t
        if sim.outcome is not None:
            assert trace.outcome == sim.outcome
        assert compute_metrics(trace, r) == m


def _rows(robots):
    return [(rb.id, rb.pos, heading(rb), rb.active, rb.moves) for rb in robots]


def _stepped_rows(sim, max_steps):
    """``_rows`` of the engine's own robots after each step of ``sim`` up
    to ``max_steps``, a robot's heading being the letter of its last
    move."""
    pos, headings, rows = {}, {}, []
    for t in _step_to_end(sim):
        for rb in sim.robots:
            if rb.id in pos and rb.pos != pos[rb.id]:
                dx, dy = rb.pos[0] - pos[rb.id][0], rb.pos[1] - pos[rb.id][1]
                headings[rb.id] = DIR_NAMES[DIR_VECTORS.index((dx, dy))]
            pos[rb.id] = rb.pos
        rows.append([(rb.id, rb.pos, headings.get(rb.id, "U"), rb.active, rb.moves) for rb in sim.robots])
        if t == max_steps:
            break
    return rows


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_frames_by_jumps_equal_frames_by_steps(name):
    """``ascii_frame`` at each step alone jumps every robot from its
    spawn; one dense ``ascii_frames`` pass over the trace read back from
    JSON advances one code per step. Both draw the same frames, and the
    robots they rebuild equal the engine's own, on runs with ring
    deadlocks, the baselines' stays and robots active at the end (the
    last run is cut short by ``max_steps``). Single frames of the read
    trace, latest first and then in order on the same trace object,
    draw the same again: no read leaves state behind for the next."""
    runs = [(r, None) for r in LOG_REGIONS] + [(LOG_REGIONS[0], 9)]
    for r, max_steps in runs:
        trace, m = run(r, make_strategy(name, r, 3), max_steps=max_steps)
        back = _json_round_trip(trace)
        steps = range(1, trace.outcome.t + 1)
        one_by_one = [ascii_frame(trace, t) for t in steps]
        assert [ascii_frame(back, t) for t in reversed(steps)] == one_by_one[::-1], (name, r)
        assert [ascii_frame(back, t) for t in steps] == one_by_one, (name, r)
        assert [frame for _, frame in ascii_frames(back, steps)] == one_by_one, (name, r)
        stepped = _stepped_rows(Simulation(r, make_strategy(name, r, 3), record=False), max_steps)
        assert [_rows(robots) for _, robots in back.states(steps)] == stepped
        assert [_rows(next(trace.states([t]))[1]) for t in steps] == stepped
        assert compute_metrics(back, r) == compute_metrics(trace, r) == m


def test_a_trace_read_while_its_run_goes_on_stays_right():
    """A trace taken from a run in progress and read before the run ends
    gives the robots of the finished run's own trace, and read again once
    the run is over it gives them at every step."""
    r = LOG_REGIONS[1]
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    trace = sim.trace
    for _ in range(30):
        sim.step()
    early = [_rows(robots) for _, robots in trace.states(range(1, 31))]
    sim.finish(4 * len(r.cells))
    done, _ = run(r, make_strategy("fcdfs", r, 0))
    steps = range(1, done.outcome.t + 1)
    rows = [_rows(robots) for _, robots in done.states(steps)]
    assert any(not active for _, _, _, active, _ in early[-1])  # a robot settled by step 30
    assert early == rows[:30]
    assert [_rows(robots) for _, robots in trace.states(steps)] == rows


def test_a_trace_whose_run_goes_on_has_no_outcome_to_read():
    """Every reader of a trace but ``states`` needs the run's outcome: on
    a run still going each raises ValueError saying so, and ``states``
    still reads it."""
    r = rect(4, 4, (1, 1))
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    sim.step()
    trace = sim.trace
    readers = (
        trace.to_json_dict,
        lambda: compute_metrics(trace, r),
        lambda: ascii_frame(trace, 1),
        lambda: frame_steps(trace, 1),
    )
    for read in readers:
        with pytest.raises(ValueError, match="the run has no outcome yet"):
            read()
    assert [(t, [rb.pos for rb in robots]) for t, robots in trace.states([1])] == [(1, [r.door])]


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_covered_run_ends_as_its_last_robot_emerges(name):
    """A run is covered once every cell holds a robot, settled or not: it
    ends at the step its V-th robot emerges, and that robot is still
    active on the door."""
    regions = (rect(5, 5, (2, 2)), rect(8, 8, (3, 4)), random_simply_connected(30, 0), random_simply_connected(60, 1))
    for r in regions:
        for seed in range(3):
            sim = Simulation(r, make_strategy(name, r, seed), record=False)
            sim.finish(4 * len(r.cells))
            last = sim.robots[-1]
            assert sim.outcome.kind == "covered", (r.door, seed, sim.outcome)
            assert (last.id, last.spawned, last.active, last.pos) == (len(r.cells), sim.outcome.t, True, r.door)


# Runs that end in a collision: fcdfs on a 3x4 map with one wall cell
# inside, and for each local strategy a holey 10-cell region and door.
COLLIDED_RUNS = [
    ("fcdfs", "#...\n#.#.\nS...", "t=10: robots 1 and 5 both target (1, 0)"),
    ("fcdfs", "...#\n.#.#\n....\n###S", "t=11: robots 1 and 5 both target (2, 1)"),
    ("fcdfs5", "...#\n.#.#\n...S\n###.", "t=12: robots 2 and 6 both target (2, 1)"),
    ("rand-corner", "#...\n#.#.\nS...\n###.", "t=12: robots 2 and 6 both target (1, 1)"),
    ("left-hand", "#...\n#.#.\n....\n###S", "t=12: robots 2 and 6 both target (3, 1)"),
]


@pytest.mark.parametrize("name, env, message", COLLIDED_RUNS)
def test_a_collided_run_keeps_a_usable_trace(name, env, message):
    """A collision ends a run as a deadlock does: its trace goes through
    JSON and back, recounts to the live run's metrics and draws one
    frame per step done."""
    r = grid.from_ascii(env)
    trace, m = run(r, make_strategy(name, r, 0))
    assert (trace.outcome.kind, trace.outcome.message, m.outcome) == ("collision", message, "collision")
    back = _json_round_trip(trace)
    assert back.outcome == trace.outcome
    assert compute_metrics(back, r) == m
    steps = range(1, trace.outcome.t + 1)
    frames = [frame for _, frame in ascii_frames(back, steps)]
    assert len(frames) == trace.outcome.t
    assert frames == [ascii_frame(trace, t) for t in steps]


def _corrupted(data):
    """``data`` with one defect, each paired with the error it must raise."""
    rows = data["robots"]
    # rows: [1, "URX"] [3, "UX"] [5, "RX"] [7, ""], covered at t=7;
    # robot 1 ends at (1,1), robot 2 at (0,1), robot 3 at (1,0).
    old = {k: v for k, v in data.items() if k != "robots"}
    rest = rows[1:]

    def robot1(actions):
        return {**data, "robots": [[1, actions]] + rest}

    def corridor(robots, t):  # "S..": the door at (0, 0), two cells right of it
        return {**data, "env": "S..", "robots": robots, "outcome": {"kind": "limit", "t": t}}

    collide = grid.from_ascii("#...\n#.#.\nS...")
    collided, _ = run(collide, make_strategy("fcdfs", collide, 0))  # refused at step 10

    return [
        ("no longer read", {**old, "steps": []}),
        ("no longer read", {**old, "events": [[1, 1, "+"], [2, 1, "U"]]}),
        ("t=3: the door is free, but the trace spawns robot 2 at step 1", {
            **data, "robots": [rows[0], [1, "UX"]] + rows[2:],
        }),
        ("t=1: the door is free, but the trace spawns robot 1 at step 0", {
            **data, "robots": [[0, "URX"]] + rest,
        }),
        ("robot 5 spawned at step 8, but the door is not free for it by step 7", {
            **data, "robots": rows + [[8, ""]],
        }),
        ("t=2: robot 1 at \\(0, 0\\) moved D off the region", robot1("DRX")),
        ("t=6: robot 3 at \\(0, 0\\) moved U into occupied cell \\(0, 1\\)", {
            **data, "robots": rows[:2] + [[5, "UX"], rows[3]],
        }),
        ("robot 1 has actions past its settle", robot1("URXU")),
        ("t=4: robot 1 is active but has no action", robot1("UR")),
        ("robot 4 has actions past the outcome at step 7", {**data, "robots": rows[:3] + [[7, "U"]]}),
        ("t=3: unknown action 'Q' for robot 1", robot1("UQX")),
        ("unknown action 'é'", robot1("Ué")),
        ("robot 2 spawned at step 2, but the door is not free for it by step 2", {
            **data, "robots": [[1, "."], [2, ""]], "outcome": {"kind": "limit", "t": 2},
        }),
        # Cells free only after this step's moves are still occupied.
        ("t=4: robot 2 at \\(0, 0\\) moved R into occupied cell \\(1, 0\\)", {
            **data, "robots": [[1, "R.U"], [3, "R"]], "outcome": {"kind": "limit", "t": 4},
        }),
        ("robot 2 spawned at step 2, but the door is not free for it by step 2", {
            **data, "robots": [[1, "R"], [2, ""]], "outcome": {"kind": "limit", "t": 2},
        }),
        ("t=7: the door is free, but the trace spawns no robot 4", {**data, "robots": rows[:-1]}),
        # The door is free at every step, yet nobody spawns.
        ("t=1: the door is free, but the trace spawns no robot 1", corridor([], 5)),
        # The first robot spawns late, although the door was free.
        ("t=1: the door is free, but the trace spawns robot 1 at step 3", corridor([[3, "X"]], 5)),
        # A robot settles on the door: a run deadlocks the step after.
        ("outcome limit at step 3000000, but the logs run to deadlock at step 3",
         corridor([[1, "X"]], 3_000_000)),
        # A deadlock read back matches only a step limit, not a cover.
        ("outcome deadlock at step 7, but the logs run to covered at step 7", {
            **data, "outcome": {"kind": "deadlock", "t": 7},
        }),
        # So does a collision: the step refused is in no log.
        ("outcome collision at step 7, but the logs run to covered at step 7", {
            **data, "outcome": {"kind": "collision", "t": 7},
        }),
        ("outcome covered at step 9, but the logs run to limit at step 9", {
            **collided.to_json_dict(), "outcome": {"kind": "covered", "t": 9},
        }),
        ("robot 2: a row is \\[spawn t, action letters\\]", {**data, "robots": [rows[0], [3]]}),
        ("robot 1: a row is", {**data, "robots": [[1, 85]]}),
        ("robot 1: a row is", {**data, "robots": [[True, "URX"]] + rest}),
        ("robots must be a list", {**data, "robots": "URX"}),
        ("strategy must be a string, got dict", {**data, "strategy": {"x": 1}}),
        ("seed must be an integer, got list", {**data, "seed": [1, 2]}),
        ("seed must be an integer, got bool", {**data, "seed": True}),
        ("origin must be two integers", {**data, "origin": [0]}),
        ("unknown outcome kind", {**data, "outcome": {"kind": "won", "t": 7}}),
        ("env must be", {**data, "env": None}),
        ("malformed trace", {**data, "outcome": None}),
        ("a trace is a JSON object", []),
    ]


def test_from_json_dict_rejects_inconsistent_traces():
    r = rect(2, 2, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    data = json.loads(json.dumps(trace.to_json_dict()))
    for message, bad in _corrupted(data):
        with pytest.raises(ValueError, match=message):
            SimulationTrace.from_json_dict(bad)
    back = SimulationTrace.from_json_dict(data)
    assert recorded(back) == recorded(trace)


def test_from_json_dict_work_is_bounded_by_the_data():
    """A trace under 200 bytes that claims three million idle steps is
    refused at the engine's deadlock, not stepped to its outcome."""
    data = {
        "env": "S..", "origin": [0, 0], "strategy": "fcdfs", "seed": 0,
        "robots": [[1, "X"]], "outcome": {"kind": "limit", "t": 3_000_000},
    }
    assert len(json.dumps(data)) < 200
    start = time.perf_counter()
    with pytest.raises(ValueError, match="deadlock at step 3"):
        SimulationTrace.from_json_dict(data)
    assert time.perf_counter() - start < 0.01


def test_a_declaring_strategy_takes_no_key_while_a_robot_is_active():
    """``dflf`` and the log player declare ``never_repeats_while_active``,
    so the seen keys stay empty after every step that ends with a robot
    active. Keyed every step instead, each run ends alike. A step with no
    robot active still takes its key, mapped to its step: a robot
    settled on the door deadlocks the step after."""
    regions = [rect(12, 12, (5, 5)), random_simply_connected(70, 31), g_k(1, 5)]
    trace, _ = run(regions[0], make_strategy("fcdfs", regions[0], 0))
    runs = [(r, lambda r=r, seed=seed: make_strategy("dflf", r, seed)) for r in regions for seed in range(3)]
    runs.append((regions[0], lambda: _LogPlayer([(rb.spawned, bytes(rb.log)) for rb in trace.robots])))
    for r, strategy in runs:
        ends = []
        for declared in (True, False):
            sim = Simulation(r, strategy(), record=False)
            assert sim.strategy.never_repeats_while_active
            sim.strategy.never_repeats_while_active = declared
            while sim.outcome is None:
                sim.step()
                if declared and sim.active:
                    assert not sim._seen_configs, (r.door, sim.t)
            ends.append(sim.outcome)
        assert ends[0] == ends[1] == Outcome("covered", 2 * len(r.cells) - 1), (r.door, ends)
    idle = Simulation(from_ascii("S.."), _LogPlayer([(1, bytes([A_SETTLE]))]), record=False)
    idle.finish(10)
    assert idle._seen_configs == {((), ()): 2}
    assert idle.outcome == Outcome("deadlock", 3)
    assert idle.outcome.message == "t=3: the configuration of step 2 repeats (period 1)"


@pytest.mark.parametrize("name, region, seed, t, first", [
    ("bflf", "rect(12,12,(5,5))", 69, 71, 69),
    ("fcdfs", "g_k(1,5)", 0, 177, 89),
    ("fcdfs", "g_k(2,20)", 0, 869, 435),
])
def test_a_deadlock_names_the_step_its_cycle_starts(name, region, seed, t, first):
    """A deadlock's message names the step its configuration was first
    seen and the period. That step is the one other step of the run with
    the same robots spawned, the same active and the same key."""
    r = PINNED_REGIONS[region]()
    sim = Simulation(r, make_strategy(name, r, seed), record=False)
    keys = {}
    while sim.outcome is None:
        sim.step()
        keys[sim.t] = (len(sim.robots), len(sim.active), sim._config_key())
    assert sim.outcome == Outcome("deadlock", t)
    assert sim.outcome.message == f"t={t}: the configuration of step {first} repeats (period {t - first})"
    assert [s for s in keys if keys[s] == keys[t]] == [first, t]


def test_a_deadlock_key_is_two_flat_tuples():
    """Every seen key is the active robots' cells, as ints, then their
    memories, each a flat tuple as long as ``active``: no tuple inside,
    and the memories themselves, in ``active`` order."""
    r = g_k(1, 5)
    sim = Simulation(r, make_strategy("fcdfs", r, 0), record=False)
    sizes = set()
    while sim.outcome is None:
        sim.step()
        n = len(sim.active)
        for key in sim._seen_configs:
            assert type(key) is tuple and len(key) == 2, sim.t
            cells, mems = key
            assert type(cells) is tuple and type(mems) is tuple, sim.t
            assert len(cells) == len(mems) == n, sim.t
            assert all(type(c) is int for c in cells), sim.t
            assert not any(isinstance(m, tuple) for m in mems), sim.t
        cells, mems = sim._config_key()
        assert cells == tuple(rb.idx for rb in sim.active)
        assert all(m is rb.mem for m, rb in zip(mems, sim.active, strict=True))
        sizes.add(n)
    assert sim.outcome == Outcome("deadlock", 177)
    assert len(sizes) > 1


class NaiveChecker:
    """The runtime invariants of RunChecker, with every piece of state
    rebuilt from all of ``sim.robots`` on every step."""

    def __init__(self, region):
        self.region = region
        self.positions: dict[int, list] = {}
        self.primaries: dict[int, object] = {}
        self.residual = None
        self.stepping = []  # the robots active at the start of the step

    def before_step(self, sim):
        t = sim.t + 1
        active = [rb for rb in sim.robots if rb.active]
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                bound = 2 * (b.id - a.id)
                if (
                    manhattan(a.pos, b.pos) < bound
                    and topology.bfs_distances(self.region, a.pos)[b.pos] < bound
                ):
                    raise InvariantViolation(
                        f"t={t}: robots {a.id} at {a.pos} and {b.id} at "
                        f"{b.pos} are closer than {bound}"
                    )
        self.residual = set(self.region.cells) - {rb.pos for rb in sim.robots if not rb.active}
        self.primaries = {rb.id: getattr(rb.mem, "primary", None) for rb in sim.robots}
        self.stepping = active

    def after_step(self, sim, actions, settled_now):
        t = sim.t
        for rb, act in zip(self.stepping, actions, strict=True):
            if act == A_STAY:
                raise InvariantViolation(f"t={t}: robot {rb.id} issued Stay")
        for rb in settled_now:
            kind = topology.classify_cells(self.residual, rb.pos)
            if kind != topology.CORNER:
                raise InvariantViolation(
                    f"t={t}: robot {rb.id} settled at {rb.pos}, a "
                    f"{kind} of the residual region"
                )
        for rb in sim.robots:
            before = self.primaries.get(rb.id)
            if before is None:
                continue
            after = rb.mem.primary
            if after is None or before == after:
                continue
            hist = self.positions.get(rb.id)
            at = hist[-1] if hist else rb.pos
            kind = topology.classify_cells(self.residual, at)
            if kind != topology.HALL:
                raise InvariantViolation(
                    f"t={t}: robot {rb.id} changed primary at {at}, a "
                    f"{kind} of the residual region"
                )
        for rb in sim.robots:
            pred = self.positions.get(rb.id - 1)
            own = self.positions.get(rb.id)
            if not pred or len(pred) < 2 or pred[-1] is None:
                continue
            if (not own or own[-1] is not None) and rb.pos != pred[0]:
                raise InvariantViolation(
                    f"t={t}: robot {rb.id} at {rb.pos} does not "
                    f"follow robot {rb.id - 1} (expected {pred[0]})"
                )
        for rb in sim.robots:
            hist = self.positions.setdefault(rb.id, [])
            hist.append(rb.pos if rb.active else None)
            del hist[:-2]


def _checked_outcome(region, name, seed, checker):
    """The metrics of ``name``'s run under ``checker``, which is attached
    whatever invariants the strategy declares, or the error that ended
    the run."""
    sim = Simulation(region, make_strategy(name, region, seed), record=False, checker=checker(region))
    try:
        sim.finish(4 * len(region.cells))
    except DispersimError as exc:
        return type(exc).__name__, str(exc)
    return run_metrics(region, sim.outcome, sim.robots)


def test_checker_agrees_with_naive_reference():
    rng = random.Random(2024)
    regions = [random_simply_connected(rng.randint(2, 150), seed=500 + i) for i in range(30)]
    outcomes = {}
    for i, r in enumerate(regions):
        for name in sorted(STRATEGIES):
            outcomes[i, name] = _checked_outcome(r, name, i, RunChecker)
    kinds = set()
    for i, r in enumerate(regions):
        for name in sorted(STRATEGIES):
            expected = _checked_outcome(r, name, i, NaiveChecker)
            assert outcomes[i, name] == expected, (i, name)
            kinds.add(type(expected).__name__)
    # Both verdicts occur, so the comparison covers passes and violations.
    assert kinds == {"RunMetrics", "tuple"}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_checker_fallback_agrees_with_naive_reference(name):
    """On regions with a hole the FCDFS family leaves its door-distance
    schedule, so the checker compares pairs one by one; its verdicts and
    messages must still equal the reference's."""
    for r in (RING, g_k(1, 5), g_k(2, 5)):
        expected = _checked_outcome(r, name, 0, NaiveChecker)
        assert _checked_outcome(r, name, 0, RunChecker) == expected, (name, len(r.cells))


def _late_emergence(checker):
    """Feed ``checker`` a hand-written run on a corridor: robot 1 walks up
    from the door, and robot 2 emerges one step late, at t=4, when robot 1
    stood at (0, 1) two step boundaries earlier."""
    sim = SimpleNamespace(t=0, robots=[], active=[])
    r1 = Robot(1, (0, 0), None)

    def step(moved_to, spawn):
        checker.before_step(sim)
        actions = []  # lined up with sim.active at the start of the step
        if moved_to is not None:
            r1.pos = moved_to
            actions.append(UP)
        sim.t += 1
        if spawn is not None:
            sim.robots.append(spawn)
            sim.active.append(spawn)
        checker.after_step(sim, actions, [])

    step(None, r1)
    step((0, 1), None)
    step((0, 2), None)
    step((0, 3), Robot(2, (0, 0), None))


def test_checker_follow_the_leader_covers_the_robot_spawned_this_step():
    r = rect(1, 5, (0, 0))
    messages = []
    for checker in (RunChecker(r), NaiveChecker(r)):
        with pytest.raises(InvariantViolation) as info:
            _late_emergence(checker)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == "t=4: robot 2 at (0, 0) does not follow robot 1 (expected (0, 1))"


def _stray_and_wrong_redirect(checker):
    """Feed ``checker`` a hand-written run on a corridor in which, at t=6,
    robot 2 stops following robot 1 and robot 3, behind it, turns its
    primary at the door, a corner."""
    sim = SimpleNamespace(t=0, robots=[], active=[])

    def step(moves, spawn=None, turn=None):
        checker.before_step(sim)
        actions = [UP] * len(sim.active)  # lined up with sim.active at the start of the step
        for robot, pos in zip(sim.active, moves):
            robot.pos = pos
        if turn is not None:
            turn.mem = SimpleNamespace(primary=RIGHT)
        sim.t += 1
        if spawn is not None:
            sim.robots.append(spawn)
            sim.active.append(spawn)
        checker.after_step(sim, actions, [])

    r1, r2, r3 = (Robot(i, (0, 0), SimpleNamespace(primary=UP)) for i in (1, 2, 3))
    step([], r1)
    step([(0, 1)])
    step([(0, 2)], r2)
    step([(0, 3), (0, 1)])
    step([(0, 4), (0, 2)], r3)
    step([(0, 5), (0, 2), (0, 1)], turn=r3)


def test_checker_raises_a_wrong_redirect_before_a_stray():
    """The checks of one step raise in a fixed order: every robot's
    redirect before any robot's follow-the-leader, whatever their ids."""
    r = rect(1, 8, (0, 0))
    messages = []
    for checker in (RunChecker(r), NaiveChecker(r)):
        with pytest.raises(InvariantViolation) as info:
            _stray_and_wrong_redirect(checker)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == "t=6: robot 3 changed primary at (0, 0), a corner of the residual region"


# -- One loop: step() by hand and finish() run the same steps. -------------

COLLIDE_MAP = "#...\n#.#.\nS..."


def _run_record(sim):
    robots = [
        (rb.id, rb.pos, rb.idx, rb.spawned, rb.settled, rb.moves, rb.mem, bytes(rb.log)) for rb in sim.robots
    ]
    return robots, bytes(sim.blocked), bytes(sim.residual), sim.outcome, sim.outcome.message


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize(
    "region",
    [rect(12, 12, (5, 5)), random_simply_connected(90, 4), g_k(1, 5), from_ascii(COLLIDE_MAP)],
    ids=["square", "random", "g1_5", "collide"],
)
def test_stepping_by_hand_equals_finish(name, region):
    """``step()`` advances one iteration of the loop ``finish`` runs, so
    a run stepped by hand ends with the same robots, logs, memories and
    outcome as one run to its end at once. Its trace is built from the
    run, so before any ``finish()`` it holds the run's outcome and reads
    back through JSON to the same robots."""
    limit = 4 * len(region.cells)
    by_hand = Simulation(region, make_strategy(name, region, 3))
    while by_hand.outcome is None and by_hand.t < limit:
        by_hand.step()
    assert by_hand.outcome is not None
    assert by_hand.trace.outcome == by_hand.outcome
    assert _robot_records(_json_round_trip(by_hand.trace)) == _robot_records(by_hand.trace)
    by_hand.finish(limit)
    at_once = Simulation(region, make_strategy(name, region, 3))
    at_once.finish(limit)
    assert _run_record(by_hand) == _run_record(at_once)
    assert by_hand.trace.outcome == at_once.trace.outcome == at_once.outcome


# -- The engine against the reference stepper of tests/oracles.py. ---------

# The codes a script draws: the four moves, a stay, a settle, and
# FREE_MOVE, played as a move to the first 4-neighbor free in the
# snapshot (a stay when there is none), which keeps runs going.
FREE_MOVE = 6
SCRIPT_CODES = (UP, RIGHT, DOWN, LEFT, A_STAY, A_SETTLE, FREE_MOVE)
# Mostly free moves: many robots active and moving when a move collides.
MOSTLY_FREE = SCRIPT_CODES + (FREE_MOVE,) * 10

SMALL_REGIONS = [
    rect(1, 1, (0, 0)),
    rect(3, 1, (1, 0)),
    rect(2, 2, (0, 0)),
    rect(3, 2, (1, 0)),
    rect(3, 3, (1, 1)),
    rect(4, 3, (0, 0)),
    rect(4, 4, (0, 0)),
    rect(5, 2, (2, 0)),
    from_ascii(COLLIDE_MAP),
    from_ascii("...\n.#.\nS.."),
    random_simply_connected(8, 0),
    random_simply_connected(12, 1),
]


class _Stream:
    """Plays a stream of ``(code, memory)`` choices, one per active robot
    per step in id order. ``played`` holds the last step's ``(action,
    memory)`` pairs, FREE_MOVE resolved. A robot spawns with memory 0."""

    name = "stream"
    seed = 0

    def __init__(self, choices):
        self.choices = choices
        self.used = 0
        self.played = []

    def decide_all(self, sim):
        batch = self.choices[self.used : self.used + len(sim.active)]
        self.used += len(batch)
        self.played = []
        for robot, (code, mem) in zip(sim.active, batch):
            if code == FREE_MOVE:
                free = FREE_DIRS[tuple_space_mask(sim, robot.pos)]
                code = free[0] if free else A_STAY
            robot.mem = mem
            self.played.append((code, mem))
        return [act for act, _ in self.played]

    def on_spawn(self, sim, robot):
        robot.mem = 0


def _engine_state(sim):
    robots = [(rb.id, rb.pos, rb.idx, rb.spawned, rb.moves, rb.settled, bytes(rb.log)) for rb in sim.robots]
    outcome = sim.outcome and (sim.outcome.kind, sim.outcome.t, sim.outcome.message)
    return robots, bytes(sim.blocked), bytes(sim.residual), outcome


def _reference_state(ref, layout):
    index = layout.index
    robots = [(rb.id, rb.pos, index(rb.pos), rb.spawned, rb.moves, rb.settled, bytes(rb.log)) for rb in ref.robots]
    occupied = {rb.pos for rb in ref.robots}
    settled = {rb.pos for rb in ref.robots if rb.settled is not None}
    blocked = bytes(cell is None or cell in occupied for cell in layout.cell_at)
    residual = bytes(cell is not None and cell not in settled for cell in layout.cell_at)
    return robots, blocked, residual, ref.outcome


def _play_against_reference(region, choices) -> str | None:
    """Step the engine and ``ReferenceRun`` through ``choices`` until the
    run ends or the choices run out, and compare them after every step:
    every robot's id, cell, index, spawn step, moves, settle step and
    log, ``blocked``, ``residual`` and the outcome with its message.
    Returns the outcome's kind, None when the choices ran out."""
    strategy = _Stream(choices)
    sim = Simulation(region, strategy)
    ref = ReferenceRun(region)
    while sim.outcome is None and strategy.used + len(sim.active) <= len(choices):
        sim.step()
        ref.step(strategy.played)
        assert _engine_state(sim) == _reference_state(ref, region.layout), (sim.t, strategy.played)
    return sim.outcome and sim.outcome.kind


@settings(max_examples=300, deadline=None)
@given(
    region=st.sampled_from(SMALL_REGIONS),
    choices=st.lists(st.tuples(st.sampled_from(MOSTLY_FREE), st.integers(0, 1)), min_size=50, max_size=200),
)
# Robot 1 leaves (1, 0), and robot 2 may not enter it in the same step.
@example(region=SMALL_REGIONS[2], choices=[(RIGHT, 0), (A_STAY, 1), (UP, 0), (RIGHT, 0)])
# Robots 1 and 2 move, and robot 3's move off the region undoes both.
@example(
    region=SMALL_REGIONS[5],
    choices=[(RIGHT, 0), (UP, 0), (RIGHT, 0), (UP, 0), (UP, 0), (RIGHT, 0), (RIGHT, 0), (RIGHT, 0), (DOWN, 0)],
)
def test_the_engine_steps_as_the_reference_stepper(region, choices):
    """Scripts of stays, settles and moves, into free cells, off the
    region, into occupied cells, into cells left in the same step and
    onto one target, step the engine as the naive reference of
    ``oracles.ReferenceRun`` does."""
    _play_against_reference(region, choices)


def check_engine_against_reference(max_cells: int) -> int:
    """The reference stepper check on every fixed polyomino of at most
    ``max_cells`` cells, holey ones included, from every door: two
    seeded scripts of 200 choices each, one drawing every code alike and
    one ``MOSTLY_FREE``, so that runs also cover and deadlock. Returns
    the number of runs. CI's deep run calls it beyond tier-1's bound:
    ``PYTHONPATH=src:tests python -c "from test_engine import
    check_engine_against_reference as c; assert c(9) == 236_040"``."""
    count = 0
    for cells in fixed_polyominoes(max_cells):
        for door in sorted(cells):
            r = Region(cells, door)
            for codes in (SCRIPT_CODES, MOSTLY_FREE):
                rng = random.Random(count)
                choices = [(rng.choice(codes), rng.randrange(2)) for _ in range(200)]
                _play_against_reference(r, choices)
                count += 1
    return count


def test_the_engine_steps_as_the_reference_on_every_small_polyomino():
    assert check_engine_against_reference(5) == 828

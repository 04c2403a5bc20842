import copy
import hashlib
import itertools
import random
from dataclasses import astuple
from types import SimpleNamespace

import pytest

from dispersim.engine import A_SETTLE, A_STAY, Robot, Simulation, run
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.grid import DIR_BITS, DOWN, LEFT, RIGHT, RING, UP, Region
from dispersim.strategies import STRATEGIES, make_strategy
from dispersim.strategies.base import Strategy
from dispersim.strategies.fcdfs import DIAG_BITS, FcdfsMemory, RunChecker, diag_offset
from dispersim.strategies.fivebit import FiveBitMemory

from oracles import recorded, tuple_space_mask


def test_registry_names():
    assert set(STRATEGIES) == {
        "fcdfs",
        "fcdfs5",
        "rand-corner",
        "left-hand",
        "dflf",
        "bflf",
    }
    # Only the leader-follower baselines see more than a ring mask.
    planners = {n for n, cls in STRATEGIES.items() if cls.decide_all is not Strategy.decide_all}
    assert planners == {"dflf", "bflf"}
    checked = {n for n, cls in STRATEGIES.items() if cls.invariants is RunChecker}
    assert checked == {"fcdfs", "fcdfs5", "rand-corner"}
    assert all(cls.invariants is None for n, cls in STRATEGIES.items() if n not in checked)


def test_diag_offset_is_135_ccw_of_primary():
    assert diag_offset(UP) == (-1, -1)
    assert diag_offset(RIGHT) == (-1, 1)
    assert diag_offset(DOWN) == (1, 1)
    assert diag_offset(LEFT) == (1, -1)
    for p in (UP, RIGHT, DOWN, LEFT):
        assert RING[(2 * p + 5) % 8] == diag_offset(p)
        assert DIAG_BITS[p] == 1 << (2 * p + 5) % 8


def test_initial_primary_clockwise_from_up():
    # Door at the bottom-left of a square: Up is free and chosen first.
    r = rect(3, 3, (0, 0))
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    sim.step()
    sim.step()
    robot = sim.robots[0]
    assert robot.mem.primary == UP
    assert robot.pos == (0, 1)


def test_single_free_direction_forces_move():
    r = rect(2, 1, (0, 0))
    sim = Simulation(r, make_strategy("fcdfs", r, 0))
    sim.step()
    sim.step()
    assert sim.robots[0].pos == (1, 0)
    assert sim.robots[0].mem.primary == RIGHT


def test_five_bit_memory_is_five_bits():
    m = FiveBitMemory()
    assert m.key() == (0, 0, 0, 0)  # b12 packed, then b3, b4, b5
    m.b12, m.b3, m.b4, m.b5 = 3, 1, 0, 1
    assert all(v in (0, 1, 2, 3) for v in m.key())


def test_five_bit_automaton_exhaustive():
    # The whole input space: 32 states times 256 ring masks.
    strat = make_strategy("fcdfs5", None, 0)
    for b12, b3, b4, b5, view in itertools.product(range(4), (0, 1), (0, 1), (0, 1), range(256)):
        m = FiveBitMemory()
        m.b12, m.b3, m.b4, m.b5 = b12, b3, b4, b5
        act = strat.decide(view, m)
        state = (b12, b3, b4, b5, view)
        assert act == A_SETTLE or (act in range(4) and not view & DIR_BITS[act]), state
        assert m.b12 in range(4) and {m.b3, m.b4, m.b5} <= {0, 1}, state


# SHA-256 over repr((action, next state)) for all 8,192 (state, mask)
# inputs in itertools.product order, computed on the original rule with
# its candidate scan and unreachable branches.
FIVE_BIT_TRANSITIONS_PINNED = "faacedcb9bd9f82d7a53f79ddb89ef4d8c1cda7a20b190da9adf83c9c1a6b097"


def test_five_bit_transition_function_pinned():
    strat = make_strategy("fcdfs5", None, 0)
    h = hashlib.sha256()
    for b12, b3, b4, b5, view in itertools.product(range(4), (0, 1), (0, 1), (0, 1), range(256)):
        m = FiveBitMemory()
        m.b12, m.b3, m.b4, m.b5 = b12, b3, b4, b5
        act = strat.decide(view, m)
        h.update(repr((act, m.key())).encode())
    assert h.hexdigest() == FIVE_BIT_TRANSITIONS_PINNED


def test_fcdfs_and_five_bit_agree_on_small_regions():
    rng = random.Random(7)
    for i in range(25):
        r = random_simply_connected(rng.randint(2, 80), seed=500 + i)
        t1, m1 = run(r, make_strategy("fcdfs", r, 0))
        t2, m2 = run(r, make_strategy("fcdfs5", r, 0))
        assert recorded(t1) == recorded(t2)
        assert t1.outcome == t2.outcome
        assert m1 == m2


def test_rand_corner_rotations_cover_and_differ():
    r = rect(8, 8, (4, 4))
    seen_first_moves = set()
    for seed in range(8):
        trace, m = run(r, make_strategy("rand-corner", r, seed))
        assert m.outcome == "covered"
        assert m.total_travel == m.optimum
        assert m.makespan == 2 * len(r.cells) - 1
        # Robot 1 spawns at t=1 and moves first at t=2.
        spawns, logs = recorded(trace)
        assert spawns[0] == 1
        first = logs[0][0]
        assert first < A_STAY
        seen_first_moves.add(first)
    assert len(seen_first_moves) > 1  # the rotation draw actually varies


def test_rand_corner_deterministic_per_seed():
    r = rect(6, 6, (0, 0))
    a, _ = run(r, make_strategy("rand-corner", r, 3))
    b, _ = run(r, make_strategy("rand-corner", r, 3))
    assert recorded(a) == recorded(b)
    assert a.outcome == b.outcome


def test_left_hand_l_tromino():
    tromino = Region({(0, 0), (0, 1), (1, 0)}, (0, 1))
    _, m = run(tromino, make_strategy("left-hand", tromino, 0))
    assert m.outcome == "covered"
    assert m.makespan == 5


def test_left_hand_follows_wall_straight():
    # Corridor heading right with the wall on the left side: no turns.
    r = rect(5, 2, (0, 1))
    trace, m = run(r, make_strategy("left-hand", r, 0))
    assert m.outcome == "covered"
    assert m.total_travel == m.optimum


def test_settle_when_fully_enclosed():
    r = rect(1, 1, (0, 0))
    for name in ("fcdfs", "fcdfs5", "rand-corner", "left-hand"):
        sim = Simulation(r, make_strategy(name, r, 0))
        sim.step()
        assert sim.outcome.kind == "covered"


def test_memory_key_reflects_state():
    r = rect(3, 1, (0, 0))
    strat = make_strategy("fcdfs", r, 0)
    m = strat.fresh_memory()
    k0 = m.key()
    act = strat.decide(tuple_space_mask(Simulation(r, strat), (0, 0)), m)
    assert act == RIGHT
    assert m.key() != k0


# Every local rule: rand-corner once per rotation of its initial scan.
LOCAL_RULES = [("fcdfs", None), ("fcdfs5", None), ("left-hand", None)] + [
    ("rand-corner", rotation) for rotation in range(4)
]


def _local_strategy(name, rotation):
    if rotation is None:
        return make_strategy(name, None, 0)
    seed = next(s for s in range(100) if make_strategy(name, None, s).rotation == rotation)
    return make_strategy(name, None, seed)


# A 3x3 layout stand-in, cell 4 at its centre: the ring's offsets and
# a ``blocked`` that spells out a view around that cell.
_RING_3X3 = tuple(dx + 3 * dy for dx, dy in RING)


def _blocked_3x3(view):
    blocked = [0] * 9
    for i, offset in enumerate(_RING_3X3):
        blocked[4 + offset] = view >> i & 1
    return blocked


def _table_entry(strategy, mem, view):
    """The (action, next memory) the default decide_all gives a robot
    holding ``mem`` that senses ``view``, read from a 3x3 ``blocked``."""
    robot = Robot(1, (0, 0), mem, 4)
    sim = SimpleNamespace(active=[robot], blocked=_blocked_3x3(view), layout=SimpleNamespace(ring=_RING_3X3))
    actions = strategy.decide_all(sim)
    assert len(actions) == 1
    return actions[0], robot.mem


@pytest.mark.parametrize("name, rotation", LOCAL_RULES)
def test_transition_table_matches_the_rule(name, rotation):
    """From the fresh memory, close over all 256 masks: every reached
    (memory, mask) pair reads from the table what ``decide`` gives on a
    copy, and each key has one canonical memory."""
    strategy = _local_strategy(name, rotation)
    robot = Robot(1, (0, 0), None, 0)
    strategy.on_spawn(None, robot)
    canonical = {robot.mem.key(): robot.mem}
    todo = [robot.mem]
    while todo:
        mem = todo.pop()
        for view in range(256):
            expected = copy.deepcopy(mem)
            expected_action = strategy.decide(view, expected)
            action, after = _table_entry(strategy, mem, view)
            assert (action, after.key()) == (expected_action, expected.key()), (mem.key(), view)
            if after.key() not in canonical:
                canonical[after.key()] = after
                todo.append(after)
            assert canonical[after.key()] is after
            assert _table_entry(strategy, mem, view) == (action, after)
    assert len(canonical) > 1
    # Filling the table changed no canonical memory.
    assert all(mem.key() == key for key, mem in canonical.items())


def _turn_offset(offset, k):
    """``offset`` turned k quarter turns clockwise, None staying None."""
    if offset is None:
        return None
    dx, dy = offset
    for _ in range(k):
        dx, dy = dy, -dx
    return dx, dy


def _turn_memory(mem, k):
    turned = FcdfsMemory()
    turned.primary = None if mem.primary is None else (mem.primary + k) % 4
    turned.prev = _turn_offset(mem.prev, k)
    turned.prev2 = _turn_offset(mem.prev2, k)
    return turned


def test_rand_corner_is_fcdfs_turned():
    """``rand-corner`` at rotation k decides every turned input as
    ``fcdfs`` decides the original, turned k quarter turns clockwise.
    Turning rotates a view's ring bits 2k places, adds k to the primary
    and to a move code, and turns the memory's two offsets. Every memory
    ``fcdfs`` reaches from the fresh one, a turn of itself, is checked
    under all 256 views, so by induction over the steps ``rand-corner``
    at rotation k runs on every region as ``fcdfs`` does on that region
    turned k quarter turns counter-clockwise."""
    fcdfs = make_strategy("fcdfs", None, 0)
    fresh = fcdfs.fresh_memory()
    reached = {fresh.key(): fresh}
    todo = [fresh]
    while todo:
        mem = todo.pop()
        for view in range(256):
            after = copy.copy(mem)
            fcdfs.decide(view, after)
            if after.key() not in reached:
                reached[after.key()] = after
                todo.append(after)
    assert len(reached) == 25
    assert _turn_memory(fresh, 1).key() == fresh.key()
    checked = 0
    for k in range(4):
        turned_rule = _local_strategy("rand-corner", k)
        for mem in reached.values():
            for view in range(256):
                after = copy.copy(mem)
                action = fcdfs.decide(view, after)
                turned_view = (view << 2 * k | view >> 8 - 2 * k) & 255
                turned_after = _turn_memory(mem, k)
                turned_action = turned_rule.decide(turned_view, turned_after)
                expected = action if action in (A_STAY, A_SETTLE) else (action + k) % 4
                assert (turned_action, turned_after.key()) == (expected, _turn_memory(after, k).key()), (
                    k, mem.key(), view,
                )
                checked += 1
    assert checked == 25_600


@pytest.mark.parametrize("name", ["fcdfs", "fcdfs5", "rand-corner", "left-hand"])
def test_a_run_shares_memories_and_changes_none(name):
    for r in (rect(12, 12, (5, 5)), g_k(1, 5)):
        sim = Simulation(r, make_strategy(name, r, 1), record=False)
        first_seen = {}  # id(memory) -> (memory, its key when first seen)
        while sim.outcome is None and sim.t < 4 * len(r.cells):
            sim.step()
            by_key = {}
            for rb in sim.robots:
                first_seen.setdefault(id(rb.mem), (rb.mem, rb.mem.key()))
                assert by_key.setdefault(rb.mem.key(), rb.mem) is rb.mem
        assert all(mem.key() == key for mem, key in first_seen.values())
        assert len(first_seen) < len(sim.robots)


LOCAL_NAMES = sorted(n for n, cls in STRATEGIES.items() if cls.decide_all is Strategy.decide_all)


class _ViewsRead:
    """A transition table's rows that record every view read from them,
    in order, and fill entries as the table's own rows do."""

    def __init__(self, rows, views):
        self.rows = rows
        self.views = views

    def __getitem__(self, mem):
        return _RowRead(self.rows[mem], self.views)


class _RowRead:
    def __init__(self, row, views):
        self.row = row
        self.views = views

    def __getitem__(self, view):
        self.views.append(view)
        return self.row[view]

    def __setitem__(self, view, entry):
        self.row[view] = entry


@pytest.mark.parametrize("name", LOCAL_NAMES)
def test_the_inline_ring_read_is_sense(name):
    """The default decide_all reads each robot's ring from ``blocked``
    itself, the package's one ring read; the view it reads is the
    tuple-space view of the robot's cell for every active robot at every
    step."""
    for r in (rect(12, 12, (5, 5)), g_k(1, 5), random_simply_connected(90, 4)):
        strategy = make_strategy(name, r, 2)
        table = strategy._table
        views = []
        strategy._table = SimpleNamespace(rows=_ViewsRead(table.rows, views), intern=table.intern, fresh=table.fresh)
        sim = Simulation(r, strategy, record=False)
        read = 0
        while sim.outcome is None and sim.t < 4 * len(r.cells):
            sensed = [tuple_space_mask(sim, rb.pos) for rb in sim.active]
            views.clear()
            sim.step()
            assert views == sensed, (r, sim.t)
            read += len(views)
        assert read > len(r.cells)


def _spawned_memory(strategy):
    robot = Robot(1, (0, 0), None, 0)
    strategy.on_spawn(None, robot)
    return robot.mem


def test_instances_with_one_key_share_canonical_memories():
    a = make_strategy("fcdfs", rect(12, 12, (5, 5)), 0)
    b = make_strategy("fcdfs", g_k(1, 5), 0)
    assert a.table_key() == b.table_key()
    fresh = _spawned_memory(a)
    assert _spawned_memory(b) is fresh
    for view in range(256):
        assert _table_entry(a, fresh, view)[1] is _table_entry(b, fresh, view)[1]


@pytest.mark.parametrize("name", LOCAL_NAMES)
def test_a_second_identical_run_decides_nothing(name, monkeypatch):
    """The first run fills the rule's table; a second run of the same
    rule on the same region reads every step from it."""
    regions = (rect(12, 12, (5, 5)), g_k(1, 5))
    first = [run(r, make_strategy(name, r, 1)) for r in regions]
    cls = STRATEGIES[name]
    decide = cls.decide
    calls = []

    def counting(self, view, mem):
        calls.append(view)
        return decide(self, view, mem)

    monkeypatch.setattr(cls, "decide", counting)
    second = [run(r, make_strategy(name, r, 1)) for r in regions]
    assert calls == []
    for (t1, m1), (t2, m2) in zip(first, second):
        assert (recorded(t1), t1.outcome, m1) == (recorded(t2), t2.outcome, m2)


def test_rules_with_different_constants_share_no_row():
    """rand-corner at each rotation and fcdfs: five tables, no row or
    memory in two of them, and each rotation's first move its own."""
    strategies = [_local_strategy("rand-corner", rotation) for rotation in range(4)]
    strategies.append(make_strategy("fcdfs", None, 0))
    r = rect(6, 6, (2, 2))
    for strategy in strategies:
        run(r, strategy)
        # The first step from the door of an open square: rotation's direction.
        assert _table_entry(strategy, _spawned_memory(strategy), 0)[0] == strategy.rotation
    tables = [strategy._table for strategy in strategies]
    assert len({id(table) for table in tables}) == len(tables)
    rows = [id(row) for table in tables for row in table.rows.values()]
    memories = [id(mem) for table in tables for mem in table.rows]
    assert len(set(rows)) == len(rows) and len(set(memories)) == len(memories)


@pytest.mark.parametrize("name", LOCAL_NAMES)
def test_the_table_key_names_every_constant(name):
    """Two instances with one table key differ in nothing but their seed
    and table handle, so no constant that ``decide`` might read is left
    out of the key."""
    by_key = {}
    for seed in range(16):
        r = rect(4, 4, (1, 1)) if seed % 2 else g_k(1, 5)
        strategy = make_strategy(name, r, seed)
        _spawned_memory(strategy)
        attrs = {k: v for k, v in vars(strategy).items() if k not in ("seed", "_table")}
        assert by_key.setdefault(strategy.table_key(), attrs) == attrs, seed
    if name == "rand-corner":
        assert len(by_key) == 4


# One digest per (strategy, seed) over the per-robot rows (spawn step,
# action log) and the metrics of every run. The rows' digests were taken
# where the event-list digests of before the ring-mask strategies still
# held.
VARIANTS_PINNED = {
    ("rand-corner", 0): "4220f27cee6be83dc9ff9d699655f6215ab0efb60861401120b5bf094f0f0d5a",
    ("rand-corner", 3): "2eb2f4305d7c54d75f5c516db1d1dd2ae9dc510a2eea5a4a571bfb1c2830da12",
    ("left-hand", 0): "f4444cf05375ae870576a4b870bee0aa60827fab468ed9e43b944b29386de7dd",
}


@pytest.mark.parametrize("name, seed", sorted(VARIANTS_PINNED))
def test_variant_event_logs_pinned(suite, name, seed):
    # 20 suite regions, a central-door rectangle and the ring, where the
    # local strategies deadlock.
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    h = hashlib.sha256()
    for r in suite[::10] + [rect(12, 12, (5, 5)), ring]:
        trace, m = run(r, make_strategy(name, r, seed))
        spawns, logs = recorded(trace)
        h.update(repr(list(zip(spawns, map(bytes, logs)))).encode())
        h.update(repr(astuple(m)).encode())
    assert h.hexdigest() == VARIANTS_PINNED[name, seed]

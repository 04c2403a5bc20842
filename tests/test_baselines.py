import hashlib
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from dispersim.engine import Simulation, run
from dispersim.envgen import g_k, random_simply_connected, rect
from dispersim.grid import RING, Region, bfs_distances_cells, from_ascii
from dispersim.strategies import make_strategy

from oracles import articulation_points, fixed_polyominoes, recorded


def test_dflf_corridor_total_moves_exact():
    # On a corridor every robot walks to the far end of what remains:
    # 0 + 1 + ... + (n-1) moves in total.
    for n in (2, 5, 9):
        r = rect(n, 1, (0, 0))
        _, m = run(r, make_strategy("dflf", r, 0))
        assert m.outcome == "covered"
        assert m.total_moves == n * (n - 1) // 2
        assert m.max_moves == n - 1


def test_dflf_covers_random_regions():
    rng = random.Random(11)
    for i in range(15):
        r = random_simply_connected(rng.randint(2, 120), seed=300 + i)
        _, m = run(r, make_strategy("dflf", r, i), max_steps=40 * len(r.cells))
        assert m.outcome == "covered", (i, m.outcome)


def test_dflf_deterministic_per_seed():
    r = rect(7, 7, (0, 0))
    a, _ = run(r, make_strategy("dflf", r, 5))
    b, _ = run(r, make_strategy("dflf", r, 5))
    assert recorded(a) == recorded(b)
    assert a.outcome == b.outcome


def test_bflf_covers_and_pauses_do_not_count_as_moves():
    r = rect(8, 8, (0, 0))
    _, m = run(r, make_strategy("bflf", r, 2), max_steps=40 * len(r.cells))
    assert m.outcome == "covered"
    # travel counts pauses, moves does not
    assert m.total_travel >= m.total_moves
    assert m.total_moves >= m.optimum


def test_bflf_covers_random_regions():
    rng = random.Random(12)
    for i in range(10):
        r = random_simply_connected(rng.randint(2, 100), seed=600 + i)
        _, m = run(r, make_strategy("bflf", r, i), max_steps=60 * len(r.cells))
        assert m.outcome == "covered", (i, m.outcome)


def test_baseline_ordering_on_open_square():
    r = rect(12, 12, (5, 5))
    results = {}
    for name in ("fcdfs", "dflf", "bflf"):
        _, m = run(r, make_strategy(name, r, 4), max_steps=60 * len(r.cells))
        assert m.outcome == "covered"
        results[name] = m.total_moves
    assert results["dflf"] > results["bflf"] > results["fcdfs"]
    assert results["fcdfs"] == m.optimum


def _holed(r: Region, rng: random.Random, holes: int) -> Region:
    """``r`` with up to ``holes`` cells taken out whose whole 8-ring lies
    in the region: each leaves a hole and keeps the region connected."""
    cells = set(r.cells)
    for _ in range(holes):
        inner = sorted(
            c for c in cells
            if c != r.door and all((c[0] + dx, c[1] + dy) in cells for dx, dy in RING)
        )
        if not inner:
            break
        cells.remove(rng.choice(inner))
    return Region(cells, r.door)


@settings(max_examples=60, deadline=None)
@given(
    V=st.integers(1, 80),
    seed=st.integers(0, 2**20),
    holes=st.integers(0, 3),
    claims=st.randoms(use_true_random=False),
)
def test_cut_cells_match_the_brute_force_oracle_under_safe_claims(V, seed, holes, claims):
    # BFLF's claim sequence in miniature: claim a random cell whose loss
    # keeps the unclaimed cells connected, the door last. Each hole, and
    # each pocket of claimed cells, is a component of its own outside the
    # unclaimed cells until claims join it to another.
    r = _holed(random_simply_connected(V, seed), claims, holes)
    strategy = make_strategy("bflf", r, 0)
    index, cell_at = strategy.layout.index, strategy.layout.cell_at
    unclaimed = set(r.cells)
    while unclaimed:
        expected = articulation_points(Region(unclaimed, r.door).cells)
        assert {cell_at[i] for i in strategy.cut} <= expected
        cut = {c for c in unclaimed if index(c) in strategy.cut or strategy.is_cut(index(c))}
        assert cut == expected
        safe = sorted(unclaimed - expected - {r.door}) or [r.door]
        claimed = claims.choice(safe)
        unclaimed.remove(claimed)
        strategy.claim(index(claimed))


def test_cut_cells_on_a_long_corridor_needs_no_recursion():
    # The union-find's chains grow with the corridor; its find is a loop.
    corridor = rect(3000, 1, (0, 0))
    for door in ((0, 0), (1500, 0)):
        strategy = make_strategy("bflf", Region(corridor.cells, door), 0)
        index = strategy.layout.index
        cut = {c for c in corridor.cells if strategy.is_cut(index(c))}
        assert cut == corridor.cells - {(0, 0), (2999, 0)}


def _door_tree(strategy, residual, depth=None):
    """A fresh breadth-first search from the door through ``residual``,
    ``depth`` levels deep or to its end: its levels and each reached
    cell's predecessor, in the order BFLF's own tree finds them."""
    door, dirs = strategy.door, strategy.layout.dirs
    levels, prev = [[door]], {door: door}
    while levels[-1] and (depth is None or len(levels) < depth):
        reached = []
        for v in levels[-1]:
            for d in dirs:
                if residual[v + d] and v + d not in prev:
                    prev[v + d] = v
                    reached.append(v + d)
        levels.append(reached)
    return levels, prev


def _check_every_spawn(strategy, check_pool=True):
    """Wrap ``strategy.on_spawn`` to check BFLF's claim state against
    fresh computations at every spawn: the cells cached in ``cut`` are
    cut cells of the unclaimed cells (``oracles.articulation_points``),
    and the kept door tree equals a fresh search through the residual
    region, before and after the spawn grows it, with no empty tail
    level and, while more than the door is unclaimed, no safe unclaimed
    cell in a level below ``low``. With ``check_pool``, the pool is also
    the first level of a fresh search that holds an unclaimed cell that
    is no articulation point, the door only as the last one. The
    unclaimed cells are the region's minus the spawned robots' targets,
    and stay connected to the door. Returns the list of the targets
    drawn, one per spawn."""
    on_spawn, layout, door = strategy.on_spawn, strategy.layout, strategy.door
    targets = []

    def safe_cells(level, unclaimed):
        cells = {layout.cell_at[i] for i in level if i != door or len(unclaimed) == 1} & unclaimed
        return cells - articulation_points(unclaimed, cells)

    def tree_is_fresh(sim, unclaimed):
        if strategy.prev is not None:
            fresh = _door_tree(strategy, sim.residual, len(strategy.levels))
            assert (strategy.levels, strategy.prev) == fresh, sim.t
            assert strategy.levels[-1], sim.t
            if len(unclaimed) > 1:  # the door, the last one, skips the scan
                for level in strategy.levels[: strategy.low]:
                    assert not safe_cells(level, unclaimed), (sim.t, strategy.low)

    def checked(sim, robot):
        unclaimed = sim.region.cells - {layout.cell_at[rb.mem] for rb in sim.robots if rb.mem is not None}
        assert strategy.left == len(unclaimed), sim.t
        assert set(bfs_distances_cells(unclaimed, sim.region.door)) == unclaimed, sim.t
        cached = {layout.cell_at[i] for i in strategy.cut}
        assert articulation_points(unclaimed, cached) == cached, sim.t
        tree_is_fresh(sim, unclaimed)
        pool = strategy.pool(sim.residual)
        tree_is_fresh(sim, unclaimed)
        if check_pool:
            expected = []
            for level in _door_tree(strategy, sim.residual)[0]:
                safe = safe_cells(level, unclaimed)
                if safe:
                    expected = [layout.index(c) for c in sorted(safe)]
                    break
            assert pool == expected, sim.t
        on_spawn(sim, robot)
        assert robot.mem in pool, sim.t
        targets.append(robot.mem)

    strategy.on_spawn = checked
    return targets


def test_bflf_claim_state_at_every_spawn():
    """At every spawn of BFLF's runs on a square, a random region, G(1, 5)
    and a region with a hole, the cut cache holds only cut cells and the
    door tree kept between settles is the fresh search's. The pool is
    checked on every small polyomino instead. After every step, each
    kept path lies in the residual region or meets a cell settled in
    that step, the one case the next step re-routes."""
    runs = [(rect(12, 12, (5, 5)), seed) for seed in range(5)]
    runs += [(random_simply_connected(70, 31), 0), (g_k(1, 5), 0), (from_ascii("...#\n.#.#\n....\n###S"), 0)]
    for r, seed in runs:
        strategy = make_strategy("bflf", r, seed)
        targets = _check_every_spawn(strategy, check_pool=False)
        sim = Simulation(r, strategy, record=False)
        while sim.outcome is None and sim.t < 60 * len(r.cells):
            sim.step()
            settled_now = {rb.idx for rb in sim.robots if rb.settled == sim.t}
            assert strategy.stale == settled_now, (r, seed, sim.t)
            for rb in sim.active:
                path = strategy.paths[rb.id]
                assert all(sim.residual[c] for c in path) or settled_now & set(path), (r, seed, sim.t, rb.id)
        assert sim.outcome and sim.outcome.kind == "covered", (r, seed)
        assert len(targets) == len(r.cells), (r, seed)


def check_bflf_pools_on_every_small_polyomino(max_cells: int) -> int:
    """BFLF at seed 0 on every fixed polyomino of at most ``max_cells``
    cells, holey ones included, from every door, with its claim state
    checked at every spawn as in ``_check_every_spawn``. Every run
    covers. Returns the number of runs. CI's deep run calls it beyond
    tier-1's bound: ``PYTHONPATH=src:tests python -c "from
    test_baselines import check_bflf_pools_on_every_small_polyomino as
    c; assert c(9) == 118_020"``."""
    count = 0
    for cells in fixed_polyominoes(max_cells):
        for door in sorted(cells):
            r = Region(cells, door)
            strategy = make_strategy("bflf", r, 0)
            targets = _check_every_spawn(strategy)
            _, m = run(r, strategy, record=False, max_steps=60 * len(cells))
            assert m.outcome == "covered" and len(targets) == len(cells), (sorted(cells), door)
            count += 1
    return count


def test_bflf_pools_on_every_small_polyomino():
    """Tier-1's bound for the BFLF pool check: every polyomino of at
    most 7 cells from every door. The first polyomino with a hole has 8
    cells, so CI's deep run is the one that meets holes."""
    assert check_bflf_pools_on_every_small_polyomino(7) == 7_030


def _rows(trace) -> bytes:
    """The per-robot rows of a trace, (spawn step, action log) pairs, as
    the text that the pinned digests hash."""
    spawns, logs = recorded(trace)
    return repr(list(zip(spawns, map(bytes, logs)))).encode()


# BFLF's exact choices: a SHA-256 of the per-robot rows and the RunMetrics
# fields (V, makespan, total/max travel, total/max moves, optimum, optimal,
# outcome, robots) per (region, seed). Seed 69 on the square deadlocks.
# The rows' digests were taken where the event-list digests before them
# still held.
BFLF_PINNED = {
    ("rect12", 0): ("cb7d16e03318b11a44d3f7608d6735661fe267823ce677c76c11d04d7ff606c4", (144, 287, 3640, 49, 3640, 49, 864, False, 'covered', 144)),
    ("rect12", 1): ("3aac344f417e9e387e64830389fcea47ee52c6dbbb7a265d73999f92c7fb6c86", (144, 287, 3652, 52, 3652, 52, 864, False, 'covered', 144)),
    ("rect12", 2): ("af805a48d06b41bd493edab39e8e89e7843f6881dbf9635ffc5936f9f7be8c2c", (144, 287, 3942, 52, 3942, 52, 864, False, 'covered', 144)),
    ("rect12", 3): ("d2397915d89af0a77567a7b6878d876572a7589ab880d179ad122cd423c56471", (144, 287, 3428, 46, 3428, 46, 864, False, 'covered', 144)),
    ("rect12", 4): ("a60cc0d7b8780120491023f50c1a1e4929c9a6377a022ea76397cfd1e56164ae", (144, 287, 3588, 48, 3588, 48, 864, False, 'covered', 144)),
    ("rect12", 69): ("0e98ebf56681f78f124d98177d1c081da7f0c4075face0fcf89dd2b27ebc39ea", (144, None, 305, 26, 239, 26, 864, False, 'deadlock', 35)),
    ("rand70", 0): ("0b1c144209808e82a9114eeec2b5d0420c4794b95c5fd6b11b3d940d03290016", (70, 139, 714, 24, 714, 24, 402, False, 'covered', 70)),
    ("rand70", 1): ("2e8c632de8eebb998fdbc9e2b4bcfb659dcb241689d206bdd1eb06ae6b615898", (70, 139, 700, 23, 700, 23, 402, False, 'covered', 70)),
    ("rand70", 2): ("565184d0fbb05e05d0eccf19bdc56d0a83a3d436eafc95100bd849de838fb0a8", (70, 139, 698, 22, 698, 22, 402, False, 'covered', 70)),
    ("rand70", 3): ("1140d820aa5ca4449bcd6b15f14e9cc589983e57ed8de74ba47fd2d311d9aed2", (70, 139, 688, 22, 688, 22, 402, False, 'covered', 70)),
    ("rand70", 4): ("7e4ac33048c471be13240b79883b20484b6a43c7fbb51887717406632944207c", (70, 139, 658, 20, 658, 20, 402, False, 'covered', 70)),
    ("rand110", 0): ("ade437c9a9e18e3cf1a6444735ff7cdcb852095352bbe9ddd779124449448395", (110, 219, 1722, 32, 1722, 32, 702, False, 'covered', 110)),
    ("rand110", 1): ("93a653bfa750552f3f875a3f478c393db5985c5489137e3f60f23cd2e6ae269c", (110, 219, 1554, 27, 1554, 27, 702, False, 'covered', 110)),
    ("rand110", 2): ("cea249d2e5b69f8a9c36b806aeae3b5cae6c9171be2f6c8bd323416b3ff09ccc", (110, 219, 1570, 28, 1570, 28, 702, False, 'covered', 110)),
    ("rand110", 3): ("50efe807ea323f1da9d0c1b1e4ee8edfe3ddbae74cb1ca5accc9e47f403c5ef3", (110, 219, 1888, 32, 1888, 32, 702, False, 'covered', 110)),
    ("rand110", 4): ("6e98c82fd5e15cfe3555342669e915891d0143e0a95b1b5293b99ae1d6b8505d", (110, 219, 1952, 37, 1952, 37, 702, False, 'covered', 110)),
}


def test_bflf_choices_pinned():
    regions = {
        "rect12": rect(12, 12, (5, 5)),
        "rand70": random_simply_connected(70, 31),
        "rand110": random_simply_connected(110, 57),
    }
    for (name, seed), (digest, fields) in BFLF_PINNED.items():
        r = regions[name]
        trace, m = run(r, make_strategy("bflf", r, seed), max_steps=60 * len(r.cells))
        assert astuple(m) == fields, (name, seed)
        assert hashlib.sha256(_rows(trace)).hexdigest() == digest, (name, seed)


# DFLF's exact choices, pinned in the same form as BFLF_PINNED.
DFLF_PINNED = {
    ("rect12", 0): ("a8e489abfa68f6422966ac0cdd5b7cd099edeceb511d46f7fb38d5fa138c0a9b", (144, 287, 7182, 96, 7182, 96, 864, False, 'covered', 144)),
    ("rect12", 1): ("49dbf99b72720a26bedef727f15b9db8fdb06483bc6ceae3f9e5274adb2763c0", (144, 287, 7982, 111, 7982, 111, 864, False, 'covered', 144)),
    ("rect12", 2): ("a44a6763a2142f5aac6a1bae4444f54773a0e493024e24d506ed4dca16f57537", (144, 287, 6776, 86, 6776, 86, 864, False, 'covered', 144)),
    ("rect12", 3): ("4cf9b261384773ffec35b3440b27e5a82e1b116b5407f3217f1f44e1b7568519", (144, 287, 7716, 93, 7716, 93, 864, False, 'covered', 144)),
    ("rect12", 4): ("4f7c30211897048459cb18b00e5b3b5661db5f681556319611a88c3618dab4b4", (144, 287, 8678, 106, 8678, 106, 864, False, 'covered', 144)),
    ("rand70", 0): ("87133460c5129be83a322883dd023f98d643ee8307e9590d55f9191df77a42bf", (70, 139, 1464, 36, 1464, 36, 402, False, 'covered', 70)),
    ("rand70", 1): ("4f6e826806c824663dd120c4c3bf89075b85d59c8b6694deaf2ee7c76552e709", (70, 139, 1066, 26, 1066, 26, 402, False, 'covered', 70)),
    ("rand70", 2): ("5af1aaee269b181845ee1a3df78b22b8486e13bb3ce4183264e2fe37ad197ff6", (70, 139, 1062, 26, 1062, 26, 402, False, 'covered', 70)),
    ("rand70", 3): ("9079489ed02f86ddc7e84694019a1c8e9355b0c0bd60be83b9df5fb9e8c39877", (70, 139, 1158, 28, 1158, 28, 402, False, 'covered', 70)),
    ("rand70", 4): ("6cadde5288cb4c542c1d18a597d2673958a1ff3379df7c01666a221748db40a7", (70, 139, 1432, 36, 1432, 36, 402, False, 'covered', 70)),
}


def test_dflf_choices_pinned():
    regions = {
        "rect12": rect(12, 12, (5, 5)),
        "rand70": random_simply_connected(70, 31),
    }
    for (name, seed), (digest, fields) in DFLF_PINNED.items():
        r = regions[name]
        trace, m = run(r, make_strategy("dflf", r, seed), max_steps=60 * len(r.cells))
        assert astuple(m) == fields, (name, seed)
        assert hashlib.sha256(_rows(trace)).hexdigest() == digest, (name, seed)


def baseline_digest() -> str:
    """One SHA-256 over 1,248 baseline runs: ``dflf`` then ``bflf`` at
    seeds 0-11, per region, on three rectangles, G(1, 5) and the random
    regions of 20, 25, ..., 255 cells, each run's outcome, rows and
    ``RunMetrics`` hashed in turn. It takes 20-30 s, so CI runs it as a
    step of its own rather than in tier-1."""
    regions = [rect(12, 12, (5, 5)), rect(20, 20, (9, 9)), rect(7, 16, (0, 0)), g_k(1, 5)]
    regions += [random_simply_connected(v, 1000 + v) for v in range(20, 256, 5)]
    digest = hashlib.sha256()
    for r in regions:
        for name in ("dflf", "bflf"):
            for seed in range(12):
                trace, m = run(r, make_strategy(name, r, seed), max_steps=60 * len(r.cells))
                spawns, logs = recorded(trace)
                logs = [bytes(log) for log in logs]
                digest.update(repr((trace.outcome.kind, trace.outcome.t, spawns, logs, astuple(m))).encode())
    return digest.hexdigest()


def test_dflf_steps_only_from_a_cell_to_its_dfs_child():
    """Why DFLF needs no per-step claims: every move enters a child, in
    the DFS tree of ``strategy.walk``, of the cell it leaves. A cell has
    one parent and two robots never share a cell, so no two robots
    move into one cell in a step. No robot ever stays either: the
    premise of the ``baselines`` docstring's argument that seeing a
    settle within its own step could not change a DFLF run."""
    regions = [rect(12, 12, (5, 5)), random_simply_connected(70, 31), g_k(1, 5)]
    for r in regions:
        for seed in range(5):
            strategy = make_strategy("dflf", r, seed)
            walk = [strategy.layout.cell_at[i] for i in strategy.walk]
            parent = {}
            for prev, cell in zip(walk, walk[1:]):
                parent.setdefault(cell, prev)
            sim = Simulation(r, strategy, record=False)
            while sim.outcome is None and sim.t < 60 * len(r.cells):
                before = [(robot, robot.pos) for robot in sim.active]
                sim.step()
                moves = [(pos, robot.pos) for robot, pos in before if robot.pos != pos]
                for src, dst in moves:
                    assert parent[dst] == src, (r.door, seed, sim.t, src, dst)
                assert len({dst for _, dst in moves}) == len(moves), (r.door, seed, sim.t)
                stays = [robot.id for robot, pos in before if robot.active and robot.pos == pos]
                assert not stays, (r.door, seed, sim.t, stays)
            assert sim.outcome.kind == "covered", (r.door, seed)


def test_bflf_target_is_the_robot_memory():
    """A ``bflf`` robot's ``mem`` is its target: a region cell's int
    from the step it spawns, never changed, and the cell it settles on."""
    for r, seed in ((rect(12, 12, (5, 5)), 0), (rect(12, 12, (5, 5)), 69), (random_simply_connected(70, 31), 1)):
        sim = Simulation(r, make_strategy("bflf", r, seed), record=False)
        cells = {sim.layout.index(c) for c in r.cells}
        targets: dict[int, int] = {}
        while sim.outcome is None and sim.t < 60 * len(r.cells):
            sim.step()
            for robot in sim.robots:
                assert robot.mem in cells, (seed, sim.t, robot.id)
                assert targets.setdefault(robot.id, robot.mem) == robot.mem, (seed, sim.t, robot.id)
                if not robot.active:
                    assert robot.idx == robot.mem, (seed, sim.t, robot.id)
        assert sim.outcome.kind == ("deadlock" if seed == 69 else "covered")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 69])
def test_bflf_equal_deadlock_keys_imply_equal_paths(seed):
    """The deadlock key holds only the active robots' cells and
    memories. A ``bflf`` robot's memory is its target, fixed between
    its spawn and its settle, and its route in ``paths`` is not in the
    key: between two clears of the engine's seen set, two steps with one
    configuration key also hold the same paths, the repeat that ends
    seed 69's run included."""
    r = rect(12, 12, (5, 5))
    strategy = make_strategy("bflf", r, seed)
    sim = Simulation(r, strategy, record=False)
    seen: dict = {}
    window = None
    repeats = 0
    while sim.outcome is None and sim.t < 60 * len(r.cells):
        sim.step()
        if sim.outcome is not None and sim.outcome.kind == "covered":
            break
        spawned, settled = len(sim.robots), len(sim.robots) - len(sim.active)
        if (spawned, settled) != window:  # the engine clears on a spawn or a settle
            window = (spawned, settled)
            seen.clear()
        key = sim._config_key()
        paths = {rid: tuple(path) for rid, path in strategy.paths.items()}
        if key in seen:
            repeats += 1
            assert seen[key] == paths, (seed, sim.t)
        seen[key] = paths
    assert (sim.outcome.kind == "deadlock") == (seed == 69)
    assert repeats == (sim.outcome.kind == "deadlock")

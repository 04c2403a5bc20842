import hashlib
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from dispersim.engine import Simulation, run
from dispersim.envgen import random_simply_connected, rect
from dispersim.grid import Region
from dispersim.strategies import make_strategy
from dispersim.topology import cut_cells

from oracles import articulation_points


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
    assert a.events == b.events
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


@settings(max_examples=60, deadline=None)
@given(V=st.integers(1, 80), seed=st.integers(0, 2**20), claims=st.randoms(use_true_random=False))
def test_cut_cells_match_the_brute_force_oracle_under_safe_claims(V, seed, claims):
    # BFLF's claim sequence in miniature: claim a random cell whose loss
    # keeps the unclaimed cells connected, the door last.
    r = random_simply_connected(V, seed)
    unclaimed = set(r.cells)
    while unclaimed:
        expected = articulation_points(Region(unclaimed, r.door))
        assert cut_cells(unclaimed, r.door) == expected
        safe = sorted(unclaimed - expected - {r.door}) or [r.door]
        unclaimed.remove(claims.choice(safe))


def test_cut_cells_on_a_long_corridor_needs_no_recursion():
    corridor = rect(3000, 1, (0, 0))
    assert cut_cells(corridor.cells, (0, 0)) == corridor.cells - {(0, 0), (2999, 0)}
    assert cut_cells(corridor.cells, (1500, 0)) == corridor.cells - {(0, 0), (2999, 0)}


# BFLF's exact choices: a SHA-256 of repr(trace.events) and the RunMetrics
# fields (V, makespan, total/max travel, total/max moves, optimum, optimal,
# outcome, robots) per (region, seed). Seed 69 on the square deadlocks.
BFLF_PINNED = {
    ("rect12", 0): ("6bb69686f52fd2d3bea9762874ae70e8586603db150b50fdcd24134c67ebb6eb", (144, 287, 3640, 49, 3640, 49, 864, False, 'covered', 144)),
    ("rect12", 1): ("110b9a1969cca0ba02d66d5ac26e4b3544a607ab74c98d29853021739121fc02", (144, 287, 3652, 52, 3652, 52, 864, False, 'covered', 144)),
    ("rect12", 2): ("66c3991b772085d8c69cd01d49ccd4885ce14e798fcaad83d869baeb9a44acf6", (144, 287, 3942, 52, 3942, 52, 864, False, 'covered', 144)),
    ("rect12", 3): ("cc423386c093a7b45d1ed2fab672522e7ae238b2ac1d225676a49688d0ccc5aa", (144, 287, 3428, 46, 3428, 46, 864, False, 'covered', 144)),
    ("rect12", 4): ("c9ff4cf2b71404049844cff089716df251e2d7cce54c51fe3af39006d8325965", (144, 287, 3588, 48, 3588, 48, 864, False, 'covered', 144)),
    ("rect12", 69): ("432cf7202dfefb3032dc86c2a3dce1ab5f875813925925cba5c8f41912361153", (144, None, 305, 26, 239, 26, 864, False, 'deadlock', 35)),
    ("rand70", 0): ("62025500880e0bcbb852061a7bfe34d1b7ac393420eea3826954f9c768f54d2d", (70, 139, 714, 24, 714, 24, 402, False, 'covered', 70)),
    ("rand70", 1): ("7551bf9b75858b2c55ef289494a6adab2314056dc2f90867c604508588e3492e", (70, 139, 700, 23, 700, 23, 402, False, 'covered', 70)),
    ("rand70", 2): ("a2e0f0f949a82e79b72fdf6415a2738dc40e1800e2723af8051d099b070fe6c1", (70, 139, 698, 22, 698, 22, 402, False, 'covered', 70)),
    ("rand70", 3): ("3a5752a2d0edd0a0e6325ff75bb1896d81046e988953f27cf65701663e7ae82c", (70, 139, 688, 22, 688, 22, 402, False, 'covered', 70)),
    ("rand70", 4): ("5c0e0c3ab2423d038aa35adc2720e54f88d26f38f034d96cf0c834bba6d5220d", (70, 139, 658, 20, 658, 20, 402, False, 'covered', 70)),
    ("rand110", 0): ("c3d8bb7704179b3b25d2433865864ebe54cf4ab2869e15496d244a5fd07a04bf", (110, 219, 1722, 32, 1722, 32, 702, False, 'covered', 110)),
    ("rand110", 1): ("6440c686da8563c6d43845b3aad361e3592bc0d252cafd5c87b81fc301bf1a8d", (110, 219, 1554, 27, 1554, 27, 702, False, 'covered', 110)),
    ("rand110", 2): ("239cd43c55d3ac4f3aa5218ef81d378739aae01f8fae65d12c6da7d5516edb6d", (110, 219, 1570, 28, 1570, 28, 702, False, 'covered', 110)),
    ("rand110", 3): ("3b9bd7f466cea13d20108f14ceef1a7593505eefbba7ac905728617801e95633", (110, 219, 1888, 32, 1888, 32, 702, False, 'covered', 110)),
    ("rand110", 4): ("8271afe5e5bd37e8740918790bc5607f6126a9ff1334d8f32d34b84d24ace428", (110, 219, 1952, 37, 1952, 37, 702, False, 'covered', 110)),
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
        assert hashlib.sha256(repr(trace.events).encode()).hexdigest() == digest, (name, seed)


# DFLF's exact choices, pinned in the same form as BFLF_PINNED.
DFLF_PINNED = {
    ("rect12", 0): ("eaa329a6a704120f8b93277cac275159dc8afd9526209454e7b201d2a022c2b8", (144, 287, 7182, 96, 7182, 96, 864, False, 'covered', 144)),
    ("rect12", 1): ("f493fa4a418be2d2d664c0620b7bd0ec1a7d3da1bdb96af819791c54ac1011fd", (144, 287, 7982, 111, 7982, 111, 864, False, 'covered', 144)),
    ("rect12", 2): ("35c94aa82d7475e41634621b944e43383006064389d5d1b1d853459fbaf206d5", (144, 287, 6776, 86, 6776, 86, 864, False, 'covered', 144)),
    ("rect12", 3): ("215a9ca0fefa5eec1cafe19d15b29e2b0276c795dbed739e12464fa9d6334f96", (144, 287, 7716, 93, 7716, 93, 864, False, 'covered', 144)),
    ("rect12", 4): ("a49e7e96dadd39df3feb3424f294769fc6bb51855bc624488211fdd958e589a2", (144, 287, 8678, 106, 8678, 106, 864, False, 'covered', 144)),
    ("rand70", 0): ("2ade15caa1ec55a107fd55d69fd597a64a1fb92d3b4919ad305df2e9325d4147", (70, 139, 1464, 36, 1464, 36, 402, False, 'covered', 70)),
    ("rand70", 1): ("796ad16de7d1a6976c3a543ae32795f8c615b55b893c1fd004d4bef811cc94f8", (70, 139, 1066, 26, 1066, 26, 402, False, 'covered', 70)),
    ("rand70", 2): ("9cbfd3eb06f5382a71b64b03a55a549abce5f58385571384fd9de3d8a6e96530", (70, 139, 1062, 26, 1062, 26, 402, False, 'covered', 70)),
    ("rand70", 3): ("49ee6edcbe56dc89fd8e81c52654f8f696f24c913aed6f9285d60a4a87c89c69", (70, 139, 1158, 28, 1158, 28, 402, False, 'covered', 70)),
    ("rand70", 4): ("efc854546bfd56aa0156cf333237ecd760d335c1d3834957dfb6c39f27cf8eac", (70, 139, 1432, 36, 1432, 36, 402, False, 'covered', 70)),
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
        assert hashlib.sha256(repr(trace.events).encode()).hexdigest() == digest, (name, seed)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 69])
def test_bflf_equal_deadlock_keys_imply_equal_paths(seed):
    """``Bflf.state_key`` leaves out ``paths``: between two clears of the
    engine's seen set, two steps with one configuration key also hold
    the same paths, the repeat that ends seed 69's run included."""
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

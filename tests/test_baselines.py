import random

from dispersim.engine import run
from dispersim.envgen import random_simply_connected, rect
from dispersim.strategies import make_strategy


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

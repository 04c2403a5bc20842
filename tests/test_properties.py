"""Property-based tests over generated simply connected regions."""

import json

from hypothesis import given, settings, strategies as st

from dispersim.engine import SimulationTrace, run
from dispersim.envgen import random_simply_connected
from dispersim.grid import Region
from dispersim.metrics import compute_metrics
from dispersim.render import ascii_frame
from dispersim.strategies import make_strategy
from dispersim.topology import bfs_distances


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
    assert back.events == trace.events
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
    cell's distance from the door; fcdfs5 replays fcdfs event for event."""
    r = _moved(V, seed, dx, dy)
    dist = bfs_distances(r, r.door)
    events = {}
    for name in ("fcdfs", "fcdfs5", "rand-corner"):
        trace, m = run(r, make_strategy(name, r, strategy_seed), check=True)
        assert m.outcome == "covered" and m.makespan == 2 * V - 1, name
        assert m.optimal, name
        for last, robots in trace.replay():
            pass
        assert len(robots) == V
        for rb in robots:
            travel = (last if rb.active else rb.settled - 1) - rb.spawned
            assert travel == dist[rb.pos], (name, rb.id)
        events[name] = trace.events
    assert events["fcdfs"] == events["fcdfs5"]

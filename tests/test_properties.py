"""Property-based tests over generated simply connected regions."""

import json

from hypothesis import given, settings, strategies as st

from dispersim.engine import SimulationTrace, run
from dispersim.envgen import random_simply_connected
from dispersim.grid import Region
from dispersim.metrics import compute_metrics
from dispersim.render import ascii_frame
from dispersim.strategies import make_strategy


@settings(max_examples=50, deadline=None)
@given(
    V=st.integers(2, 120),
    seed=st.integers(0, 2**20),
    dx=st.integers(-60, 60),
    dy=st.integers(-60, 60),
)
def test_fcdfs_trace_survives_json_round_trip(V, seed, dx, dy):
    base = random_simply_connected(V, seed)
    r = Region({(x + dx, y + dy) for x, y in base.cells}, (base.door[0] + dx, base.door[1] + dy))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    back = SimulationTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
    assert back.events == trace.events
    assert back.outcome == trace.outcome
    assert back.region == r
    assert compute_metrics(back, back.region) == m
    last = trace.outcome.t
    assert ascii_frame(back, last) == ascii_frame(trace, last)

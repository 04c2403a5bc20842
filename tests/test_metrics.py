import json
import multiprocessing
import multiprocessing.context
import os
import statistics

import pytest

from dispersim.engine import SimulationTrace, run
from dispersim.envgen import random_simply_connected, rect
from dispersim.errors import BadParameters, DispersimError
from dispersim.metrics import CSV_HEADER, StrategySummary, compare_runs, compute_metrics
from dispersim.render import ascii_frame
from dispersim.strategies import STRATEGIES, Fcdfs, make_strategy


def test_trace_recount_matches_engine_counters():
    r = rect(6, 4, (2, 1))
    trace, m = run(r, make_strategy("fcdfs", r, 0))
    recount = compute_metrics(trace, r)
    assert recount == m


def test_trace_recount_with_pauses():
    # pauses (Stay) count as travel but not as moves
    r = rect(9, 9, (4, 4))
    trace, m = run(r, make_strategy("bflf", r, 1), max_steps=8000)
    recount = compute_metrics(trace, r)
    assert recount == m
    assert recount.total_travel >= recount.total_moves


def test_recount_reads_only_spawn_steps_and_logs():
    """The recount and the frames of a trace read its robots' ``spawned``
    and ``log`` alone: with the engine's ``pos``, ``moves`` and
    ``settled`` overwritten before the first read, a recorded trace and
    one read back from JSON still give the live run's metrics and
    frames."""
    r = random_simply_connected(40, seed=10)
    live, m = run(r, make_strategy("fcdfs", r, 0))
    steps = range(1, m.makespan + 1)
    frames = [ascii_frame(live, t) for t in steps]
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    back = SimulationTrace.from_json_dict(json.loads(json.dumps(trace.to_json_dict())))
    for read in (trace, back):
        for rb in read.robots:
            rb.pos, rb.moves, rb.settled = r.door, -1, 0
        assert compute_metrics(read, r) == m
        assert [ascii_frame(read, t) for t in steps] == frames


def test_compute_metrics_rejects_wrong_region():
    r = rect(3, 3, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    with pytest.raises(DispersimError, match="trace does not belong to this region"):
        compute_metrics(trace, rect(3, 3, (1, 1)))


def test_compute_metrics_rejects_a_trace_without_logs():
    r = rect(3, 3, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0), record=False)
    with pytest.raises(ValueError, match="recorded without logs"):
        compute_metrics(trace, r)


def test_csv_row_layout():
    r = rect(1, 5, (0, 0))
    _, m = run(r, make_strategy("fcdfs", r, 0))
    fields = m.csv_fields("corridor", r, "fcdfs", 0)
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "corridor"
    assert fields[6] == "covered"
    assert fields[7] == "9"
    assert fields[13] == "true"


def test_csv_row_empty_makespan_on_deadlock():
    from dispersim.grid import Region

    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    _, m = run(ring, make_strategy("fcdfs", ring, 0))
    assert m.csv_fields("ring", ring, "fcdfs", 0)[7] == ""


def test_compare_runs_aggregates():
    r = rect(10, 10, (0, 0))
    table = compare_runs(r, ["fcdfs", "dflf"], seeds=[0, 1, 2], max_steps=8000)
    assert len(table.rows) == 6
    assert all(err is None for (_, _, _, err) in table.rows)
    by_name = {s.strategy: s for s in table.summaries}
    assert by_name["fcdfs"].runs == 3
    # deterministic fcdfs: identical rows across seeds
    assert len({m.total_moves for (name, _, m, _) in table.rows if name == "fcdfs"}) == 1
    assert by_name["dflf"].mean_total_moves > by_name["fcdfs"].mean_total_moves
    entry = by_name["fcdfs"].table_entry()
    assert "(" in entry and entry.endswith(")")


def test_compare_runs_records_failures():
    from dispersim.grid import Region

    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    table = compare_runs(ring, ["fcdfs"], seeds=[0])
    (_, _, metrics, err) = table.rows[0]
    assert err is None
    assert metrics.outcome == "deadlock"


def reference_table(r, names, seeds, max_steps=None):
    """compare_runs's rows and summaries, run here cell by cell."""
    rows = []
    for name in names:
        for seed in seeds:
            strategy = make_strategy(name, r, seed)
            try:
                _, m = run(r, strategy, max_steps=max_steps, record=False)
                rows.append((name, seed, m, None))
            except Exception as exc:
                rows.append((name, seed, None, f"{type(exc).__name__}: {exc}"))
    summaries = []
    for name in names:
        done = [m for (n, _, m, _) in rows if n == name and m is not None]
        failed = sum(1 for (n, _, m, _) in rows if n == name and m is None)
        summaries.append(StrategySummary(
            name,
            len(done),
            statistics.mean(m.total_moves for m in done) if done else 0.0,
            statistics.mean(m.max_moves for m in done) if done else 0.0,
            failed,
        ))
    return rows, summaries


@pytest.fixture(params=["one-worker", "pool", "no-fork"])
def pools(request, monkeypatch):
    """Sets the CPU count compare_runs sees, and whether the platform can
    fork, and lists the pools it makes as (size, start method), so every
    path runs whatever this machine has; after the test, returned or
    raised, no worker is left."""
    cpus = set(range(1 if request.param == "one-worker" else 2))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
    if request.param == "no-fork":
        monkeypatch.delattr(os, "fork")
    made = []
    real = multiprocessing.context.BaseContext.Pool

    def spy(ctx, processes=None, *args, **kwargs):
        made.append((processes, ctx.get_start_method()))
        return real(ctx, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    yield made
    assert made == ([(2, "fork")] if request.param == "pool" else [])
    assert multiprocessing.active_children() == []


def test_compare_runs_equals_a_run_of_each_cell(pools):
    """Rows in table order and summaries equal a cell-by-cell run,
    bflf seed 69's deadlock included."""
    r = rect(12, 12, (5, 5))
    names, seeds = ["dflf", "bflf", "fcdfs"], [68, 69, 70]
    table = compare_runs(r, names, seeds)
    rows, summaries = reference_table(r, names, seeds)
    assert table.rows == rows
    assert table.summaries == summaries
    assert [(n, s) for (n, s, m, _) in rows if m.outcome != "covered"] == [("bflf", 69)]


def test_compare_runs_records_each_cells_error(pools):
    """An error of a run crosses back from its worker as the row's text."""
    r = rect(4, 3, (0, 0))
    table = compare_runs(r, ["fcdfs", "bflf"], [0, 1], max_steps=0)
    rows, summaries = reference_table(r, ["fcdfs", "bflf"], [0, 1], max_steps=0)
    assert table.rows == rows
    assert table.summaries == summaries
    assert all(m is None and err.startswith("ValueError: ") for (_, _, m, err) in rows)
    assert [s.failures for s in summaries] == [2, 2]


def test_compare_runs_raises_an_error_outside_a_run(pools):
    """A strategy that cannot be made fails the table, as its own error."""
    r = rect(4, 3, (0, 0))
    with pytest.raises(BadParameters, match="^unknown strategy: 'nope'$"):
        compare_runs(r, ["fcdfs", "nope", "dflf"], [0, 1])


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_compare_runs_forks_whatever_the_default_start_method(pools, method, monkeypatch):
    """The workers are forked under any default start method, so a
    strategy registered at run time, here a class no pickle can name,
    reaches them."""
    class Renamed(Fcdfs):
        name = "renamed"

    monkeypatch.setitem(STRATEGIES, "renamed", Renamed)
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        r = rect(6, 5, (2, 0))
        table = compare_runs(r, ["renamed", "dflf"], [0, 1])
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert (table.rows, table.summaries) == reference_table(r, ["renamed", "dflf"], [0, 1])
    assert all(m.outcome == "covered" for (_, _, m, _) in table.rows)

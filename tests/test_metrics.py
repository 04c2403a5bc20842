import pytest

from dispersim.engine import run
from dispersim.envgen import rect
from dispersim.errors import TraceRegionMismatch
from dispersim.metrics import CSV_HEADER, compare_runs, compute_metrics
from dispersim.strategies import make_strategy


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


def test_compute_metrics_rejects_wrong_region():
    r = rect(3, 3, (0, 0))
    trace, _ = run(r, make_strategy("fcdfs", r, 0))
    with pytest.raises(TraceRegionMismatch):
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

"""Run metrics: travel/move counts, makespan, comparison tables, CSV."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from .errors import DispersimError
from .grid import Region

CSV_HEADER = (
    "env,door_x,door_y,V,strategy,seed,outcome,makespan,"
    "total_travel,max_travel,total_moves,max_moves,optimum,optimal"
)


@dataclass(frozen=True)
class RunMetrics:
    V: int
    makespan: int | None
    total_travel: int
    max_travel: int
    total_moves: int
    max_moves: int
    optimum: int
    optimal: bool
    outcome: str
    robots: int

    def csv_fields(self, env: str, region: Region, strategy: str, seed: int) -> list[str]:
        """The CSV_HEADER columns of this run, as strings."""
        makespan = "" if self.makespan is None else str(self.makespan)
        return [
            env,
            str(region.door[0]),
            str(region.door[1]),
            str(self.V),
            strategy,
            str(seed),
            self.outcome,
            makespan,
            str(self.total_travel),
            str(self.max_travel),
            str(self.total_moves),
            str(self.max_moves),
            str(self.optimum),
            str(self.optimal).lower(),
        ]


def run_metrics(r: Region, outcome, robots) -> RunMetrics:
    """The metrics of a finished run from its outcome and its robots, in
    id order: the :class:`~dispersim.engine.Robot` records of a live run
    or those :meth:`~dispersim.engine.SimulationTrace.states` rebuilds
    from a trace, whose ``spawned``, ``settled`` and ``moves`` it reads.

    This is the one travel rule. A robot travels on every step it is
    active at both step boundaries, from its spawn to the step before its
    settle or to the end of the run, so pauses count and the settle step
    does not.

    The optimum is the sum of the region's ``door_distances``, kept from
    the BFS that built it. A run is ``optimal`` only when it covered the
    region with that much travel: a run cut short may have travelled as
    much without dispersing.
    """
    last = outcome.t
    travels = [(last if rb.settled is None else rb.settled - 1) - rb.spawned for rb in robots]
    moves = [rb.moves for rb in robots]
    optimum = sum(r.door_distances.values())
    total_travel = sum(travels)
    return RunMetrics(
        V=len(r.cells),
        makespan=outcome.t if outcome.kind == "covered" else None,
        total_travel=total_travel,
        max_travel=max(travels, default=0),
        total_moves=sum(moves),
        max_moves=max(moves, default=0),
        optimum=optimum,
        optimal=outcome.kind == "covered" and total_travel == optimum,
        outcome=outcome.kind,
        robots=len(travels),
    )


def compute_metrics(trace, r: Region) -> RunMetrics:
    """Recompute metrics from a recorded trace.

    Independent of the engine's counters: the trace's
    :meth:`~dispersim.engine.SimulationTrace.states` reads each robot's
    spawn step and action log alone and jumps it along the log to the
    last step, which gives its settle step and its moves, and
    :func:`run_metrics` turns those into travel.
    """
    if trace.region.cells != r.cells or trace.region.door != r.door:
        raise DispersimError("trace does not belong to this region")
    outcome = trace.ended()
    _, robots = next(trace.states([outcome.t]))
    return run_metrics(r, outcome, robots)


@dataclass(frozen=True)
class StrategySummary:
    strategy: str
    runs: int
    mean_total_moves: float
    mean_max_moves: float
    failures: int

    def table_entry(self) -> str:
        """Format as "total (max)" using pause-excluding move counts."""
        return f"{self.mean_total_moves:.0f} ({self.mean_max_moves:.0f})"


@dataclass(frozen=True)
class ComparisonTable:
    rows: list  # (strategy, seed, RunMetrics | None, error message | None)
    summaries: list[StrategySummary]


def compare_runs(
    r: Region,
    strategies: list[str],
    seeds: list[int],
    max_steps: int | None = None,
) -> ComparisonTable:
    """Run every (strategy, seed) cell and aggregate per strategy.

    The cells run in one worker process per CPU this process may use,
    capped at the number of cells; with one worker, or where the platform
    cannot fork (Windows), they run here, one after another, and no pool
    is made. There is no option: every cell is a deterministic run, so
    the rows, in table order (strategies outermost, then seeds), and the
    summaries equal those of a serial run. The workers are forked
    whatever the default start method is, so they see the strategy
    registry as it stands in this process, strategies registered at run
    time included.

    Per-run failures are recorded in the row, not fatal to the table. An
    error outside a run, such as an unknown strategy name, propagates:
    the first in table order.
    """
    cells = [(name, seed) for name in strategies for seed in seeds]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(cells))
    if workers <= 1 or not hasattr(os, "fork"):
        rows = [_run_cell(r, max_steps, cell) for cell in cells]
    else:
        import multiprocessing  # here, not at the top: the CLI need not pay for it

        # Forked, so that the workers see this process's registry. The
        # region reaches each worker once, through the initializer: a
        # ``functools.partial`` sending it with every cell read 4-6%
        # fewer robot-steps/s on the benchmark's ``baselines`` workload.
        # On an error ``with`` terminates the pool, which joins its workers.
        fork = multiprocessing.get_context("fork")
        with fork.Pool(workers, _pool_init, (r, max_steps)) as pool:
            rows = list(pool.imap(_pool_cell, cells, chunksize=1))
            pool.close()
            pool.join()
    summaries = []
    for name in strategies:
        runs = [m for (n, _, m, _) in rows if n == name and m is not None]
        failures = sum(1 for (n, _, m, _) in rows if n == name and m is None)
        if not runs:
            summaries.append(StrategySummary(name, 0, 0.0, 0.0, failures))
            continue
        summaries.append(
            StrategySummary(
                strategy=name,
                runs=len(runs),
                mean_total_moves=statistics.mean(m.total_moves for m in runs),
                mean_max_moves=statistics.mean(m.max_moves for m in runs),
                failures=failures,
            )
        )
    return ComparisonTable(rows=rows, summaries=summaries)


def _run_cell(r: Region, max_steps: int | None, cell: tuple[str, int]) -> tuple:
    """One row of :func:`compare_runs`: the run of ``cell``'s strategy and
    seed on ``r``. An error of the run is recorded in the row; one of
    :func:`~dispersim.strategies.make_strategy` propagates."""
    from . import engine
    from .strategies import make_strategy

    name, seed = cell
    strategy = make_strategy(name, r, seed)
    try:
        _, metrics = engine.run(r, strategy, max_steps=max_steps, record=False)
        return (name, seed, metrics, None)
    except Exception as exc:  # recorded per cell
        return (name, seed, None, f"{type(exc).__name__}: {exc}")


_pool_job = None  # (region, max_steps) in a compare_runs worker, set once by _pool_init


def _pool_init(r: Region, max_steps: int | None) -> None:
    global _pool_job
    _pool_job = (r, max_steps)


def _pool_cell(cell: tuple[str, int]) -> tuple:
    return _run_cell(*_pool_job, cell)

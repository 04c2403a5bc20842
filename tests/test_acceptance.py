"""Acceptance suite.

Each test prints one "criterion N: PASS/FAIL" line. The shared 200-region
random suite comes from conftest. Runtime bounds are asserted where the
criterion fixes one.
"""

import json
import math
import time

import pytest

from dispersim import topology as tp
from dispersim.engine import A_STAY, Simulation, run
from dispersim.envgen import g_k, rect
from dispersim.grid import Region
from dispersim.metrics import run_metrics
from dispersim.strategies import make_strategy

from oracles import articulation_points, recorded


_CAP = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # Route the per-criterion report lines past pytest's capture so they
    # show up even when the test passes.
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(n: int, ok: bool, note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}{suffix}"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_criterion_1_central_door_grid_exact():
    r = rect(30, 30, (13, 13))
    # Pre-verify the door coordinate against the distance oracle.
    assert tp.sum_distances(r, (13, 13)) == 13620
    t0 = time.monotonic()
    _, m = run(r, make_strategy("fcdfs", r, 0), record=False)
    elapsed = time.monotonic() - t0
    ok = (
        m.outcome == "covered"
        and m.total_travel == 13620
        and m.max_travel == 32
        and m.makespan == 1799
        and elapsed < 1.0
    )
    _report(1, ok, f"{elapsed:.2f}s")
    assert ok, m


def test_criterion_2_optimality_properties(suite):
    t0 = time.monotonic()
    failures = []
    for i, r in enumerate(suite):
        V = len(r.cells)
        sim = Simulation(r, make_strategy("fcdfs", r, 0), record=True)
        sim.finish(4 * V)
        dist = tp.bfs_distances(r, r.door)
        total = run_metrics(r, sim.outcome, sim.robots).total_travel
        per_robot_ok = all(
            rb.settled - 1 - rb.spawned == dist[rb.pos] for rb in sim.robots if not rb.active
        )
        if not (
            sim.outcome.kind == "covered"
            and sim.outcome.t == 2 * V - 1
            and total == sum(dist.values())
            and per_robot_ok
            and not any(A_STAY in log for log in recorded(sim.trace)[1])
        ):
            failures.append((i, sim.outcome, total, sum(dist.values())))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(2, ok, f"{elapsed:.1f}s, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_3_automaton_equivalence(suite):
    diffs = []
    for i, r in enumerate(suite):
        t1, m1 = run(r, make_strategy("fcdfs", r, 0))
        t2, m2 = run(r, make_strategy("fcdfs5", r, 0))
        if recorded(t1) != recorded(t2) or t1.outcome != t2.outcome or m1 != m2:
            diffs.append(i)
            continue
        if i % 20 == 0:
            # Spot-check byte identity of the serialized form (the
            # strategy name field necessarily differs; normalize it).
            a = json.dumps(t1.to_json_dict()).replace('"fcdfs"', '"x"')
            b = json.dumps(t2.to_json_dict()).replace('"fcdfs5"', '"x"')
            if a != b:
                diffs.append(i)
    ok = not diffs
    _report(3, ok, f"{len(diffs)} diverging regions")
    assert ok, diffs[:5]


def test_criterion_4_variant_equivalence(suite, tmp_path_factory):
    archive = tmp_path_factory.mktemp("variant_counterexamples")
    failures = []

    def check(name, r, i, seed):
        V = len(r.cells)
        try:
            _, m = run(r, make_strategy(name, r, seed), record=False)
        except Exception as exc:
            failures.append((name, i, seed, f"{type(exc).__name__}"))
            (archive / f"{name}_{i}_{seed}.map").write_text(r.to_ascii() + "\n")
            return
        if not (
            m.outcome == "covered"
            and m.makespan == 2 * V - 1
            and m.total_travel == m.optimum
        ):
            failures.append((name, i, seed, m.outcome, m.makespan, m.total_travel))
            (archive / f"{name}_{i}_{seed}.map").write_text(r.to_ascii() + "\n")

    for i, r in enumerate(suite):
        for seed in range(10):
            check("rand-corner", r, i, seed)
        check("left-hand", r, i, 0)
    ok = not failures
    _report(4, ok, f"{len(failures)} counterexamples archived in {archive}")
    assert ok, failures[:5]


def test_criterion_5_topology_lemmas(suite):
    bad = []
    for i, r in enumerate(suite):
        halls = {c for c in r.cells if tp.classify_cells(r.cells, c).kind == tp.HALL}
        if not halls <= articulation_points(r.cells):
            bad.append(("halls-not-articulation", i))
    for i, r in enumerate(suite):
        if len(r.cells) > 60:
            continue
        corners = [
            c for c in r.cells if tp.classify_cells(r.cells, c).kind == tp.CORNER
        ]
        base = {c: tp.bfs_distances(r, c) for c in r.cells}
        for c in corners:
            if c == r.door:
                continue
            rest = r.cells - {c}
            if not tp.is_simply_connected(Region(rest, r.door)):
                bad.append(("corner-removal-connectivity", i, c))
                continue
            for u in rest:
                du = tp.bfs_distances_cells(rest, u)
                if any(du[v] != base[u][v] for v in rest):
                    bad.append(("corner-removal-distance", i, c, u))
                    break
    ok = not bad
    _report(5, ok, f"{len(bad)} lemma violations")
    assert ok, bad[:5]


def test_criterion_6_runtime_invariants(suite):
    violations = []
    for i, r in enumerate(suite):
        for name in ("fcdfs", "fcdfs5"):
            try:
                _, m = run(r, make_strategy(name, r, 0), record=False, check=True)
            except Exception as exc:
                violations.append((name, i, f"{type(exc).__name__}: {exc}"))
                continue
            if m.outcome != "covered":
                violations.append((name, i, m.outcome))
    ok = not violations
    _report(6, ok, f"{len(violations)} violations")
    assert ok, violations[:5]


def _slope(points):
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def test_criterion_7_scaling_slopes():
    t0 = time.monotonic()
    slopes = {}
    for name in ("fcdfs", "dflf"):
        pts = []
        for n in (8, 16, 32):
            r = rect(n, n, (0, 0))
            _, m = run(
                r, make_strategy(name, r, 0), record=False, max_steps=20 * n * n
            )
            assert m.outcome == "covered", (name, n, m.outcome)
            pts.append((math.log(n), math.log(m.total_moves)))
        slopes[name] = _slope(pts)
    elapsed = time.monotonic() - t0
    ok = (
        abs(slopes["fcdfs"] - 3.0) <= 0.3
        and abs(slopes["dflf"] - 4.0) <= 0.4
        and elapsed < 120.0
    )
    _report(7, ok, f"fcdfs {slopes['fcdfs']:.2f}, dflf {slopes['dflf']:.2f}")
    assert ok, slopes


def test_criterion_8_deadlock_detection():
    ring = Region({(x, y) for x in range(3) for y in range(3)} - {(1, 1)}, (0, 0))
    loop = g_k(1, 5)
    outcomes = []
    for r in (ring, loop):
        _, m = run(r, make_strategy("fcdfs", r, 0), record=False)
        outcomes.append(m.outcome)
    ok = outcomes == ["deadlock", "deadlock"]
    _report(8, ok, f"outcomes {outcomes}")
    assert ok


# Criterion 9's per-seed total moves, seeds 0-4: the order of the means
# rests on these runs, so a change to either planner shows here first.
CRITERION_9_TOTALS = {
    "dflf": [202084, 267860, 218760, 232230, 280958],
    "bflf": [77722, 80458, 83258, 77818, 82174],
    "fcdfs": [13620] * 5,
}


def test_criterion_9_baseline_ordering():
    r = rect(30, 30, (13, 13))
    totals = {}
    for name in ("dflf", "bflf", "fcdfs"):
        totals[name] = []
        for seed in range(5):
            _, m = run(
                r, make_strategy(name, r, seed), record=False, max_steps=20000
            )
            assert m.outcome == "covered", (name, seed, m.outcome)
            totals[name].append(m.total_moves)
    means = {k: sum(v) / len(v) for k, v in totals.items()}
    ok = means["dflf"] > means["bflf"] > means["fcdfs"]
    _report(
        9,
        ok,
        "mean total moves "
        + ", ".join(f"{k} {v:.0f}" for k, v in means.items()),
    )
    assert ok, means
    assert totals == CRITERION_9_TOTALS

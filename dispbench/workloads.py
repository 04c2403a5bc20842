"""The four benchmark workloads and the checks on their outputs.

A workload builds its fixed inputs from the benchmark seed, warms up, and
then runs passes. A pass is a fixed list of operations over those inputs;
the output of every operation is checked and tallied. Every call into
dispersim goes through a module attribute (``engine.run``, not a name
bound at import), so the tracer's wrappers see it.

Four defects of the code under test are known (``KNOWN_FAILURES``) and
stay in the workloads. Their failures count in ``failed`` like any
other; they are only told apart from unexpected failures, which make a
run incorrect.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from itertools import zip_longest

from dispersim import engine, envgen, metrics, render, topology
from dispersim import strategies as strategies_mod

# Known defects, by the name the benchmark reports them under.
KNOWN_FAILURES = {
    "left-hand-check": (
        "random-checked: run(check=True) applies the FCDFS lemmas to "
        "left-hand and raises InvariantViolation"
    ),
    "hall-tree-hall-chain": (
        "random-checked: hall_tree drops a hall whose two neighbours are "
        "both halls (a staircase), so its components miss that cell"
    ),
    "bflf-deadlock": (
        "baselines: bflf ends in a deadlock (a true configuration cycle) "
        "on an open square for about one strategy seed in a hundred"
    ),
    "roundtrip-negative-origin": (
        "trace-roundtrip: from_json_dict re-anchors a region whose min "
        "corner is negative at (0,0), so the round-tripped trace renders "
        "robots in the wrong cells"
    ),
}

LOCAL = ("fcdfs", "fcdfs5", "rand-corner", "left-hand")
BASELINES = ("dflf", "bflf", "fcdfs")
MAX_UNEXPECTED_KEPT = 20
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class FrameMismatch(CheckFailed):
    """A round-tripped trace renders a different final frame."""


class HallTreeGap(CheckFailed):
    """The hall tree's components leave out halls that touch only halls."""


class BaselineDeadlock(CheckFailed):
    """A baseline run ended in a deadlock instead of covering the region."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Tally:
    """Operations attempted and failed, plus per-pass work counters.

    ``attempted``, ``failed`` and ``known`` count the operations of the
    first pass only, so they depend on the seed and not on how many
    passes fit in the run. Every later pass must repeat the first pass's
    outcomes exactly; a pass that does not is an unexpected failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.unexpected: list[str] = []
        self.unexpected_count = 0
        self.counters: Counter = Counter()
        self.outcomes: list = []  # (label, failure name or None) of the current pass
        self.first: list | None = None

    def begin_pass(self) -> None:
        self.counters.clear()
        self.outcomes = []

    def end_pass(self) -> None:
        if self.first is None:
            self.first = self.outcomes
            self.attempted = len(self.first)
            failures = [name for _, name in self.first if name is not None]
            self.failed = len(failures)
            self.known = Counter(n for n in failures if n in KNOWN_FAILURES)
        elif self.outcomes != self.first:
            now, first = next((a, b) for a, b in zip_longest(self.outcomes, self.first) if a != b)
            self._unexpected(f"pass outcome {now} differs from the first pass's {first}")

    def op(self, label: str, fn, known=None):
        """Run one operation; return its result, or None if it failed.

        ``known(exc)`` names the known defect an exception stands for, or
        returns None for an unexpected failure.
        """
        try:
            result = fn()
        except Exception as exc:  # every failure is recorded, none is fatal
            self.fail(label, exc, known(exc) if known else None)
            return None
        self.outcomes.append((label, None))
        return result

    def fail(self, label: str, exc: BaseException, known_name=None) -> None:
        if known_name is not None:
            self.outcomes.append((label, known_name))
            return
        self.outcomes.append((label, f"unexpected {type(exc).__name__}"))
        self._unexpected(f"{label}: {type(exc).__name__}: {exc}")

    def _unexpected(self, line: str) -> None:
        self.unexpected_count += 1
        if len(self.unexpected) < MAX_UNEXPECTED_KEPT:
            self.unexpected.append(line)


def expect_optimal(m, V: int) -> None:
    """The paper's claim for the FCDFS family on a simply connected
    region: coverage in 2V-1 steps with optimal total travel."""
    expect(m.outcome == "covered", f"outcome {m.outcome}, expected covered")
    expect(m.makespan == 2 * V - 1, f"makespan {m.makespan}, expected {2 * V - 1}")
    expect(
        m.total_travel == m.optimum,
        f"total_travel {m.total_travel}, optimum {m.optimum}",
    )


def run_op(tally, label, region, name, seed, *, record=False, check=False, checks=(), known=None):
    """One checked ``engine.run``; returns (trace, metrics) or None.

    Robot-steps are counted whenever the run returns, before its checks,
    so the count does not depend on which checks pass.
    """

    def op():
        strategy = strategies_mod.make_strategy(name, region, seed)
        trace, m = engine.run(region, strategy, record=record, check=check)
        tally.counters["robot_steps"] += m.total_travel
        tally.counters["robots_spawned"] += m.robots
        for fn in checks:
            fn(m)
        return trace, m

    return tally.op(label, op, known)


def _equal_to(ref, what: str):
    def check(m):
        if ref is not None:
            expect(m == ref, f"metrics differ from {what}: {m} != {ref}")

    return check


def _is_invariant_violation(exc) -> str | None:
    return "left-hand-check" if type(exc).__name__ == "InvariantViolation" else None


def encode_trace(trace) -> tuple[str, int]:
    """Serialize a trace as ``dispersim run --trace`` does; returns the
    JSON text and its number of records."""
    data = trace.to_json_dict()
    return json.dumps(data), count_records(data)


def decode_trace(text: str):
    """Read a trace back as ``dispersim render`` does."""
    return engine.SimulationTrace.from_json_dict(json.loads(text))


def count_records(data) -> int:
    """Records in a serialized trace: the per-robot rows of the snapshot
    format, or else every innermost JSON container (one per event in an
    event log)."""
    try:
        return sum(len(step["robots"]) for step in data["steps"])
    except (KeyError, TypeError):
        pass

    def walk(node) -> int:
        items = node.values() if isinstance(node, dict) else node
        inner = [x for x in items if isinstance(x, (dict, list))]
        return sum(walk(x) for x in inner) if inner else 1

    return walk(data)


def central_rect(side: int, rng: random.Random):
    """A side x side rectangle with its door on one of the four central
    cells; all four give the same distance sums."""
    half = side // 2 - 1
    door = (half + rng.randrange(2), half + rng.randrange(2))
    return envgen.rect(side, side, door)


class Workload:
    name = "?"

    def __init__(self, seed: int, size: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.build(SIZES[size][self.name])

    def build(self, params: dict) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run each code path once on a tiny input, outside any tally."""
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def recorded_inputs(self) -> list:
        """(region, strategy name, seed) of every recorded run of a pass."""
        return []


def _warm_runs(names):
    r = envgen.rect(6, 6, (2, 2))
    for name in names:
        engine.run(r, strategies_mod.make_strategy(name, r, 0), record=False)


class RectSweep(Workload):
    """Engine stepping and Strategy.decide on a large square, plus the
    deadlock path on G(k)."""

    name = "rect-sweep"

    def build(self, params):
        self.rect = central_rect(params["side"], self.rng)
        self.rc_seed = self.rng.randrange(1 << 30)
        self.gk = envgen.g_k(*params["gk"])

    def warm_up(self):
        _warm_runs(LOCAL)

    def run_pass(self, tally):
        r = self.rect
        V = len(r.cells)
        optimal = lambda m: expect_optimal(m, V)  # noqa: E731
        ref = run_op(tally, "fcdfs rect", r, "fcdfs", 0, checks=[optimal])
        ref_m = ref[1] if ref else None
        run_op(tally, "fcdfs5 rect", r, "fcdfs5", 0, checks=[optimal, _equal_to(ref_m, "fcdfs")])
        run_op(tally, "rand-corner rect", r, "rand-corner", self.rc_seed, checks=[optimal])
        run_op(tally, "left-hand rect", r, "left-hand", 0, checks=[optimal])

        def deadlocks(m):
            expect(m.outcome == "deadlock", f"g_k outcome {m.outcome}, expected deadlock")

        run_op(tally, "fcdfs g_k", self.gk, "fcdfs", 0, checks=[deadlocks])


class RandomChecked(Workload):
    """``dispersim run --check`` traffic on freshly generated random
    simply connected regions, then the topology oracles."""

    name = "random-checked"

    def build(self, params):
        # The suite fixture draws V uniformly from [2, max_v]. Taking the
        # midpoints of n equal-width strata of that range keeps the same
        # distribution and leaves only the shapes to the seed, so the work
        # in a pass varies little between seeds.
        n, vmax = params["regions"], params["max_v"]
        self.specs = [
            (2 + int((i + 0.5) * (vmax - 1) / n), self.rng.randrange(1 << 30)) for i in range(n)
        ]
        self.rc_seed = self.rng.randrange(1 << 30)

    def warm_up(self):
        r = envgen.random_simply_connected(30, 1)
        for name in LOCAL:
            try:
                engine.run(r, strategies_mod.make_strategy(name, r, 0), record=False, check=True)
            except Exception:  # left-hand's known defect; warm-up is not tallied
                pass
        topology.hall_tree(r)
        topology.geometric_median(r)
        topology.bfs_distances(r, r.door)

    def run_pass(self, tally):
        regions = []
        for V, shape_seed in self.specs:

            def generate(V=V, shape_seed=shape_seed):
                r = envgen.random_simply_connected(V, shape_seed)
                expect(len(r.cells) == V, f"generated {len(r.cells)} cells, asked for {V}")
                return r

            r = tally.op(f"generate V={V} seed={shape_seed}", generate)
            if r is not None:
                tally.counters["attached_cells"] += V - 1
                regions.append(r)
        for r in regions:
            V = len(r.cells)
            optimal = lambda m, V=V: expect_optimal(m, V)  # noqa: E731
            tag = f"V={V}"
            ref = run_op(tally, f"fcdfs --check {tag}", r, "fcdfs", 0, check=True, checks=[optimal])
            ref_m = ref[1] if ref else None
            run_op(
                tally, f"fcdfs5 --check {tag}", r, "fcdfs5", 0, check=True,
                checks=[optimal, _equal_to(ref_m, "fcdfs")],
            )
            run_op(tally, f"rand-corner --check {tag}", r, "rand-corner", self.rc_seed, check=True, checks=[optimal])
            run_op(
                tally, f"left-hand --check {tag}", r, "left-hand", 0, check=True,
                checks=[optimal], known=_is_invariant_violation,
            )
            tally.op(
                f"oracles {tag}", lambda r=r, ref_m=ref_m: self._oracles(r, ref_m),
                lambda exc: "hall-tree-hall-chain" if isinstance(exc, HallTreeGap) else None,
            )

    @staticmethod
    def _oracles(r, ref_m) -> None:
        tree = topology.hall_tree(r)
        missing = r.cells - frozenset().union(*tree.components)
        if missing:
            halls = {c for c in missing if topology.classify_cells(r.cells, c).kind == topology.HALL}
            chained = all(
                topology.classify_cells(r.cells, nb).kind == topology.HALL
                for c in halls for nb in r.neighbors(c)
            )
            cls = HallTreeGap if halls == missing and chained else CheckFailed
            raise cls(f"hall tree components miss {sorted(missing)}")
        expect(r.door in tree.components[tree.root], "hall tree root misses the door")
        dist = topology.bfs_distances(r, r.door)
        expect(len(dist) == len(r.cells), "bfs_distances does not reach every cell")
        total = sum(dist.values())
        if ref_m is not None:
            expect(total == ref_m.optimum, f"distance sum {total} != run optimum {ref_m.optimum}")
        median = topology.geometric_median(r)
        expect(bool(median) and median <= r.cells, "geometric median is not a set of region cells")
        best = sum(topology.bfs_distances(r, min(median)).values())
        expect(best <= total, f"median distance sum {best} exceeds the door's {total}")


class TraceRoundtrip(Workload):
    """``run --trace`` then ``render`` traffic: record, write, read back,
    recount and render, all in one pass."""

    name = "trace-roundtrip"

    def build(self, params):
        self.regions = [
            ("rect", central_rect(params["side"], self.rng)),
            ("random", envgen.random_simply_connected(params["random_v"], self.rng.randrange(1 << 30))),
        ]
        self.ascii_frames = params["ascii_frames"]
        self.svg_frames = params["svg_frames"]
        self.svg_dir = os.path.join(OUT_DIR, "svg")

    def recorded_inputs(self):
        return [(r, "fcdfs", 0) for _, r in self.regions]

    def warm_up(self):
        r = envgen.rect(6, 6, (2, 2))
        trace, _ = engine.run(r, strategies_mod.make_strategy("fcdfs", r, 0), record=True)
        back = decode_trace(encode_trace(trace)[0])
        metrics.compute_metrics(back, back.region)
        render.ascii_frame(back, trace.outcome.t)

    def run_pass(self, tally):
        for label, r in self.regions:
            V = len(r.cells)
            res = run_op(
                tally, f"fcdfs record {label}", r, "fcdfs", 0, record=True,
                checks=[lambda m, V=V: expect_optimal(m, V)],
            )
            if res is None:
                continue
            trace, m = res
            shifted = (r.min_x, r.min_y) != (0, 0)

            def known(exc, shifted=shifted):
                return "roundtrip-negative-origin" if shifted and isinstance(exc, FrameMismatch) else None

            tally.op(f"round trip {label}", lambda: self._roundtrip(tally, trace, m), known)
            del trace, res

    def _roundtrip(self, tally, trace, m) -> None:
        text, records = encode_trace(trace)
        tally.counters["trace_records"] += records
        tally.counters["trace_bytes"] += len(text)
        back = decode_trace(text)
        del text
        recount = metrics.compute_metrics(back, back.region)
        expect(recount == m, f"recount {recount} != engine {m}")
        last = trace.outcome.t
        n = self.ascii_frames
        frame = None
        for k in range(1, n + 1):
            frame = render.ascii_frame(back, max(1, k * last // n))
        original = render.ascii_frame(trace, last)
        tally.counters["frames"] += n + 1
        written = render.svg_frames(back, max(1, last // self.svg_frames), self.svg_dir)
        tally.counters["frames"] += len(written)
        expect(len(written) >= self.svg_frames, f"{len(written)} SVG frames written")
        if frame != original:
            raise FrameMismatch(f"final frame of the round-tripped trace differs at t={last}")


class Baselines(Workload):
    """``dispersim compare`` traffic: the privileged leader-follower
    planners next to FCDFS, over a few seeds, checking off."""

    name = "baselines"

    def build(self, params):
        self.rect = central_rect(params["side"], self.rng)
        self.seeds = [self.rng.randrange(1 << 30) for _ in range(params["seeds"])]

    def warm_up(self):
        _warm_runs(BASELINES)

    def run_pass(self, tally):
        r = self.rect
        V = len(r.cells)
        cells = len(BASELINES) * len(self.seeds)
        try:
            table = metrics.compare_runs(r, list(BASELINES), self.seeds)
        except Exception as exc:  # the whole table failed: every cell did
            for i in range(cells):
                tally.fail(f"compare_runs cell {i}", exc)
            return
        for name, seed, m, err in table.rows:

            def cell(name=name, m=m, err=err):
                expect(m is not None, f"cell failed: {err}")
                tally.counters["robot_steps"] += m.total_travel
                tally.counters["robots_spawned"] += m.robots
                if m.outcome == "deadlock":
                    raise BaselineDeadlock(f"{name} outcome deadlock")
                expect(m.outcome == "covered", f"outcome {m.outcome}")
                if name == "fcdfs":
                    expect_optimal(m, V)

            def known(exc, name=name):
                return "bflf-deadlock" if name == "bflf" and isinstance(exc, BaselineDeadlock) else None

            tally.op(f"compare {name} seed={seed}", cell, known)
        means = {s.strategy: s.mean_total_moves for s in table.summaries}

        def ordered():
            expect(
                means["dflf"] > means["bflf"] > means["fcdfs"],
                f"mean total moves not ordered dflf > bflf > fcdfs: {means}",
            )

        tally.op("compare ordering", ordered)


WORKLOADS = {cls.name: cls for cls in (RectSweep, RandomChecked, TraceRoundtrip, Baselines)}

# Input sizes. "full" is what the benchmark measures; "tiny" only serves
# the smoke test.
SIZES = {
    "full": {
        "rect-sweep": {"side": 36, "gk": (2, 5)},
        "random-checked": {"regions": 40, "max_v": 400},
        "trace-roundtrip": {"side": 18, "random_v": 400, "ascii_frames": 8, "svg_frames": 3},
        "baselines": {"side": 12, "seeds": 16},
    },
    "tiny": {
        "rect-sweep": {"side": 8, "gk": (1, 5)},
        "random-checked": {"regions": 3, "max_v": 60},
        "trace-roundtrip": {"side": 6, "random_v": 40, "ascii_frames": 2, "svg_frames": 1},
        "baselines": {"side": 12, "seeds": 2},
    },
}

"""Per-layer tracing from outside the package.

While installed, the tracer replaces the public calls into each dispersim
module (``engine``, ``strategies``, ``metrics``, ``render``, ``envgen``,
``topology``, ``grid``) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. Spans stay in
memory until the pass ends. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans plus the
time outside any span add up to the pass time.

A call made from inside a span of the same module (``sum_distances``
calling ``bfs_distances``, ``from_ascii`` building a ``Region``) is
internal to that layer and records no span of its own.

Targets that a refactor has renamed or moved are skipped and reported on
stderr; their metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from dispersim import engine, envgen, grid, metrics, render, topology
from dispersim import strategies as strategies_mod

from . import probe, workloads

ORACLES = ("hall_tree", "geometric_median", "bfs_distances")

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "engine.run": "engine.run_self_s",
    "engine.step": "engine.step_self_s",
    "engine.checker_before": "engine.checker_before_s",
    "engine.checker_after": "engine.checker_after_s",
    "engine.trace_encode": "engine.trace_encode_s",
    "engine.trace_decode": "engine.trace_decode_s",
    "strategies.init": "strategies.init_s",
    "strategies.decide": "strategies.decide_s",
    "strategies.decide_all": "strategies.decide_all_s",
    "strategies.on_spawn": "strategies.on_spawn_s",
    "topology.classify": "topology.classify_s",
    "topology.distance": "topology.distance_s",
    "topology.sum_distances": "topology.sum_distances_s",
    "topology.oracle": "topology.oracle_s",
    "envgen.generate": "envgen.generate_s",
    "grid.region": "grid.region_build_s",
    "metrics.recount": "metrics.recount_s",
    "metrics.compare": "metrics.compare_s",
    "render.ascii": "render.ascii_s",
    "render.svg": "render.svg_s",
    "bench.sample": "bench.sample_s",
    "bench.probe": "bench.probe_s",
}

CALL_COUNT_METRICS = {
    "strategies.decide": "strategies.decide_calls",
    "strategies.decide_all": "strategies.decide_all_calls",
    "strategies.on_spawn": "strategies.on_spawn_calls",
    "topology.classify": "topology.classify_calls",
    "topology.distance": "topology.distance_calls",
    "topology.sum_distances": "topology.sum_distances_calls",
    "topology.oracle": "topology.oracle_calls",
    "grid.region": "grid.region_builds",
    "engine.step": "engine.steps",
}

# Every per-layer metric the traced pass reports: name -> (unit, better).
PER_LAYER = {
    **{metric: ("s", "lower") for metric in SELF_TIME_METRICS.values()},
    **{metric: ("count", "lower") for metric in CALL_COUNT_METRICS.values()},
    "engine.robots_spawned": ("count", "lower"),
    "engine.active_share": ("fraction", "higher"),
    "engine.checker_violations": ("count", "lower"),
    "engine.record_s": ("s", "lower"),
    "engine.trace_rows": ("count", "lower"),
    "engine.trace_json_mb": ("MB", "lower"),
    "envgen.regions_per_s": ("1/s", "higher"),
    "envgen.fallback_share": ("fraction", "lower"),
    "render.frames": ("count", "lower"),
    "bench.pass_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "bench.attributed_share": ("fraction", "higher"),
    "bench.spans": ("count", "lower"),
    "bench.trace_overhead": ("x", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent record or None]
        self.counts: Counter = Counter()
        self.active_samples: list[float] = []
        self.skipped: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.active_samples.clear()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, *, internal: str | None = None, count: str | None = None,
             errors: dict | None = None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``internal``: no span when the enclosing span's name starts with
        this prefix. ``count``: a counter bumped on every call.
        ``errors``: exception class name -> counter bumped when it escapes.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            parent = stack[-1] if stack else None
            if internal and parent is not None and parent[0].startswith(internal):
                return fn(*args, **kwargs)
            # The stack holds records, not indices: the probe's signal
            # handler may open a span between any two of these statements.
            rec = [name, 0.0, 0.0, parent]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if errors and type(exc).__name__ in errors:
                    counts[errors[type(exc).__name__]] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, name: str, **kw) -> bool:
        if owner is None or attr not in vars(owner):
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        orig = vars(owner)[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, **kw))
        return True

    def install(self) -> None:
        """Wrap every target; undo with :meth:`uninstall`."""
        self.skipped = []
        p = self._patch
        p(engine, "run", "engine.run")
        if p(getattr(engine, "Simulation", None), "step", "engine.step"):
            self._install_sampler()
        checker = _find_class("RunChecker")
        p(checker, "before_step", "engine.checker_before", errors={"InvariantViolation": "engine.checker_violations"})
        p(checker, "after_step", "engine.checker_after", errors={"InvariantViolation": "engine.checker_violations"})
        p(workloads, "encode_trace", "engine.trace_encode")
        p(workloads, "decode_trace", "engine.trace_decode")

        p(strategies_mod, "make_strategy", "strategies.init")
        for method in ("decide", "decide_all", "on_spawn"):
            for owner in _defining_classes(method):
                p(owner, method, f"strategies.{method}")

        p(topology, "classify_cells", "topology.classify", internal="topology.")
        p(getattr(topology, "DistanceCache", None), "distance", "topology.distance", internal="topology.")
        p(topology, "sum_distances", "topology.sum_distances", internal="topology.")
        p(metrics, "sum_distances", "topology.sum_distances", internal="topology.")
        for attr in ORACLES:
            p(topology, attr, "topology.oracle", internal="topology.")
        # The generator's fallback check for ambiguous attachments.
        p(envgen, "is_simply_connected", "topology.oracle", count="envgen.fallbacks")

        for attr in ("random_simply_connected", "rect", "g_k"):
            p(envgen, attr, "envgen.generate")
        p(grid.Region, "__init__", "grid.region", internal="grid.")
        p(grid, "from_ascii", "grid.region", internal="grid.")

        p(metrics, "compute_metrics", "metrics.recount")
        p(metrics, "compare_runs", "metrics.compare")
        p(render, "ascii_frame", "render.ascii")
        p(render, "svg_frames", "render.svg")
        p(probe, "kernel", "bench.probe")

        if self.skipped:
            print("tracer: not found, reported as 0: " + ", ".join(self.skipped), file=sys.stderr)

    def _install_sampler(self) -> None:
        """Sample the active share of spawned robots before every step, in
        a span of its own so its cost shows as tracing overhead."""
        samples = self.active_samples

        def sample(sim):
            robots = getattr(sim, "robots", None)
            if robots:
                samples.append(sum(1 for r in robots if r.active) / len(robots))

        sample = self.wrap(sample, "bench.sample")
        traced_step = engine.Simulation.step

        @functools.wraps(traced_step)
        def step(sim, *args, **kwargs):
            sample(sim)
            return traced_step(sim, *args, **kwargs)

        self._patches.append((engine.Simulation, "step", traced_step))
        engine.Simulation.step = step

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def summarize(self, pass_s: float, counters: Counter) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans = self.spans
        child: dict[int, float] = {}  # id(record) -> summed child durations
        top = 0.0
        for name, t0, t1, parent in spans:
            if parent is None:
                top += t1 - t0
            else:
                child[id(parent)] = child.get(id(parent), 0.0) + (t1 - t0)
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for rec in spans:
            name, t0, t1, _ = rec
            self_s[name] += (t1 - t0) - child.get(id(rec), 0.0)
            total_s[name] += t1 - t0
            calls[name] += 1
        out = {metric: self_s[name] for name, metric in SELF_TIME_METRICS.items()}
        out.update({metric: float(calls[name]) for name, metric in CALL_COUNT_METRICS.items()})
        samples = self.active_samples
        gen_calls = calls["envgen.generate"]
        out.update(
            {
                "engine.robots_spawned": float(counters["robots_spawned"]),
                "engine.active_share": sum(samples) / len(samples) if samples else 0.0,
                "engine.checker_violations": float(self.counts["engine.checker_violations"]),
                "engine.trace_rows": float(counters["trace_records"]),
                "engine.trace_json_mb": counters["trace_bytes"] / 1e6,
                "envgen.regions_per_s": gen_calls / total_s["envgen.generate"] if gen_calls else 0.0,
                "envgen.fallback_share": (
                    self.counts["envgen.fallbacks"] / counters["attached_cells"]
                    if counters["attached_cells"] else 0.0
                ),
                "render.frames": float(counters["frames"]),
                "bench.pass_s": pass_s,
                "bench.self_s": pass_s - top,
                "bench.attributed_share": top / pass_s if pass_s > 0 else 0.0,
                "bench.spans": float(len(spans)),
            }
        )
        return out

    def write(self, path: str) -> None:
        """Write the spans of the last pass, one per line, tab separated."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                up = -1 if parent is None else index[id(parent)]
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{up}\n")


def _find_class(name: str):
    """A class of the package by name, wherever a refactor has put it."""
    for modname, module in sorted(sys.modules.items()):
        if (modname == "dispersim" or modname.startswith("dispersim.")) and isinstance(
            getattr(module, name, None), type
        ):
            return getattr(module, name)
    return None


def _defining_classes(method: str) -> list[type]:
    """The strategy classes that define ``method`` themselves, each once
    (``rand-corner`` inherits ``decide`` from ``fcdfs``)."""
    base = getattr(strategies_mod, "Strategy", object)
    out = []
    for cls in strategies_mod.STRATEGIES.values():
        for klass in cls.__mro__:
            if klass is base or klass is object:
                break
            if method in vars(klass):
                if klass not in out:
                    out.append(klass)
                break
    return out

"""Run one benchmark workload and print its metrics.

    python3 dispbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports dispersim from ``src/`` of
the same checkout and from nowhere else.

Load model: a closed loop in one process and one thread. The workload's
operations run back to back, each starting when the previous one has
returned; the loop repeats the workload's pass until ``--seconds`` have
elapsed. The simulator is a batch tool, so the rate reported is simulated
work per host second at the stated input sizes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
the traced passes. Lines before it repeat every metric with its unit for
a reader.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from dispbench import probe  # noqa: E402  (needs ROOT on the path)
SETUP_SAMPLES = 7
# Set-up takes about 0.15 s, so it is probed more often than a pass.
SETUP_PROBE_PERIOD_S = 0.01

END_TO_END_UNITS = {
    "robot_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package_in_child() -> None:
    """Start a fresh interpreter that imports the package, and wait."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import dispersim, dispersim.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def load_package():
    """Import dispersim from this checkout's src/; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "dispersim", "__init__.py")):
        print(f"error: no dispersim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import dispersim

    if os.path.dirname(os.path.dirname(os.path.abspath(dispersim.__file__))) != SRC:
        print(f"error: imported dispersim from {dispersim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Pass(NamedTuple):
    raw_s: float  # wall time without the probe's own
    scaled_s: float
    robot_steps: int
    layers: dict  # per-layer metrics of a traced pass


def run_passes(workload, tally, seconds: float, tracer=None) -> list[Pass]:
    """Repeat the workload's pass until ``seconds`` have elapsed (at
    least once), each under the probe and, if given, the tracer."""
    out = []
    started = time.perf_counter()
    while not out or time.perf_counter() - started < seconds:
        tally.begin_pass()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        with probe.Probe() as timer:
            if tracer is not None:
                tracer.install()
            try:
                workload.run_pass(tally)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        tally.end_pass()
        layers = tracer.summarize(timer.wall_s, tally.counters) if tracer is not None else {}
        out.append(Pass(timer.work_s, timer.scaled_s, tally.counters["robot_steps"], layers))
    return out


def scaled_rate(passes) -> float:
    return statistics.median(p.robot_steps / p.scaled_s for p in passes)


def record_seconds(workload) -> float:
    """Recorded minus unrecorded run time of the workload's recorded
    inputs, median of three of each, untraced."""
    from dispersim import engine, strategies

    total = 0.0
    for region, name, seed in workload.recorded_inputs():
        times = {}
        for record in (False, True):
            samples = []
            for _ in range(3):
                strategy = strategies.make_strategy(name, region, seed)
                t0 = time.perf_counter()
                engine.run(region, strategy, record=record)
                samples.append(time.perf_counter() - t0)
            times[record] = statistics.median(samples)
        total += times[True] - times[False]
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    from dispbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    # Set-up, repeated: a fresh interpreter importing the package, then
    # building the workload's fixed inputs and warming up. The workload
    # object of the last repetition is the one measured.
    setups = []
    for _ in range(SETUP_SAMPLES):
        with probe.Probe(SETUP_PROBE_PERIOD_S) as timer:
            import_package_in_child()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
            workload.warm_up()
        setups.append(timer.scaled_s)
    setup_s = statistics.median(setups)

    tally = workloads.Tally()
    unscaled = None
    if args.trace:
        untraced = run_passes(workload, tally, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = run_passes(workload, tally, args.seconds / 2, tracer)
        tracer.write(os.path.join(workloads.OUT_DIR, f"spans-{args.workload}.tsv"))
        layers = {
            name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers
        }
        traced_rate = scaled_rate(traced)
        layers["bench.trace_overhead"] = scaled_rate(untraced) / traced_rate if traced_rate else 0.0
        layers["engine.record_s"] = record_seconds(workload)
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, (unit, _) in tracing.PER_LAYER.items()
        }
        passes = len(traced)
    else:
        measured = run_passes(workload, tally, args.seconds)
        values = {
            "robot_steps_per_s": scaled_rate(measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "success_rate": 1 - tally.failed / tally.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        passes = len(measured)
        unscaled = statistics.median(p.robot_steps / p.raw_s for p in measured)

    correct = tally.unexpected_count == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {tally.failed / tally.attempted:.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations failed)")
    if unscaled is not None:
        print(f"  robot-steps per unscaled wall second {unscaled:.6g} (not gated)")
    for name, n in sorted(tally.known.items()):
        print(f"  known failure {name}: {n}")
    if not correct:
        print(f"  unexpected failures: {tally.unexpected_count}")
        for line in tally.unexpected:
            print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

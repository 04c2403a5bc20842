"""Command-line interface.

Exit codes encode run outcomes so experiment scripts can branch on them
without parsing output: 0 covered, 1 input/generator error or failed
write, 2 bad arguments, unknown strategy or ``--check`` on a strategy
that declares no runtime invariants, 3 deadlock, 4 step limit, 5
invariant violation, 6 collision (two robots targeted one cell, or a
move targeted an occupied one or left the region: a run's outcome, so
``run`` still prints its CSV row and writes its ``--trace``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from collections import Counter

from . import envgen, render, topology
from .engine import SimulationTrace, run
from .errors import BadParameters, DispersimError, InvariantViolation
from .grid import from_ascii
from .metrics import CSV_HEADER, compare_runs
from .strategies import STRATEGIES, make_strategy

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3
EXIT_LIMIT = 4
EXIT_INVARIANT = 5
EXIT_COLLISION = 6

_OUTCOME_EXITS = {
    "covered": EXIT_OK, "deadlock": EXIT_DEADLOCK, "limit": EXIT_LIMIT, "collision": EXIT_COLLISION,
}


def _load_region(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return from_ascii(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DispersimError(f"cannot read {path}: {exc}") from exc


def _parse_door(text: str):
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise BadParameters(f"door must be X,Y integers, got {text!r}") from None


def _at_least_one(flag: str, value) -> None:
    if value is not None and value < 1:
        raise BadParameters(f"{flag} must be >= 1")


@contextlib.contextmanager
def _output(path: str | None):
    """Make sure ``path`` can be written before the work that fills it,
    so a bad path fails before any simulation runs. A file this creates
    is removed again when the work raises; an existing one is left as it
    was until the work writes it."""
    if path is None:
        yield
        return
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def cmd_gen(args) -> int:
    if args.shape == "rect":
        if args.w is None or args.h is None:
            raise BadParameters("rect needs --w and --h")
        door = _parse_door(args.door) if args.door else (0, 0)
        region = envgen.rect(args.w, args.h, door)
    elif args.shape == "random":
        if args.cells is None:
            raise BadParameters("random needs --cells")
        region = envgen.random_simply_connected(args.cells, args.seed)
    else:  # gk
        if args.r is None or args.k is None:
            raise BadParameters("gk needs --r and --k")
        region = envgen.g_k(args.r, args.k)
    text = region.to_ascii()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    flag = str(topology.is_simply_connected(region)).lower()
    print(f"V={len(region.cells)} simply_connected={flag}")
    return EXIT_OK


def cmd_run(args) -> int:
    _at_least_one("--max-steps", args.max_steps)
    region = _load_region(args.env)
    strategy = make_strategy(args.strategy, region, args.seed)
    if args.check and strategy.invariants is None:
        raise BadParameters(f"{args.strategy} declares no runtime invariants to check")
    try:
        with _output(args.trace):
            trace, metrics = run(
                region, strategy, max_steps=args.max_steps, record=args.trace is not None, check=args.check
            )
            if args.trace:
                with open(args.trace, "w", encoding="utf-8") as fh:
                    json.dump(trace.to_json_dict(), fh)
                    fh.write("\n")
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if trace.outcome.kind == "collision":
        print(f"collision: {trace.outcome.message}", file=sys.stderr)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerow(metrics.csv_fields(args.env, region, args.strategy, args.seed))
    return _OUTCOME_EXITS[metrics.outcome]


def cmd_compare(args) -> int:
    _at_least_one("--reps", args.reps)
    _at_least_one("--max-steps", args.max_steps)
    region = _load_region(args.env)
    # Each name once, in first-occurrence order.
    names = list(dict.fromkeys(s.strip() for s in args.strategies.split(",") if s.strip()))
    if not names:
        raise BadParameters("--strategies names no strategy")
    for name in names:
        if name not in STRATEGIES:
            raise BadParameters(f"unknown strategy: {name!r}")
    seeds = [args.seed + i for i in range(args.reps)]
    with _output(args.csv):
        table = compare_runs(region, names, seeds, max_steps=args.max_steps)
        if args.csv:
            header = CSV_HEADER.split(",")
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for name, seed, metrics, err in table.rows:
                    if metrics is not None:
                        writer.writerow(metrics.csv_fields(args.env, region, name, seed))
                    else:
                        row = [args.env, *region.door, len(region.cells), name, seed, f"error:{err}"]
                        writer.writerow(row + [""] * (len(header) - len(row)))
    # A run that deadlocked, hit the step limit or collided counts in
    # ``runs`` and in its outcome's column; a run that raised counts only
    # in ``failed``.
    outcomes = Counter((name, m.outcome) for name, _, m, _ in table.rows if m is not None)
    width = max(len("strategy"), *map(len, names))
    print(f"{'strategy':<{width}}  runs  deadlock  limit  collision  failed  total (max)")
    for summary in table.summaries:
        name = summary.strategy
        entry = summary.table_entry() if summary.runs else "-"
        print(
            f"{name:<{width}}  {summary.runs:>4}  {outcomes[name, 'deadlock']:>8}  "
            f"{outcomes[name, 'limit']:>5}  {outcomes[name, 'collision']:>9}  "
            f"{summary.failures:>6}  {entry}"
        )
    return EXIT_OK


def cmd_oracle(args) -> int:
    region = _load_region(args.env)
    simply = topology.is_simply_connected(region)
    kinds = {topology.CORNER: 0, topology.HALL: 0, topology.INTERIOR: 0}
    for cell in region.cells:
        kinds[topology.classify_cells(region.cells, cell).kind] += 1
    dist = topology.bfs_distances(region, region.door)
    print(f"V={len(region.cells)}")
    print(f"simply_connected={str(simply).lower()}")
    print(f"corners={kinds[topology.CORNER]}")
    print(f"halls={kinds[topology.HALL]}")
    # The hall tree and the median are defined on simply connected regions.
    components, median = "n/a", "n/a"
    if simply:
        components = len(topology.hall_tree(region).components)
        median = ";".join(f"{x},{y}" for x, y in sorted(topology.geometric_median(region)))
    print(f"hall_tree_components={components}")
    print(f"sum_distances={sum(dist.values())}")
    print(f"geometric_median={median}")
    print(f"max_distance={max(dist.values())}")
    return EXIT_OK


def cmd_render(args) -> int:
    _at_least_one("--every", args.every)
    try:
        with open(args.trace, encoding="utf-8") as fh:
            data = json.load(fh)
        trace = SimulationTrace.from_json_dict(data)
    except (OSError, ValueError, RecursionError) as exc:  # JSON nested too deep: RecursionError
        print(f"bad trace: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.format == "ascii":
        for t, frame in render.ascii_frames(trace, render.frame_steps(trace, args.every)):
            print(f"t={t}")
            print(frame)
            print()
    else:
        out = args.out or "."
        for path in render.svg_frames(trace, args.every, out):
            print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Uniform dispersal simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an environment map")
    p.add_argument("--shape", choices=["rect", "random", "gk"], required=True)
    p.add_argument("--w", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--door", help="door cell as X,Y (rect only; default 0,0)")
    p.add_argument("--cells", type=int, help="cell count for random regions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="simulate one strategy on a map")
    p.add_argument("--env", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", help="write the run trace as JSON")
    p.add_argument("--check", action="store_true", help="assert the strategy's runtime invariants")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several strategies and tabulate")
    p.add_argument("--env", required=True)
    p.add_argument("--strategies", required=True, help="comma-separated names")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--csv", help="write per-run rows to this file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="print topology facts about a map")
    p.add_argument("--env", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="render a trace as ASCII or SVG frames")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--every", type=int, default=1)
    p.add_argument("--out", help="output directory for SVG frames")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DispersimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Synchronous Look-Compute-Move scheduler.

Each step: take an occupancy snapshot, let the strategy decide every
active robot's action (a local strategy from that robot's 8-bit ring
mask, 8 reads of ``Simulation.blocked`` around its cell's int, and its
memory alone), apply all moves simultaneously (targets must have been
unoccupied in the snapshot), then settle robots and spawn a new one at
the door if the door was free in the snapshot.
Runs end on full coverage, an exact configuration repeat (deadlock), a
step limit or a refused step (collision). :meth:`Simulation.finish`
runs the steps in one loop, and :meth:`Simulation.step` runs one
iteration of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MapError
from .grid import DIR_NAMES, Cell, Region
from .metrics import RunMetrics, run_metrics

# Action codes: 0..3 move in that direction, then stay, then settle.
A_STAY = 4
A_SETTLE = 5

# A recorded action log in JSON: one letter per code, "URDL.X".
ACTION_LETTERS = DIR_NAMES + ".X"
_TO_LETTERS = bytes.maketrans(bytes(range(len(ACTION_LETTERS))), ACTION_LETTERS.encode())
_TO_CODES = bytes.maketrans(ACTION_LETTERS.encode(), bytes(range(len(ACTION_LETTERS))))
_STAYS = bytes((A_STAY, A_SETTLE))  # the codes that leave a robot in place


class Robot:
    """One robot of a run. ``pos`` is its cell and ``idx`` the same cell
    as the region's :class:`~dispersim.grid.Layout` numbers it; the engine
    moves both together. ``mem`` is everything else it carries from one
    step to the next, set by the strategy. ``spawned`` is the step it emerged at the
    door and ``settled`` the step it settled (None while active), so its
    travel is a difference of the two
    (:func:`~dispersim.metrics.run_metrics`). ``log`` is its action log
    in a recorded run, in a trace played back by :class:`_LogPlayer` or
    rebuilt by :meth:`SimulationTrace.states`, else None."""

    __slots__ = ("id", "pos", "idx", "spawned", "settled", "mem", "moves", "log")

    def __init__(self, rid: int, pos: Cell, mem, idx: int | None = None, spawned: int = 0):
        self.id = rid
        self.pos = pos
        self.idx = idx
        self.spawned = spawned
        self.settled = None
        self.mem = mem
        self.moves = 0
        self.log = None

    @property
    def active(self) -> bool:
        return self.settled is None


@dataclass(frozen=True)
class Outcome:
    """How a run ended, after step ``t``. ``message`` names the step a
    collision refused, or the step a deadlock's configuration first
    appeared and the cycle's period, and stays out of equality and of
    the JSON. The
    refused step moves, settles, spawns and records nothing, but the
    strategy has already decided it: the robots' memories are those it
    wrote for that step."""

    kind: str  # "covered" | "deadlock" | "limit" | "collision"
    t: int
    message: str = field(default="", compare=False)


class SimulationTrace:
    """A recorded run: one action log per robot, the paper's own unit.

    ``robots`` is the run's list of :class:`Robot` records, in id order:
    ``robot.spawned`` is the step it emerged at the door and
    ``robot.log`` its action log, one code per step from the next step
    on, 0..3 a move, :data:`A_STAY` or :data:`A_SETTLE`, ending at its
    settle or at the end of the run. So a trace costs O(travel) bytes.
    A trace is built whole from its run (:attr:`Simulation.trace`):
    ``robots`` is the simulation's own list in a recorded run and None
    in one made without recording, and ``outcome`` is the run's, None
    while it runs. Every reader but :meth:`states` needs the outcome
    (:meth:`ended`), so it raises ValueError on a run still going.

    :meth:`from_json_dict` checks a trace read from outside by running
    its logs through the engine's one step loop
    (:meth:`Simulation.finish`), the one home of the movement, spawn and
    coverage rules, and keeps the robots of that run, so a read trace
    holds the same records as a live one.
    :meth:`states` trusts the trace and jumps each robot along its log,
    so the recount and the renderers read a trace in O(robots) per frame
    plus the bytes they skip.
    """

    def __init__(
        self, region: Region, strategy: str, seed: int, robots: list[Robot] | None, outcome: Outcome | None
    ):
        self.region = region
        self.strategy = strategy
        self.seed = seed
        self.robots = robots
        self.outcome = outcome

    def _recorded(self) -> list[Robot]:
        if self.robots is None:
            raise ValueError("trace was recorded without logs")
        return self.robots

    def ended(self) -> Outcome:
        """The run's outcome; ValueError while the run goes on."""
        if self.outcome is None:
            raise ValueError("the run has no outcome yet")
        return self.outcome

    def states(self, steps):
        """Yield ``(t, robots)`` at the end of each step t of the
        ascending ``steps``, trusting the trace.

        ``robots`` lists a :class:`Robot` per robot spawned by t, in id
        order, holding its ``log``; its ``mem`` is the number of codes of
        the log applied so far, as in :class:`_LogPlayer`. The next step
        updates the list in place.

        Between two steps each active robot jumps along its log by
        ``count`` over the slice it skips. Settled robots are never read
        again. Of the trace's robots only ``id``, ``spawned`` and ``log``
        are read, never the ``pos``, ``moves`` or ``settled`` the engine
        keeps, so a trace of a run still going reads right.
        """
        recorded = self._recorded()
        door = self.region.door
        robots: list[Robot] = []
        active: list[Robot] = []
        for t in steps:
            while len(robots) < len(recorded) and recorded[len(robots)].spawned <= t:
                src = recorded[len(robots)]
                robot = Robot(src.id, door, 0, spawned=src.spawned)
                robot.log = src.log
                robots.append(robot)
                active.append(robot)
            settled = False
            for robot in active:
                log = robot.log
                k = robot.mem
                j = min(t - robot.spawned, len(log))
                if j <= k:
                    continue
                robot.mem = j
                span = log[k:j].rstrip(_STAYS)  # up to the last move
                if span:
                    up, right = span.count(0), span.count(1)
                    down, left = span.count(2), span.count(3)
                    robot.pos = (robot.pos[0] + right - left, robot.pos[1] + up - down)
                    robot.moves += up + right + down + left
                if log[j - 1] == A_SETTLE:
                    robot.settled = robot.spawned + j
                    settled = True
            if settled:
                active = [rb for rb in active if rb.settled is None]
            yield t, robots

    def to_json_dict(self) -> dict:
        robots = self._recorded()
        outcome = self.ended()
        region = self.region
        return {
            "env": region.to_ascii(),
            "origin": [region.min_x, region.min_y],
            "strategy": self.strategy,
            "seed": self.seed,
            "robots": [[r.spawned, r.log.translate(_TO_LETTERS).decode()] for r in robots],
            "outcome": {"kind": outcome.kind, "t": outcome.t},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimulationTrace":
        """Read a trace written by :meth:`to_json_dict`.

        The data comes from outside the program, so it is checked in
        full: the types of every field and row here, then every step by
        the engine itself, a :class:`Simulation` whose strategy plays the
        logs back (:class:`_LogPlayer`). The trace must be the run that
        engine makes: every robot spawned at its step, an ``X`` only as
        the last code of a log, the log of a robot still active ending at
        the outcome, and the same outcome. A recorded ``deadlock`` also
        matches a ``limit`` at its step, since the player cannot see the
        memories that repeated: read back, a deadlock certifies its step
        count, not the cycle. So does a recorded ``collision``, whose
        refused step is in no log. Logs that collide raise ValueError
        with the engine's message. The engine stops at its own outcome,
        so the work is bounded by the size of the data.

        A malformed or inconsistent trace raises ValueError, as does a
        trace without ``robots`` (the older event log and per-step
        snapshot formats), which is no longer read.
        """
        from .grid import from_ascii

        if not isinstance(data, dict):
            raise ValueError("a trace is a JSON object")
        if "robots" not in data:
            raise ValueError(
                "trace without 'robots': this format (an event log or per-step "
                "snapshots) is no longer read; record the run again"
            )
        try:
            env, origin = data["env"], tuple(data["origin"])
            if not isinstance(env, str):
                raise ValueError(f"env must be an ASCII map string, got {type(env).__name__}")
            if [type(v) for v in origin] != [int, int]:
                raise ValueError(f"origin must be two integers, got {data['origin']!r}")
            region = from_ascii(env, origin)
            outcome = Outcome(data["outcome"]["kind"], data["outcome"]["t"])
            strategy, seed, rows = data["strategy"], data["seed"], data["robots"]
        except MapError as exc:
            raise ValueError(f"bad env: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed trace: {type(exc).__name__}: {exc}") from exc
        if type(strategy) is not str:
            raise ValueError(f"strategy must be a string, got {type(strategy).__name__}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
        if outcome.kind not in ("covered", "deadlock", "limit", "collision"):
            raise ValueError(f"unknown outcome kind {outcome.kind!r}")
        if type(outcome.t) is not int or outcome.t < 0:
            raise ValueError(f"outcome t must be an integer >= 0, got {outcome.t!r}")
        if type(rows) is not list:
            raise ValueError(f"robots must be a list, got {type(rows).__name__}")
        letters = ACTION_LETTERS.encode()
        parsed = []
        for rid, row in enumerate(rows, 1):
            if type(row) is not list or [type(v) for v in row] != [int, str]:
                raise ValueError(f"robot {rid}: a row is [spawn t, action letters]")
            spawn, actions = row
            raw = actions.encode()
            if raw.translate(None, letters):
                i, ch = next((i, ch) for i, ch in enumerate(actions) if ch not in ACTION_LETTERS)
                raise ValueError(f"t={spawn + i + 1}: unknown action {ch!r} for robot {rid}")
            parsed.append((spawn, raw.translate(_TO_CODES)))
        last = outcome.t
        sim = Simulation(region, _LogPlayer(parsed), record=False)
        sim.finish(last)
        ran = sim.outcome
        if ran.kind == "collision":
            raise ValueError(ran.message)
        if ran != outcome and (outcome.kind in ("covered", "limit") or ran != Outcome("limit", last)):
            raise ValueError(
                f"outcome {outcome.kind} at step {last}, but the logs run to {ran.kind} at step {ran.t}"
            )
        if len(sim.robots) < len(parsed):
            rid = len(sim.robots) + 1
            raise ValueError(
                f"robot {rid} spawned at step {parsed[rid - 1][0]}, "
                f"but the door is not free for it by step {last}"
            )
        for robot in sim.robots:  # each log played to its end, an X only as its last code
            if robot.mem < len(robot.log):
                end = f"the outcome at step {last}" if robot.active else "its settle"
                raise ValueError(f"robot {robot.id} has actions past {end}")
        return cls(region, strategy, seed, sim.robots, outcome)


class _LogPlayer:
    """The strategy that plays a trace's logs back, so that
    :meth:`SimulationTrace.from_json_dict` checks a trace by running it.

    ``rows`` holds one ``(spawn step, action codes)`` pair per robot, in
    id order. A robot may emerge only at the step its row spawns it, and
    takes its log as ``robot.log``. Its memory is its position in the
    log: 0 at spawn, plus 1 on every step it acts. So no configuration
    repeats while a robot acts, and it declares
    ``never_repeats_while_active``: the engine takes no deadlock key
    then. One with no robot active, a settled robot on the door, repeats
    as in a recorded run.
    """

    never_repeats_while_active = True

    def __init__(self, rows: list[tuple[int, bytes]]):
        self.rows = rows

    def decide_all(self, sim) -> list[int]:
        actions = []
        for r in sim.active:
            i = r.mem
            if i == len(r.log):
                raise ValueError(f"t={sim.t + 1}: robot {r.id} is active but has no action")
            actions.append(r.log[i])
            r.mem = i + 1
        return actions

    def on_spawn(self, sim, robot) -> None:
        t = sim.t + 1  # the step in progress
        rid = robot.id
        if rid > len(self.rows):
            raise ValueError(f"t={t}: the door is free, but the trace spawns no robot {rid}")
        spawn, robot.log = self.rows[rid - 1]
        if spawn != t:
            raise ValueError(f"t={t}: the door is free, but the trace spawns robot {rid} at step {spawn}")
        robot.mem = 0


class Simulation:
    """One run in progress.

    ``robots`` holds every robot ever spawned, in id order; ``active``
    holds the robots that have not settled, also in id order. Settled
    robots never act again, so every per-step walk reads ``active`` only
    and a step costs O(active robots). Recording appends one action code
    to the log of each robot of ``active``.

    Inside the engine a cell is an int, numbered by ``layout``, the
    region's own :class:`~dispersim.grid.Layout`, ``region.layout``.
    ``blocked``, a list of the ints 0 and 1, is 1 for walls, padding and
    occupied cells, a ring read is 8 indexed reads of it at the
    ``layout.ring`` offsets (inline in the default
    ``Strategy.decide_all``, its one reader) and a move adds one of the
    4 ``layout.dirs``. ``blocked`` is the one record of which cells hold
    a robot, and ``residual``, a second list of ints, the one record of
    settled cells: the residual region, 1 at each region cell that holds
    no settled robot. The step's settle loop alone clears a cell of it;
    strategies only read it. Both are lists of ints, not bytearrays,
    because CPython 3.11 specializes indexing a list by an int and not
    indexing a bytearray, and every ring read and move check indexes
    them. Cells stay ``(x, y)`` tuples at the public boundary:
    ``robot.pos`` moves together with ``robot.idx``.

    A step makes one pass over its moves. A move check is one read of
    ``blocked``: each move is checked, marks its target there and is
    applied at once, so a second robot aiming at the same cell fails the
    same test, and the cells the movers leave stay marked until the pass
    is over, so no robot enters a cell left in the same step. A move
    that fails the check, a collision, ends the run at the last step
    done: the step puts every earlier mover of the pass back, looks up
    the one that took the target only then, and moves, settles, spawns
    and records nothing. The robots' memories are the exception: the
    strategy wrote them when it decided the refused step.

    Every step asks ``strategy.decide_all`` for a list of one action per
    robot of ``active``, in order, and hands a new robot to
    ``strategy.on_spawn``; :attr:`trace` records ``strategy.name`` and
    ``strategy.seed``. A list
    of another length raises ValueError before anything moves.
    ``checker``, when given, is called as ``before_step(sim)`` and
    ``after_step(sim, actions, settled_now)``, ``actions`` lined up with
    ``active`` as ``before_step`` saw it, and raises to stop the run.

    A deadlock is a configuration seen twice: the active robots' cells
    and memories (:meth:`_config_key`), two flat tuples in ``active``
    order. So a strategy keeps in ``robot.mem`` every part of its state
    that can change while no robot spawns or settles. The seen set is cleared on every settle and every
    spawn, which loses no repeat: the number of active robots is part of
    the key, and between two settles it only grows, so no key taken
    before a spawn can equal one taken after it. ``_seen_configs`` maps
    each key of the steps since the last settle or spawn to the step it
    was taken, so a deadlock's message names the step its configuration
    first appeared and the cycle's period. A strategy that declares
    ``never_repeats_while_active`` (``dflf`` and :class:`_LogPlayer`,
    whose every active memory grows each step) can repeat a key only
    with no robot active, so only such steps take one; one that does
    not declare it is keyed every step.
    """

    def __init__(
        self,
        region: Region,
        strategy,
        record: bool = True,
        checker=None,
    ):
        self.region = region
        self.strategy = strategy
        self.robots: list[Robot] = []
        self.active: list[Robot] = []
        self.t = 0
        self.outcome: Outcome | None = None
        self.record = record
        self.checker = checker
        self._seen_configs: dict = {}

        self.layout = layout = region.layout
        self.blocked = [0 if cell is not None else 1 for cell in layout.cell_at]
        self.residual = [1 if cell is not None else 0 for cell in layout.cell_at]

    @property
    def trace(self) -> SimulationTrace:
        """The run so far as a :class:`SimulationTrace`, built from the
        run itself: its robots when it records, and its outcome."""
        strategy = self.strategy
        robots = self.robots if self.record else None
        return SimulationTrace(self.region, strategy.name, strategy.seed, robots, self.outcome)

    def step(self) -> None:
        """Advance one synchronized Look-Compute-Move step: one iteration
        of the loop :meth:`finish` runs."""
        assert self.outcome is None, "simulation already terminated"
        self._advance(self.t + 1)

    def finish(self, max_steps: int) -> None:
        """Step until the run ends, a ``limit`` outcome once step
        ``max_steps`` is done."""
        if self.outcome is None and self.t < max_steps:
            self._advance(max_steps)
        if self.outcome is None:
            self.outcome = Outcome("limit", self.t)

    def _advance(self, last: int) -> None:
        """Run steps until the run ends or step ``last`` is done: the one
        loop of :meth:`step` and :meth:`finish`, with the run's fields
        bound once."""
        decide_all, on_spawn = self.strategy.decide_all, self.strategy.on_spawn
        checker, robots = self.checker, self.robots
        blocked, residual, seen = self.blocked, self.residual, self._seen_configs
        layout = self.layout
        offsets, cell_at, door = layout.dirs, layout.cell_at, layout.door
        door_cell, n_cells = self.region.door, len(self.region.cells)
        record = self.record
        keyed = not getattr(self.strategy, "never_repeats_while_active", False)
        t = self.t
        while t < last:
            t += 1
            if checker is not None:
                checker.before_step(self)
            spawn_pending = not blocked[door]
            stepping = self.active  # robots active at the start of the step
            actions = decide_all(self)
            if len(actions) != len(stepping):
                raise ValueError(f"t={t}: {len(actions)} actions for {len(stepping)} active robots")

            # One pass: a move is checked against the snapshot and the
            # targets marked so far, marked and applied at once. The cells
            # it leaves stay marked until the pass is over.
            sources = []
            settled_now = []
            for robot, act in zip(stepping, actions):
                if act == A_SETTLE:
                    settled_now.append(robot)
                    continue
                if act == A_STAY:
                    continue
                source = robot.idx
                target = source + offsets[act]
                if blocked[target]:
                    why = self._refuse(robot, act, actions, sources)
                    self.outcome = Outcome("collision", t - 1, f"t={t}: {why}")
                    return
                blocked[target] = 1
                robot.idx = target
                robot.pos = cell_at[target]
                robot.moves += 1
                sources.append(source)
            for source in sources:
                blocked[source] = 0
            if record:
                for robot, act in zip(stepping, actions):
                    robot.log.append(act)
            if settled_now:
                for robot in settled_now:
                    robot.settled = t
                    residual[robot.idx] = 0
                self.active = [r for r in stepping if r.settled is None]

            # Spawn: door free in the snapshot and still free after moves
            # (a robot cycling back through the door suppresses emergence).
            spawned = spawn_pending and not blocked[door]
            if spawned:
                robot = Robot(len(robots) + 1, door_cell, None, door, t)
                robots.append(robot)
                self.active.append(robot)
                blocked[door] = 1
                if record:
                    robot.log = bytearray()
                on_spawn(self, robot)

            self.t = t
            if checker is not None:
                checker.after_step(self, actions, settled_now)

            if len(robots) == n_cells:
                self.outcome = Outcome("covered", t)
                return
            if settled_now or spawned:
                seen.clear()
            if keyed or not self.active:
                first = seen.setdefault(self._config_key(), t)
                if first != t:
                    why = f"t={t}: the configuration of step {first} repeats (period {t - first})"
                    self.outcome = Outcome("deadlock", t, why)
                    return

    def _refuse(self, robot: Robot, act: int, actions: list[int], sources: list[int]) -> str:
        """Undo the moves the pass made before ``robot``'s move ``act``,
        which it refuses, and say why. ``active`` is still the list the
        step decided, and ``sources`` the cells its movers left."""
        target = robot.idx + self.layout.dirs[act]
        cell = self.layout.cell_at[target]
        why = None
        moved = iter(sources)
        for mover, a in zip(self.active, actions):
            if mover is robot:
                break
            if a == A_STAY or a == A_SETTLE:
                continue
            if mover.idx == target:
                why = f"robots {mover.id} and {robot.id} both target {cell}"
            self.blocked[mover.idx] = 0
            mover.idx = source = next(moved)
            mover.pos = self.layout.cell_at[source]
            mover.moves -= 1
        if why is None:
            where = "off the region" if cell is None else f"into occupied cell {cell}"
            why = f"robot {robot.id} at {robot.pos} moved {DIR_NAMES[act]} {where}"
        return why

    def _config_key(self):
        """The run's configuration: two flat tuples in ``active`` order,
        the active robots' cells, as indices, then their memories.

        Both tuples follow the one id order, so two keys are equal
        exactly when every active robot has the same cell and memory. A
        key is three tuples whatever the active count, the pair and its
        halves, with no per-robot object, and the garbage collector
        stops tracking the cells' tuple, all ints, once it has seen it.
        So a cycle of period P keeps O(P x active) pointers in the seen
        set and about 2P tracked tuples, where a pair per robot made
        P x (active + 1).

        A memory enters the key as itself. A local strategy interns
        memories by ``key()``, so two robots' memories are one object
        exactly when their keys are equal.

        Settled robots are left out: the seen set is cleared on every
        settle, so between two clears they are the same in every key. A
        spawn clears it too; the key's length, the active count, only
        grows between settles, so no earlier key can equal a later one.
        """
        # One loop with two appends: under CPython 3.11 it costs no more
        # than two comprehensions at any active count, and about 40% less
        # at 1-3 active robots.
        cells = []
        mems = []
        for r in self.active:
            cells.append(r.idx)
            mems.append(r.mem)
        return tuple(cells), tuple(mems)


def run(
    region: Region,
    strategy,
    max_steps: int | None = None,
    record: bool = True,
    check: bool = False,
) -> tuple[SimulationTrace, RunMetrics]:
    """Run a strategy to completion and return (trace, metrics).

    ``max_steps`` defaults to 4*V, enough for FCDFS (2V-1) with slack for
    baselines that pause. ``check`` also attaches the runtime checker the
    strategy declares, ``strategy.invariants(region)``, which raises when
    a lemma breaks; a strategy that declares none runs under the engine's
    own checks only.
    """
    if max_steps is None:
        max_steps = 4 * len(region.cells)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    invariants = strategy.invariants
    checker = invariants(region) if check and invariants is not None else None
    sim = Simulation(region, strategy, record=record, checker=checker)
    sim.finish(max_steps)
    return sim.trace, run_metrics(region, sim.outcome, sim.robots)

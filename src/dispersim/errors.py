"""Exception hierarchy shared across the package: the classes a caller
tells apart. Every error the package raises is one of them, except
these, which raise ValueError:

- a malformed or inconsistent trace read by
  ``SimulationTrace.from_json_dict`` (``dispersim render`` prints it as
  ``bad trace:``);
- a trace read for its outcome while its run goes on, or for its logs
  when it was recorded without them;
- ``run(max_steps < 1)`` and ``frame_steps(every < 1)``;
- a strategy whose ``decide_all`` returns the wrong number of actions.
"""


class DispersimError(Exception):
    """Base class for all errors raised by this package."""


class MapError(DispersimError):
    """A map or region that is not one: an ASCII map that does not
    parse, no door or two, or cells cut off from the door."""


class BadParameters(DispersimError):
    """Arguments out of range: the CLI exits 2 on it."""


class InvariantViolation(DispersimError):
    """A runtime invariant check (``--check`` mode) failed."""

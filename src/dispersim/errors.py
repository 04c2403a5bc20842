"""Exception hierarchy shared across the package: the classes a caller
tells apart. Every error the package raises is one of them."""


class DispersimError(Exception):
    """Base class for all errors raised by this package."""


class MapError(DispersimError):
    """A map or region that is not one: an ASCII map that does not
    parse, no door or two, or cells cut off from the door."""


class BadParameters(DispersimError):
    """Arguments out of range: the CLI exits 2 on it."""


class InvariantViolation(DispersimError):
    """A runtime invariant check (``--check`` mode) failed."""

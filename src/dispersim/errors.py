"""Exception hierarchy shared across the package."""


class DispersimError(Exception):
    """Base class for all errors raised by this package."""


class MapError(DispersimError):
    """Problems parsing or validating an ASCII map."""


class MalformedMap(MapError):
    pass


class NoDoor(MapError):
    pass


class MultipleDoors(MapError):
    pass


class DisconnectedRegion(MapError):
    pass


class CellNotInRegion(DispersimError):
    pass


class NotSimplyConnected(DispersimError):
    pass


class BadParameters(DispersimError):
    pass


class DoorOutOfBounds(BadParameters):
    pass


class StepOutOfRange(DispersimError):
    pass


class TraceRegionMismatch(DispersimError):
    pass


class InvariantViolation(DispersimError):
    """A runtime invariant check (``--check`` mode) failed."""

"""Exception types raised across the engine."""


class QRouteError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(QRouteError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ConfigError(QRouteError, ValueError):
    """A run configuration failed validation."""


class DuplicateIndex(QRouteError):
    """Attempt to register an expert at an index that is already taken."""


class IneligibleExpert(QRouteError):
    """invoke() called with an expert that is masked out for this canvas."""


class IneligibleAction(QRouteError):
    """Environment step received an action outside the legal mask."""


class SteppedAfterDone(QRouteError):
    """Environment step called on a finished episode."""


class EmptyMask(QRouteError):
    """Action selection requires at least one legal action."""


class BufferTooSmall(QRouteError):
    """Replay sampling requested before the learning-starts threshold."""


class NumericalError(QRouteError):
    """Non-finite values appeared in network parameters or loss."""


class CorruptChecksum(QRouteError):
    """Checkpoint bytes fail CRC verification, are truncated, or do not
    describe a network."""


class VersionMismatch(QRouteError):
    """Checkpoint carries an unknown format version."""


class AllZeroDifferences(QRouteError, ValueError):
    """Signed-rank test needs at least one nonzero pair difference."""


class EmptyList(QRouteError, ValueError):
    """Win-rate computation over an empty outcome list."""


class LogParseError(QRouteError):
    """A structured log line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

"""Exception types raised across the engine.

The class decides the exit code of ``qroute``: a ``DomainError`` blames the
input and exits 2; any other ``QRouteError`` is a runtime abort and exits 3.
"""


class QRouteError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(QRouteError, ValueError):
    """An argument or input is outside the documented domain of an operation."""


class NumericalError(QRouteError):
    """Non-finite values appeared in network parameters or loss."""


class ConfigError(DomainError):
    """A run configuration failed validation."""


class CorruptChecksum(DomainError):
    """Checkpoint bytes fail CRC verification, are truncated, or do not
    describe a network."""


class VersionMismatch(DomainError):
    """Checkpoint carries an unknown format version."""


class AllZeroDifferences(DomainError):
    """Signed-rank test needs at least one nonzero pair difference."""


class LogParseError(DomainError):
    """A structured log line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

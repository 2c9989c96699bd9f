"""Exception types shared across the package."""


class DustmieError(Exception):
    """Base class for all package errors."""


class DomainError(DustmieError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RecurrenceOverflowError(DustmieError, OverflowError):
    """Intermediate recurrence terms exceeded representable magnitude."""


class ConfigError(DustmieError, ValueError):
    """Invalid or incomplete run configuration."""

"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while still distinguishing sub-categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment / algorithm / model was configured inconsistently."""


class SchemaVersionError(ConfigurationError):
    """A serialized results row was written under a schema version this
    build cannot read (missing, or newer than the code understands)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an invalid internal state."""


class DeadlockError(SimulationError):
    """No runnable simulated thread remains but work is outstanding."""


class MemoryAccountingError(SimulationError):
    """A simulated allocation / free violated the accounting invariants
    (double free, free of unknown block, negative live count)."""


class ShapeError(ReproError):
    """An array had the wrong shape / dimensionality for an operation."""

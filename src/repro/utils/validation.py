"""Argument-validation helpers used across the public API.

These raise :class:`repro.errors.ConfigurationError` with messages
that name the offending parameter, so configuration mistakes fail fast
and legibly instead of surfacing as NumPy broadcasting errors deep
inside a simulation.
"""

from __future__ import annotations

from typing import Any, Collection

import numpy as np

from repro.errors import ConfigurationError


def check_positive(name: str, value: float, *, allow_inf: bool = False) -> float:
    """Require ``value > 0`` (optionally permitting ``+inf``)."""
    if value is None or not (value > 0):  # catches NaN too
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    if not allow_inf and np.isinf(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float, *, allow_inf: bool = False) -> float:
    """Require ``value >= 0`` (optionally permitting ``+inf``)."""
    if value is None or not (value >= 0):
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    if not allow_inf and np.isinf(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def check_in_choices(name: str, value: Any, choices: Collection[Any]) -> Any:
    """Require ``value`` to be one of ``choices``."""
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {sorted(map(str, choices))}, got {value!r}")
    return value

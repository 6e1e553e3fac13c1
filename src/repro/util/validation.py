"""Argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with messages that
name the offending parameter, so misconfiguration surfaces at
construction time rather than deep inside a protocol run.
"""

from __future__ import annotations


from repro.errors import ConfigurationError


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Require ``value > 0`` (or ``>= 0`` when ``strict`` is False)."""
    if strict and not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


def check_range(name: str, value: float, low: float, high: float) -> None:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")


def check_probability(name: str, value: float) -> None:
    """Require a probability in [0, 1]."""
    check_range(name, value, 0.0, 1.0)

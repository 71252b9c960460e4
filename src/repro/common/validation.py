"""Small argument-validation helpers.

These raise :class:`~repro.common.errors.ConfigError` /
:class:`~repro.common.errors.ShapeError` with messages that name the
offending argument, so misconfiguration is caught at construction time
rather than deep inside a kernel.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, ShapeError


def require_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is strictly positive
    (NaN is not)."""
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def require_non_negative(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


def require_divisible(name: str, value: int, divisor: int) -> None:
    """Raise :class:`ShapeError` unless ``value`` is a multiple of ``divisor``."""
    if divisor <= 0:
        raise ConfigError(f"divisor for {name} must be positive, got {divisor!r}")
    if value % divisor != 0:
        raise ShapeError(
            f"{name}={value} must be divisible by {divisor}"
        )


def require_power_of_two(name: str, value: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigError(f"{name} must be a power of two, got {value!r}")

"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
data problems with 3, and numerical failures with 4.
"""

import numbers
import operator

__all__ = ["LmmLassoError", "ConfigurationError", "DataError", "NumericalError"]


class LmmLassoError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigurationError(LmmLassoError):
    """Invalid options, column mappings, grids, or config files."""

    exit_code = 2


class DataError(LmmLassoError):
    """Malformed input data: parse failures, shape mismatches, degenerate columns."""

    exit_code = 3


class NumericalError(LmmLassoError):
    """Numerical degeneracy (non-positive-definite covariance, failed factorization)."""

    exit_code = 4


def _checked_int(value, what: str, low: int = 0, high: int | None = None) -> int:
    """value as an int: the package's one check of an integer setting (a
    count, an index or a seed).  ConfigurationError naming what unless
    operator.index takes value, it is not a bool and low <= value < high
    (no upper bound when high is None)."""
    try:
        k = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        k = None
    if k is None:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    if k < low or (high is not None and k >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ConfigurationError(f"{what} {bound} required, got {value!r}")
    return k


def _checked_real(value, what: str):
    """value, unchanged: the package's one check of a real-number setting.
    ConfigurationError naming what unless value is a real number
    (numbers.Real) and not a bool.  Range tests are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{what} must be a real number, got {value!r}")
    return value

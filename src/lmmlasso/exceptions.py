"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
data problems with 3, and numerical failures with 4.
"""

import math
import numbers
import operator

import numpy as np

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


def _checked_real(value, what: str, low=-math.inf, high=math.inf, low_open=False) -> float:
    """value as a float: the package's one check of a real-number setting.
    ConfigurationError naming what unless value is a real number, not a bool,
    that a float holds, finite and in [low, high] ((low, high] if low_open)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int or fraction beyond the double range
        x = math.nan
    if not (math.isfinite(x) and (low < x if low_open else low <= x) and x <= high):
        op, bracket = (">", "(") if low_open else (">=", "[")
        bound = (f"in {bracket}{low}, {high}]" if high < math.inf
                 else f"finite and {op} {low}" if low > -math.inf else "finite")
        raise ConfigurationError(f"{what} must be {bound}, got {value!r}")
    return x


def _checked_type(value, types, what: str):
    """value if an instance of types, else a ConfigurationError "{what}, got
    <its type>": the one check of an argument's type, made where a public
    call first reads it."""
    if not isinstance(value, types):
        raise ConfigurationError(f"{what}, got {type(value).__name__}")
    return value


def _checked_name(value, names, what: str) -> str:
    """value if a string in names, else a ConfigurationError: the one named-setting check."""
    if not (isinstance(value, str) and value in names):
        raise ConfigurationError(f"unknown {what} {value!r}")
    return value


def _checked_shape(shape: tuple, expected: tuple, what: str, error=DataError):
    """The one refusal of a size that must match another: error "{what} must
    have shape {expected}, got {shape}" unless shape has expected's length
    and matches each entry of it that is not None (shown as *)."""
    if len(shape) != len(expected) or any(n not in (None, m) for n, m in zip(expected, shape)):
        expected = str(tuple("*" if n is None else n for n in expected)).replace("'", "")
        raise error(f"{what} must have shape {expected}, got {shape}")


def _checked_array(value, what: str, shape, error=DataError) -> np.ndarray:
    """value as a float ndarray, the one check of an array argument; a cast
    from another dtype is a new read-only array, which dataset._taken shares.
    error naming what unless np.asarray makes value a rectangular array of
    real numbers a float holds, not bools (a None cell becomes NaN), of shape
    shape (_checked_shape) and finite."""
    try:
        a = np.asarray(value)
        if a.dtype.kind == "O":  # a 0-d one is a value that is not an array (a dict)
            cell = next((v for v in a.flat if v is not None
                         and (isinstance(v, bool) or not isinstance(v, numbers.Real))), None)
            if cell is not None:
                got = f"a cell {cell!r}" if a.ndim else type(cell).__name__
                raise error(f"{what} must hold real numbers, got {got}")
        elif a.dtype.kind not in "iuf":  # bools, strings, complex numbers, dates
            raise error(f"{what} must hold real numbers, got dtype {a.dtype}")
        if a.dtype != float:
            a = a.astype(float)
            a.setflags(write=False)
    except (ValueError, OverflowError) as err:  # ragged, or a cell beyond the double range
        raise error(f"{what} must hold real numbers that a float holds: {err}") from None
    _checked_shape(a.shape, shape, what, error)
    if not np.isfinite(a).all():
        raise error(f"{what} must be finite, got a NaN or inf")
    return a

"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
data problems with 3, and numerical failures with 4.
"""

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

"""Penalty-level selection: grid sweep, information criteria, refit.

The sweep runs in two passes.  The grid pass fits the EM at every grid
value, largest first, at one mixing weight alpha (glmnet's, as fit_em
takes it; 1, the lasso, by default), initializing each fit from the
previous penalized fit's (beta, sigma2, D).  The refit pass then fits
every distinct support of the path without penalty, all of them in one
lock-step EM on the parent dataset (em_engine.fit_em_supports, the one
refit entry point), and scores each grid entry with BIC = -2 loglik +
log(n) df (or AIC = -2 loglik + 2 df), where df counts
the entry's nonzero fixed effects plus q(q+1)/2 covariance parameters
plus one for the residual variance, and n is the number of subjects.
The log-likelihood is evaluated at the unpenalized refit of the entry's
support, so the criterion compares model sizes free of shrinkage bias;
scoring the shrunk estimates themselves systematically favors denser
models and does not reproduce the benchmark selection rates.  The
minimizer wins, ties breaking toward the larger penalty (the sparser
model).

select returns the path itself: the selected penalty, support,
penalized fit and refit are read off it, and RegularizationPath.to_dict()
is the selection JSON.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .dataset import LongitudinalDataset, StandardizationRecord
from .em_engine import (EmControl, FitReport, _checked_control, fit_em, fit_em_supports,
                        observed_loglik)
from .exceptions import (ConfigurationError, NumericalError, _checked_int, _checked_name,
                         _checked_real, _checked_type)
from .penalized_ls import LAMBDA_SCALES, RAW, _checked_penalty, effective_lambda, lambda_max

__all__ = [
    "CRITERIA",
    "RegularizationPath",
    "sweep",
    "refit_support",
    "select",
    "default_grid",
    "auto_log_grid",
]

# each information criterion's cost per degree of freedom, given n subjects
CRITERIA = {"bic": np.log, "aic": lambda n: 2.0}


def default_grid(num: int = 100, low: float = 0.001, high: float = 0.5) -> np.ndarray:
    """Linearly spaced penalty grid, 0.001 to 0.5 with 100 points by default.

    low and high must be finite real numbers (_checked_real), else a
    ConfigurationError; sweep checks the grid's values."""
    num = _checked_int(num, "grid length", 1)
    low, high = _checked_real(low, "default_grid: low"), _checked_real(high, "default_grid: high")
    return np.linspace(low, high, num)


def auto_log_grid(ds: LongitudinalDataset, num: int = 100, ratio: float = 1e-3,
                  lambda_scale: str = RAW, alpha: float = 1.0) -> np.ndarray:
    """Log-spaced grid anchored at the level that zeroes all coefficients.

    The anchor is lambda_max of the pooled data, max_j |2 x_j'y| / alpha
    for a penalty of mixing weight alpha (1 for the lasso), converted to
    the requested lambda_scale; the grid spans [ratio * anchor, anchor]
    with num >= 1 points and a finite ratio > 0.
    """
    _checked_type(ds, LongitudinalDataset, "auto_log_grid: ds must be a LongitudinalDataset")
    num = _checked_int(num, "auto_log_grid: num", 1)
    ratio = _checked_real(ratio, "auto_log_grid: ratio", 0, low_open=True)
    anchor = lambda_max(ds.X, ds.y, alpha) / effective_lambda(1.0, lambda_scale, ds.N)
    if anchor <= 0.0:
        raise ConfigurationError("auto_log_grid: design has no signal (lambda_max = 0)")
    return np.geomspace(anchor * ratio, anchor, num)


@dataclass
class RegularizationPath:
    """Per-grid-value fits and scores, ordered by decreasing penalty.

    refit_fits holds the unpenalized refit backing each entry's score;
    entries with identical supports share one refit object.  errors holds
    the message of each entry whose grid fit or refit raised.  The
    selected_* members read the entry at selected_index, and to_dict() is
    the selection JSON.  standardization is the swept dataset's record
    (None for unstandardized data): the units of the estimates, as
    lambda_scale is the units of the grid.
    """

    grid: np.ndarray
    fits: list            # FitReport or None for failed entries
    bic: np.ndarray
    aic: np.ndarray
    df: np.ndarray
    nnz: np.ndarray
    selected_index: int
    refit_fits: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    lambda_scale: str = RAW
    criterion: str = "bic"
    standardization: StandardizationRecord | None = None

    @property
    def selected_fit(self) -> FitReport:
        return self.fits[self.selected_index]

    @property
    def selected_refit(self) -> FitReport:
        return self.refit_fits[self.selected_index]

    @property
    def selected_lambda(self) -> float:
        return float(self.grid[self.selected_index])

    @property
    def selected_support(self) -> tuple:
        """The nonzero columns of the selected penalized fit."""
        return tuple(int(j) for j in np.flatnonzero(self.selected_fit.params.beta))

    def csv_rows(self):
        """Rows (lambda, bic, aic, df, nnz, converged) for external plotting."""
        for i, lam in enumerate(self.grid):
            fit = self.fits[i]
            yield (float(lam), float(self.bic[i]), float(self.aic[i]),
                   int(self.df[i]), int(self.nnz[i]),
                   bool(fit.converged) if fit is not None else False)

    def to_dict(self) -> dict:
        """The selection JSON, with the selected refit mapped back to the original
        units on standardized data; column names are the dataset's to add."""
        refit = self.selected_refit
        out = {
            "selected_lambda": self.selected_lambda,
            "lambda_scale": self.lambda_scale,
            "criterion": self.criterion,
            "support": list(self.selected_support),
            "penalized_estimates": self.selected_fit.params.to_dict(),
            "refit_estimates": refit.params.to_dict(),
            "refit_converged": refit.converged,
        }
        if self.standardization is not None:
            out["refit_original_scale"] = self.standardization.original_scale(refit.params)
        return out


def _selection_settings(grid, lambda_scale: str, criterion: str, alpha: float = 1.0,
                        ctrl: EmControl | None = None):
    """Check a selection run's settings before any fit; raise ConfigurationError.

    Returns the grid, finite real numbers >= 0, as a float array in
    decreasing order (default_grid() when None); ridge's alpha = 0 is
    refused, and so is a ctrl that is not an EmControl.  Every entry point
    that sweeps a grid calls this first, so a bad setting fails before any
    fit runs or any worker starts.
    """
    grid = default_grid() if grid is None else grid
    if isinstance(grid, str) or not isinstance(grid, Collection) or getattr(grid, "ndim", 1) != 1:
        raise ConfigurationError(f"sweep: grid must be a list or 1-d array, got {grid!r}")
    grid = np.sort([_checked_real(v, "sweep: grid entry", 0) for v in grid])[::-1].copy()
    if grid.size == 0:
        raise ConfigurationError("sweep: empty grid")
    _checked_name(lambda_scale, LAMBDA_SCALES, "lambda_scale")
    _checked_name(criterion, CRITERIA, "criterion")
    _checked_control(ctrl)
    if _checked_penalty(alpha) == 0.0:
        raise ConfigurationError("ridge has no sparse path to select over")
    return grid


def sweep(ds: LongitudinalDataset, grid=None, alpha: float = 1.0,
          ctrl: EmControl | None = None, lambda_scale: str = RAW,
          criterion: str = "bic") -> RegularizationPath:
    """Fit the EM over a penalty grid and select by information criterion.

    The grid (default_grid() when None) is processed in decreasing order
    at mixing weight alpha (1, the lasso, by default).  The first fit starts
    cold and each later one starts from the last penalized fit that did not
    raise: its (beta, sigma2, D) and its last E-step, which the next fit
    reuses in place of its first (fit_em's init).  Each entry is then scored by the criterion at
    the unpenalized refit of its support, every distinct support refitted
    once, together (em_engine.fit_em_supports).  A NumericalError of a grid
    fit or refit fails its entries, which are recorded in errors and skipped
    by the selection; a sweep where every entry failed raises, and any
    other error (a DataError) is raised at once.  A ds that is not a
    LongitudinalDataset is a ConfigurationError.
    """
    _checked_type(ds, LongitudinalDataset, "sweep: ds must be a LongitudinalDataset")
    grid = _selection_settings(grid, lambda_scale, criterion, alpha, ctrl)
    m = grid.size
    fits: list = [None] * m
    refits: list = [None] * m
    errors: list = [None] * m
    loglik = np.full(m, np.nan)
    nnz = np.zeros(m, dtype=int)

    supports: list = [None] * m
    prev = None
    for i, lam in enumerate(grid):
        try:
            fit = fit_em(ds, float(lam), alpha, init=prev, ctrl=ctrl,
                         lambda_scale=lambda_scale)
        except NumericalError as e:
            errors[i] = str(e)
            continue
        # the path keeps no E-step moments, of grid fits or of refits: a
        # report drops its moments once the next fit has started from them
        if prev is not None:
            prev.moments = None
        fits[i] = prev = fit
        supports[i] = tuple(fit.params.beta.nonzero()[0].tolist())
    if prev is not None:
        prev.moments = None

    # the refit pass: every distinct support in one lock-step EM
    distinct = list(dict.fromkeys(s for s in supports if s is not None))
    scored = {}  # support: (refit, loglik), or the message of the error that failed it
    for support, refit in zip(distinct, fit_em_supports(ds, distinct, ctrl=ctrl)):
        try:
            if isinstance(refit, NumericalError):
                raise refit
            # embedded-parameter loglik on the full design, so scores
            # are exactly reproducible from the stored refit params
            refit.moments = None
            scored[support] = (refit, observed_loglik(ds, refit.params))
        except NumericalError as e:
            scored[support] = str(e)
    for i, support in enumerate(supports):
        if support is None:
            continue
        if isinstance(scored[support], str):
            fits[i], errors[i] = None, scored[support]
            continue
        refits[i], loglik[i] = scored[support]
        nnz[i] = len(support)

    valid = np.array([f is not None for f in fits])
    if not valid.any():
        raise NumericalError("sweep: every fit on the grid failed; "
                             f"first error: {errors[0]}")
    df = np.where(valid, nnz + ds.q * (ds.q + 1) // 2 + 1, 0)
    scores = {name: -2.0 * loglik + cost(ds.n) * df for name, cost in CRITERIA.items()}
    # the smallest valid score; np.argmin returns the first minimum, so on
    # ties the earliest entry, the larger penalty of the descending grid, wins
    selected = int(np.argmin(np.where(valid, scores[criterion], np.inf)))
    return RegularizationPath(grid=grid, fits=fits, bic=scores["bic"], aic=scores["aic"],
                              df=df, nnz=nnz, selected_index=selected,
                              refit_fits=refits, errors=errors,
                              lambda_scale=lambda_scale, criterion=criterion,
                              standardization=ds.standardization)


def refit_support(ds: LongitudinalDataset, support, ctrl: EmControl | None = None) -> FitReport:
    """Unpenalized fit with X restricted to the support columns.

    The returned report carries beta embedded back into a full p-vector
    (zeros off support), in ds's units.  The one-support call of
    em_engine.fit_em_supports, which checks the support and raises
    ConfigurationError for a bad one; a NumericalError of the fit is
    raised.
    """
    rep, = fit_em_supports(ds, [support], ctrl=ctrl)
    if isinstance(rep, NumericalError):
        raise rep
    return rep


def select(ds: LongitudinalDataset, grid=None, alpha: float = 1.0,
           ctrl: EmControl | None = None, lambda_scale: str = RAW,
           criterion: str = "bic") -> RegularizationPath:
    """sweep's path, under the name bench/spans.py wraps apart from sweep."""
    return sweep(ds, grid, alpha, ctrl=ctrl, lambda_scale=lambda_scale, criterion=criterion)

"""Penalty-level selection: grid sweep, information criteria, refit.

The sweep runs in two passes.  The grid pass fits the EM at every grid
value, largest first, initializing each fit from the previous penalized
fit's (beta, sigma2, D).  The refit pass then fits every distinct
support of the path without penalty, all of them in one lock-step EM on
the parent dataset (refit_supports), and scores each grid entry with
BIC = -2 loglik + log(n) df (or AIC = -2 loglik + 2 df), where df counts
the entry's nonzero fixed effects plus q(q+1)/2 covariance parameters
plus one for the residual variance, and n is the number of subjects.
The log-likelihood is evaluated at the unpenalized refit of the entry's
support, so the criterion compares model sizes free of shrinkage bias;
scoring the shrunk estimates themselves systematically favors denser
models and does not reproduce the benchmark selection rates.  The
minimizer wins, ties breaking toward the larger penalty (the sparser
model).

A SelectionResult is a view of its path at the selected entry: the
penalty, support, penalized fit and refit are all read off the path,
and SelectionResult.to_dict() is the selection JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import LongitudinalDataset, beta_original_scale
from .em_engine import (EmControl, FitReport, LmmParams, fit_em, fit_em_supports,
                        observed_loglik)
from .exceptions import ConfigurationError, LmmLassoError, NumericalError
from .penalized_ls import RAW, PenaltySpec, effective_lambda, lambda_max

__all__ = [
    "CRITERIA",
    "RegularizationPath",
    "SelectionResult",
    "sweep",
    "refit_support",
    "refit_supports",
    "select",
    "default_grid",
    "auto_log_grid",
]

# each information criterion's cost per degree of freedom, given n subjects
CRITERIA = {"bic": np.log, "aic": lambda n: 2.0}


def default_grid(num: int = 100, low: float = 0.001, high: float = 0.5) -> np.ndarray:
    """Linearly spaced penalty grid, 0.001 to 0.5 with 100 points by default."""
    return np.linspace(low, high, num)


def auto_log_grid(ds: LongitudinalDataset, num: int = 100, ratio: float = 1e-3,
                  lambda_scale: str = RAW, alpha: float = 1.0) -> np.ndarray:
    """Log-spaced grid anchored at the level that zeroes all coefficients.

    The anchor is lambda_max of the pooled data, max_j |2 x_j'y| / alpha
    for a penalty of mixing weight alpha (1 for the lasso), converted to
    the requested lambda_scale; the grid spans [ratio * anchor, anchor]
    with num >= 1 points and a finite ratio > 0.
    """
    if num < 1:
        raise ConfigurationError(f"auto_log_grid: num must be >= 1, got {num}")
    if not 0.0 < ratio < np.inf:
        raise ConfigurationError(f"auto_log_grid: ratio must be finite and > 0, got {ratio}")
    anchor = lambda_max(ds.X, ds.y, alpha) / effective_lambda(1.0, lambda_scale, ds.N)
    if anchor <= 0.0:
        raise ConfigurationError("auto_log_grid: design has no signal (lambda_max = 0)")
    return np.geomspace(anchor * ratio, anchor, num)


@dataclass
class RegularizationPath:
    """Per-grid-value fits and scores, ordered by decreasing penalty.

    refit_fits holds the unpenalized refit backing each entry's score;
    entries with identical supports share one refit object.  errors holds
    the message of each entry whose grid fit or refit raised.
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

    @property
    def selected_fit(self) -> FitReport:
        return self.fits[self.selected_index]

    @property
    def selected_refit(self) -> FitReport:
        return self.refit_fits[self.selected_index]

    @property
    def selected_lambda(self) -> float:
        return float(self.grid[self.selected_index])

    def csv_rows(self):
        """Rows (lambda, bic, aic, df, nnz, converged) for external plotting."""
        for i, lam in enumerate(self.grid):
            fit = self.fits[i]
            yield (float(lam), float(self.bic[i]), float(self.aic[i]),
                   int(self.df[i]), int(self.nnz[i]),
                   bool(fit.converged) if fit is not None else False)


@dataclass
class SelectionResult:
    """A view of a path at its selected entry: the penalty, support and refit."""

    path: RegularizationPath

    @property
    def selected_lambda(self) -> float:
        return self.path.selected_lambda

    @property
    def penalized(self) -> FitReport:
        return self.path.selected_fit

    @property
    def support(self) -> tuple:
        return tuple(int(j) for j in np.flatnonzero(self.penalized.params.beta))

    @property
    def refit(self) -> FitReport:
        return self.path.selected_refit

    def to_dict(self) -> dict:
        """The selection JSON; column names are the dataset's to add."""
        refit = self.refit
        out = {
            "selected_lambda": self.selected_lambda,
            "lambda_scale": self.path.lambda_scale,
            "criterion": self.path.criterion,
            "support": list(self.support),
            "penalized_estimates": self.penalized.params.to_dict(),
            "refit_estimates": refit.params.to_dict(),
            "refit_converged": refit.converged,
        }
        if refit.original_scale is not None:
            out["refit_original_scale"] = refit.original_scale
        return out


def _argmin_prefer_larger(values: np.ndarray, valid: np.ndarray) -> int:
    """Index of the smallest value; on ties the earliest (largest-penalty) wins.

    Assumes the arrays follow the descending grid order used by sweep.
    """
    best = -1
    best_val = np.inf
    for i, (v, ok) in enumerate(zip(values, valid)):
        if ok and v < best_val:
            best_val = v
            best = i
    return best


def _selection_settings(grid, lambda_scale: str, criterion: str, penalty=None):
    """Check a selection run's settings before any fit; raise ConfigurationError.

    Returns the grid in decreasing order (default_grid() when None) and the
    penalty template (the lasso when None).  Every entry point that sweeps
    a grid calls this first, so a bad setting fails before any fit runs or
    any worker starts.
    """
    grid = np.sort(np.asarray(default_grid() if grid is None else grid, float))[::-1].copy()
    if grid.size == 0:
        raise ConfigurationError("sweep: empty grid")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ConfigurationError("sweep: grid values must be finite and >= 0")
    effective_lambda(0.0, lambda_scale, 0)  # raises on an unknown unit name
    if criterion not in CRITERIA:
        raise ConfigurationError(f"unknown criterion {criterion!r}")
    penalty = PenaltySpec.lasso(0.0) if penalty is None else penalty
    if not isinstance(penalty, PenaltySpec):
        raise ConfigurationError(f"penalty must be a PenaltySpec or None, got {penalty!r}")
    if penalty.alpha == 0.0:
        raise ConfigurationError("ridge has no sparse path to select over")
    return grid, penalty


def sweep(ds: LongitudinalDataset, grid=None, penalty: PenaltySpec | None = None,
          ctrl: EmControl | None = None, lambda_scale: str = RAW,
          criterion: str = "bic") -> RegularizationPath:
    """Fit the EM over a penalty grid and select by information criterion.

    The grid (default_grid() when None) is processed in decreasing order
    under the penalty template (the lasso when None).  The first fit starts
    cold and each later one starts from the last penalized fit that did not
    raise (beta, sigma2, D).  Each entry is then scored by the criterion at
    the unpenalized refit of its support, every distinct support refitted
    once, together (refit_supports).  A failed grid fit or refit fails its
    entries, which are recorded in errors and skipped by the selection; a
    sweep where every entry failed raises.
    """
    grid, template = _selection_settings(grid, lambda_scale, criterion, penalty)
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
            fit = fit_em(ds, float(lam), template, init=prev, ctrl=ctrl,
                         lambda_scale=lambda_scale)
        except LmmLassoError as e:
            errors[i] = str(e)
            continue
        fits[i], prev = fit, fit.params
        supports[i] = tuple(int(j) for j in np.flatnonzero(fit.params.beta))

    # the refit pass: every distinct support in one lock-step EM
    distinct = list(dict.fromkeys(s for s in supports if s is not None))
    scored = {}  # support: (refit, loglik), or the message of the error that failed it
    for support, refit in zip(distinct, refit_supports(ds, distinct, ctrl=ctrl)):
        try:
            if isinstance(refit, LmmLassoError):
                raise refit
            # embedded-parameter loglik on the full design, so scores
            # are exactly reproducible from the stored refit params
            scored[support] = (refit, observed_loglik(ds, refit.params))
        except LmmLassoError as e:
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
    selected = _argmin_prefer_larger(scores[criterion], valid)
    return RegularizationPath(grid=grid, fits=fits, bic=scores["bic"], aic=scores["aic"],
                              df=df, nnz=nnz, selected_index=selected,
                              refit_fits=refits, errors=errors,
                              lambda_scale=lambda_scale, criterion=criterion)


def refit_supports(ds: LongitudinalDataset, supports, ctrl: EmControl | None = None) -> list:
    """Unpenalized fits with X restricted to each support, run together.

    One entry per support, in order: the FitReport refit_support gives for
    it, or the LmmLassoError its fit raised (the other fits go on).  The
    supports are fitted in one lock-step EM on ds (em_engine.fit_em_supports).
    """
    supports = [tuple(sorted(int(j) for j in s)) for s in supports]
    if any(j < 0 or j >= ds.p for s in supports for j in s):
        raise ConfigurationError("refit_support: support indices out of range")
    reports = fit_em_supports(ds, supports, ctrl=ctrl)
    rec = ds.standardization
    if rec is None:
        return reports
    return [rep if isinstance(rep, LmmLassoError)
            else replace(rep, original_scale=_original_scale(rec, rep.params))
            for rep in reports]


def _original_scale(rec, params: LmmParams) -> dict:
    """A standardized refit's estimates on the original scale."""
    beta_orig, intercept = beta_original_scale(rec, params.beta)
    return {
        "beta": beta_orig.tolist(),
        "intercept": intercept,
        "sigma2": params.sigma2 * rec.y_scale ** 2,
        "D": (params.D * rec.y_scale ** 2).tolist(),
    }


def refit_support(ds: LongitudinalDataset, support, ctrl: EmControl | None = None) -> FitReport:
    """Unpenalized fit with X restricted to the support columns.

    The returned report carries beta embedded back into a full p-vector
    (zeros off support).  When the dataset was standardized, estimates on
    the original scale are attached under original_scale.  The one-support
    call of refit_supports.
    """
    rep, = refit_supports(ds, [support], ctrl=ctrl)
    if isinstance(rep, LmmLassoError):
        raise rep
    return rep


def select(ds: LongitudinalDataset, grid=None, penalty: PenaltySpec | None = None,
           ctrl: EmControl | None = None, lambda_scale: str = RAW,
           criterion: str = "bic") -> SelectionResult:
    """Sweep the grid, pick the optimal penalty, and report its refit."""
    return SelectionResult(sweep(ds, grid, penalty=penalty, ctrl=ctrl,
                                 lambda_scale=lambda_scale, criterion=criterion))

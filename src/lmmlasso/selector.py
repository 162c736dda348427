"""Penalty-level selection: grid sweep, information criteria, refit.

The sweep fits the EM at every grid value, largest first, initializing
each fit from the previous solution's (beta, sigma2, D), and scores each
grid entry with BIC = -2 loglik + log(n) df (or AIC = -2 loglik + 2 df),
where df counts the entry's nonzero fixed effects plus q(q+1)/2
covariance parameters plus one for the residual variance, and n is the
number of subjects.  The log-likelihood is evaluated at the unpenalized
refit of the entry's support (cached by support), so the criterion
compares model sizes free of shrinkage bias; scoring the shrunk
estimates themselves systematically favors denser models and does not
reproduce the benchmark selection rates.  The minimizer wins, ties
breaking toward the larger penalty (the sparser model).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import LongitudinalDataset, beta_original_scale
from .em_engine import EmControl, FitReport, LmmParams, fit_em, observed_loglik
from .exceptions import ConfigurationError, LmmLassoError, NumericalError
from .penalized_ls import PenaltySpec

__all__ = [
    "RegularizationPath",
    "SelectionResult",
    "sweep",
    "refit_support",
    "select",
    "default_grid",
    "auto_log_grid",
]


def default_grid(num: int = 100, low: float = 0.001, high: float = 0.5) -> np.ndarray:
    """Linearly spaced penalty grid, 0.001 to 0.5 with 100 points by default."""
    return np.linspace(low, high, num)


def auto_log_grid(ds: LongitudinalDataset, num: int = 100, ratio: float = 1e-3,
                  lambda_scale: str = "raw") -> np.ndarray:
    """Log-spaced grid anchored at the level that zeroes all coefficients.

    The anchor is max_j |2 x_j'y| on the pooled data, converted to the
    requested lambda_scale; the grid spans [ratio * anchor, anchor].
    """
    from .penalized_ls import lambda_max

    anchor = lambda_max(ds.X, ds.y)
    if lambda_scale == "per_obs":
        anchor /= 2.0 * ds.N
    if anchor <= 0.0:
        raise ConfigurationError("auto_log_grid: design has no signal (lambda_max = 0)")
    return np.geomspace(anchor * ratio, anchor, num)


def _degrees_of_freedom(beta: np.ndarray, q: int) -> int:
    return int(np.count_nonzero(beta)) + q * (q + 1) // 2 + 1


@dataclass
class RegularizationPath:
    """Per-grid-value fits and scores, ordered by decreasing penalty.

    refit_fits holds the unpenalized refit backing each entry's score;
    entries with identical supports share one refit object.
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
    lambda_scale: str = "raw"
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

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "bic": self.bic.tolist(),
            "aic": self.aic.tolist(),
            "df": self.df.tolist(),
            "nnz": self.nnz.tolist(),
            "selected_index": self.selected_index,
            "selected_lambda": self.selected_lambda,
            "errors": list(self.errors),
            "lambda_scale": self.lambda_scale,
            "criterion": self.criterion,
            "fits": [f.to_dict() if f is not None else None for f in self.fits],
        }


@dataclass
class SelectionResult:
    """Selected penalty level, its support, and the unpenalized refit."""

    selected_lambda: float
    support: tuple
    refit: FitReport
    path: RegularizationPath

    @property
    def penalized(self) -> FitReport:
        return self.path.selected_fit

    def to_dict(self) -> dict:
        return {
            "selected_lambda": self.selected_lambda,
            "support": list(self.support),
            "penalized": self.penalized.to_dict(),
            "refit": self.refit.to_dict(),
            "path": self.path.to_dict(),
        }


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


def _as_penalty_template(penalty) -> PenaltySpec:
    if isinstance(penalty, PenaltySpec):
        return penalty
    if penalty == "lasso":
        return PenaltySpec.lasso(0.0)
    if penalty == "ridge":
        raise ConfigurationError("ridge has no sparse path to select over")
    raise ConfigurationError(f"unknown penalty {penalty!r}")


def sweep(ds: LongitudinalDataset, grid, penalty="lasso",
          ctrl: EmControl | None = None, lambda_scale: str = "raw",
          criterion: str = "bic") -> RegularizationPath:
    """Fit the EM over a penalty grid and select by information criterion.

    The grid is processed in decreasing order; the first fit starts cold
    and each later one starts from the last successful fit's (beta,
    sigma2, D).  Each entry is scored by the criterion at the unpenalized
    refit of its support.  Individual fit failures are recorded per entry
    and skipped by the selection; a sweep where every entry failed raises.
    """
    grid = np.sort(np.asarray(grid, dtype=float))[::-1].copy()
    if grid.size == 0:
        raise ConfigurationError("sweep: empty grid")
    if np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ConfigurationError("sweep: grid values must be finite and >= 0")
    if criterion not in ("bic", "aic"):
        raise ConfigurationError(f"unknown criterion {criterion!r}")
    template = _as_penalty_template(penalty)
    ctrl = ctrl or EmControl()

    m = grid.size
    fits: list = [None] * m
    refits: list = [None] * m
    errors: list = [None] * m
    bic = np.full(m, np.nan)
    aic = np.full(m, np.nan)
    df = np.zeros(m, dtype=int)
    nnz = np.zeros(m, dtype=int)

    refit_cache: dict = {}
    prev = None
    for i, lam in enumerate(grid):
        try:
            fit = fit_em(ds, float(lam), template.with_lam(float(lam)),
                         init=prev, ctrl=ctrl, lambda_scale=lambda_scale)
            support = tuple(int(j) for j in np.flatnonzero(fit.params.beta))
            if support not in refit_cache:
                refit = refit_support(ds, support, ctrl=ctrl)
                # embedded-parameter loglik on the full design, so scores
                # are exactly reproducible from the stored refit params
                refit_cache[support] = (refit, observed_loglik(ds, refit.params))
        except LmmLassoError as e:
            errors[i] = str(e)
            continue
        fits[i] = fit
        refits[i], loglik = refit_cache[support]
        df[i] = _degrees_of_freedom(fit.params.beta, ds.q)
        bic[i] = -2.0 * loglik + np.log(ds.n) * df[i]
        aic[i] = -2.0 * loglik + 2.0 * df[i]
        nnz[i] = int(np.count_nonzero(fit.params.beta))
        prev = fit.params

    valid = np.array([f is not None for f in fits])
    if not valid.any():
        raise NumericalError("sweep: every fit on the grid failed; "
                             f"first error: {errors[0]}")
    scores = bic if criterion == "bic" else aic
    selected = _argmin_prefer_larger(scores, valid)
    return RegularizationPath(grid=grid, fits=fits, bic=bic, aic=aic, df=df,
                              nnz=nnz, selected_index=selected,
                              refit_fits=refits, errors=errors,
                              lambda_scale=lambda_scale, criterion=criterion)


def refit_support(ds: LongitudinalDataset, support, ctrl: EmControl | None = None) -> FitReport:
    """Unpenalized fit with X restricted to the support columns.

    The returned report carries beta embedded back into a full p-vector
    (zeros off support).  When the dataset was standardized, estimates on
    the original scale are attached under original_scale.
    """
    support = tuple(sorted(int(j) for j in support))
    if any(j < 0 or j >= ds.p for j in support):
        raise ConfigurationError("refit_support: support indices out of range")
    restricted = ds.select_columns(list(support))
    rep = fit_em(restricted, 0.0, ctrl=ctrl)

    beta_full = np.zeros(ds.p)
    beta_full[list(support)] = rep.params.beta
    params = LmmParams(beta_full, rep.params.sigma2, rep.params.D)

    original = None
    rec = ds.standardization
    if rec is not None:
        beta_orig, intercept = beta_original_scale(rec, beta_full)
        original = {
            "beta": beta_orig.tolist(),
            "intercept": intercept,
            "sigma2": rep.params.sigma2 * rec.y_scale ** 2,
            "D": (rep.params.D * rec.y_scale ** 2).tolist(),
        }

    return replace(rep, params=params, original_scale=original)


def select(ds: LongitudinalDataset, grid, penalty="lasso",
           ctrl: EmControl | None = None, lambda_scale: str = "raw",
           criterion: str = "bic") -> SelectionResult:
    """Sweep the grid, pick the optimal penalty, and report its refit."""
    path = sweep(ds, grid, penalty=penalty, ctrl=ctrl, lambda_scale=lambda_scale,
                 criterion=criterion)
    support = tuple(int(j) for j in np.flatnonzero(path.selected_fit.params.beta))
    return SelectionResult(
        selected_lambda=path.selected_lambda,
        support=support,
        refit=path.selected_refit,
        path=path,
    )

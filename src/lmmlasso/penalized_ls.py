"""Penalized least squares by cyclic coordinate descent.

Solves

    F(beta) = (y - X beta)' (y - X beta)
              + lam * [alpha * ||beta||_1 + (1 - alpha) * ||beta||_2^2]

for lasso (alpha = 1), ridge (alpha = 0), and elastic-net (0 < alpha < 1)
penalties.  The penalty level ``lam`` multiplies the raw residual sum of
squares; no 1/(2N) rescaling is applied.  The per-observation convention
of GLM-net style solvers (lambda multiplies RSS/(2N)) lives at the fit and
selection layer: fit_em, sweep, select, run_monte_carlo and kfold_cv take
a lambda_scale, one of LAMBDA_SCALES, and effective_lambda, the only unit
conversion, maps it onto the raw level.

The solver maintains the gradient vector m = X'y - X'X beta, so each
coordinate update costs O(p) independent of the number of rows.  After a
full sweep it iterates over the current nonzero set until stable, then
runs another full sweep to confirm; convergence is declared when a full
sweep changes no coefficient by more than ``tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConfigurationError, DataError

__all__ = [
    "LAMBDA_SCALES",
    "PenaltySpec",
    "PlsSolution",
    "soft_threshold",
    "solve_pls",
    "kkt_check",
    "lambda_max",
    "effective_lambda",
    "penalty_value",
]

_FAMILIES = ("lasso", "ridge", "elastic_net")
RAW, PER_OBS = LAMBDA_SCALES = ("raw", "per_obs")  # the lambda units effective_lambda knows


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family, mixing weight, and regularization level.

    alpha = 1 is the pure l1 (lasso) penalty, alpha = 0 the squared-l2
    (ridge) penalty; intermediate values interpolate.
    """

    family: str = "lasso"
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown penalty family {self.family!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigurationError(f"penalty level lam must be finite and >= 0, got {self.lam}")
        if self.family == "lasso" and self.alpha != 1.0:
            raise ConfigurationError("lasso requires alpha = 1")
        if self.family == "ridge" and self.alpha != 0.0:
            raise ConfigurationError("ridge requires alpha = 0")
        if self.family == "elastic_net" and not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("elastic_net requires 0 < alpha < 1")

    @classmethod
    def lasso(cls, lam: float) -> "PenaltySpec":
        return cls("lasso", 1.0, lam)

    @classmethod
    def ridge(cls, lam: float) -> "PenaltySpec":
        return cls("ridge", 0.0, lam)

    @classmethod
    def elastic_net(cls, alpha: float, lam: float) -> "PenaltySpec":
        return cls("elastic_net", alpha, lam)

    def with_lam(self, lam: float) -> "PenaltySpec":
        return replace(self, lam=lam)


@dataclass
class PlsSolution:
    """Result of a penalized least-squares solve.

    iterations counts coordinate sweeps (full and active-set combined).
    kkt_residual is the maximum stationarity violation at the returned
    beta, computed from the solver's maintained gradient.
    """

    beta: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))


def soft_threshold(z: float, gamma: float) -> float:
    """Return sign(z) * max(|z| - gamma, 0) for gamma >= 0."""
    t = abs(z) - gamma
    if t <= 0.0:
        return 0.0
    return math.copysign(t, z)


def penalty_value(penalty: PenaltySpec, beta: np.ndarray) -> float:
    """Mixing-weighted penalty alpha*||beta||_1 + (1-alpha)*||beta||_2^2."""
    beta = np.asarray(beta, dtype=float)
    return penalty.alpha * float(np.abs(beta).sum()) \
        + (1.0 - penalty.alpha) * float(beta @ beta)


def effective_lambda(lam: float, lambda_scale: str, n_obs: int) -> float:
    """Convert a penalty level to raw units.

    "raw" leaves lam unchanged; "per_obs" multiplies by 2 * n_obs, mapping
    the per-observation convention lambda * (RSS/(2N) + penalty) onto the
    raw objective used here.
    """
    if lambda_scale == RAW:
        return float(lam)
    if lambda_scale == PER_OBS:
        return float(lam) * 2.0 * n_obs
    raise ConfigurationError(f"unknown lambda_scale {lambda_scale!r}")


def lambda_max(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> float:
    """Smallest raw penalty level at which the solution is identically zero.

    beta = 0 is optimal exactly when |2 x_j'y| <= lam * alpha for every
    column, so lambda_max = max_j |2 x_j'y| / alpha.  Requires alpha > 0
    (the ridge penalty never produces exact zeros).
    """
    if alpha <= 0:
        raise ConfigurationError("lambda_max requires alpha > 0")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(2.0 * (X.T @ y)))) / alpha


def _kkt_residual(grad_half: np.ndarray, beta: np.ndarray, lam: float, alpha: float) -> float:
    """Maximum violation of the stationarity conditions.

    grad_half is X'(y - X beta).  For beta_j = 0 the condition is
    |2 grad_half_j - 2 lam (1-alpha) beta_j| <= lam * alpha; for
    beta_j != 0 it holds with equality against lam * alpha * sign(beta_j).
    """
    if beta.size == 0:
        return 0.0
    g = 2.0 * grad_half - 2.0 * lam * (1.0 - alpha) * beta
    thresh = lam * alpha
    at_zero = np.maximum(np.abs(g) - thresh, 0.0)
    off_zero = np.abs(g - thresh * np.sign(beta))
    return float(np.max(np.where(beta == 0.0, at_zero, off_zero)))


def kkt_check(X: np.ndarray, y: np.ndarray, penalty: PenaltySpec, beta: np.ndarray) -> float:
    """Recompute the stationarity residual of beta from scratch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.shape[0] != y.shape[0] or X.shape[1] != beta.shape[0]:
        raise DataError("kkt_check: shapes of X, y, beta do not agree")
    grad_half = X.T @ (y - X @ beta)
    return _kkt_residual(grad_half, beta, penalty.lam, penalty.alpha)


def solve_pls(X: np.ndarray, y: np.ndarray, penalty: PenaltySpec,
              warm_start: np.ndarray | None = None,
              tol: float = 1e-9, max_sweeps: int = 10000,
              gram: np.ndarray | None = None,
              xty: np.ndarray | None = None,
              yty: float | None = None) -> PlsSolution:
    """Minimize the penalized residual sum of squares by coordinate descent.

    Args:
        X: (N, p) design matrix.
        y: (N,) response.
        penalty: family, mixing weight, and level (raw units).
        warm_start: optional initial beta (copied, not modified).
        tol: convergence threshold on the maximum absolute coefficient
            change over a full sweep.
        max_sweeps: sweep budget; when exhausted the best (last) iterate
            is returned with converged=False.
        gram, xty, yty: optional precomputed X'X, X'y, y'y.  Callers that
            re-solve on a fixed design (the EM loop) pass these to avoid
            touching the N-row data.

    Identically-zero columns get beta_j = 0 with a warning instead of a
    division by zero.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError("solve_pls: X must be (N, p) and y (N,) with matching N")
    if not 0.0 < tol < math.inf:
        raise ConfigurationError("solve_pls: tol must be finite and > 0")
    if max_sweeps < 1:
        raise ConfigurationError("solve_pls: max_sweeps must be >= 1")
    p = X.shape[1]
    lam = float(penalty.lam)
    alpha = penalty.alpha

    y_ss = float(y @ y) if yty is None else float(yty)
    if p == 0:
        return PlsSolution(np.zeros(0), y_ss, 0, 0.0, True, np.array([y_ss]))

    G = X.T @ X if gram is None else np.asarray(gram, dtype=float)
    c = X.T @ y if xty is None else np.asarray(xty, dtype=float)
    diag = np.ascontiguousarray(np.diagonal(G))

    dead = diag <= 0.0
    if dead.any():
        warnings.warn(
            f"solve_pls: {int(dead.sum())} zero column(s) pinned at beta=0",
            RuntimeWarning,
            stacklevel=2,
        )

    if warm_start is None:
        beta = np.zeros(p)
    else:
        beta = np.array(warm_start, dtype=float, copy=True)
        if beta.shape != (p,):
            raise DataError("solve_pls: warm_start has wrong length")
        beta[dead] = 0.0

    m = c - G @ beta  # X'(y - X beta), maintained incrementally
    gamma = lam * alpha
    denom = 2.0 * diag + 2.0 * lam * (1.0 - alpha)
    live = np.flatnonzero(~dead)
    pen_l2 = lam * (1.0 - alpha)

    # hot-loop locals: plain-float lists for scalar reads, a preallocated
    # buffer for the rank-one gradient update (same arithmetic, no numpy
    # scalar overhead)
    beta_l = beta.tolist()
    diag_l = diag.tolist()
    denom_l = denom.tolist()
    G_rows = list(G)
    buf = np.empty(p)
    m_item = m.item

    def objective() -> float:
        val = y_ss - float(beta @ (c + m))
        val += gamma * float(np.abs(beta).sum()) + pen_l2 * float(beta @ beta)
        return val

    def cycle(indices: np.ndarray) -> float:
        biggest = 0.0
        for j in indices:
            b_old = beta_l[j]
            z = 2.0 * (m_item(j) + diag_l[j] * b_old)
            t = abs(z) - gamma
            b_new = math.copysign(t, z) / denom_l[j] if t > 0.0 else 0.0
            if b_new != b_old:
                np.multiply(G_rows[j], b_new - b_old, out=buf)
                np.subtract(m, buf, out=m)
                beta_l[j] = b_new
                beta[j] = b_new
                change = abs(b_new - b_old)
                if change > biggest:
                    biggest = change
        return biggest

    trace = [objective()]
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        delta = cycle(live)
        sweeps += 1
        trace.append(objective())
        if delta < tol:
            converged = True
            break
        active = np.flatnonzero(beta)
        while active.size and sweeps < max_sweeps:
            delta = cycle(active)
            sweeps += 1
            trace.append(objective())
            if delta < tol:
                break

    return PlsSolution(
        beta=beta,
        objective=trace[-1],
        iterations=sweeps,
        kkt_residual=_kkt_residual(m, beta, lam, alpha),
        converged=converged,
        objective_trace=np.asarray(trace),
    )

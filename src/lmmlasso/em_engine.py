"""Penalized maximum likelihood for the linear mixed model via EM.

Model per subject i:

    y_i = X_i beta + Z_i b_i + eps_i,
    b_i ~ N_q(0, D),   eps_i ~ N(0, sigma2 * I).

For a fixed penalty level lam the algorithm alternates a closed-form
E-step for the random-effect moments with conditional M-step updates:
beta by penalized least squares on the de-noised response at the
effective level 2 * lam * sigma2, then closed-form sigma2 and D.  The
objective that ascends is the penalized observed-data log-likelihood
loglik(beta, sigma2, D) - lam * penalty(beta).

The E-step conditions every subject through one q x q positive definite
matrix, K_i = sigma2 I + S Z_i'Z_i S with S the symmetric square root of
D, for any positive semidefinite D (no D^-1 is formed).  The same
inverse and log determinant of K_i give the marginal log-likelihood, so
e_step returns it with the moments and each EM iteration factors the
subjects once.

The beta M-step takes one of two routes (_solve_beta):

- One linear solve (_exact_beta): on a support A with signs s,
  (X_A'X_A + lam1 * (1 - alpha) * I) b_A = X_A'y_tilde - (lam1 * alpha / 2) s,
  lam1 the effective level.  Without an l1 term (lam = 0, as in every
  unpenalized refit, or the ridge penalty) A is every column; with one,
  A and s are the warm start's (the previous beta), and the solution is
  kept only when the KKT conditions prove it optimal.  The dataset owns
  X'X and caches the eigendecomposition of each X_A'X_A (ds.gram,
  ds.gram_factor), so a support is factored once per dataset.
- Otherwise coordinate descent (solve_pls) from the warm start: when the
  support or a sign changes, for the pooled lasso start, and when the
  matrix to factor is not numerically positive definite (zero or
  linearly dependent columns); a fit without an l1 term then records a
  note in FitReport.warnings.

Per-subject computations use the q x q cross products cached on the
dataset, so one EM iteration touches the N-row data only through
design-matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LongitudinalDataset
from .exceptions import ConfigurationError, NumericalError
from .penalized_ls import PenaltySpec, effective_lambda, penalty_value, solve_pls

__all__ = [
    "LmmParams",
    "EStepMoments",
    "EmControl",
    "FitReport",
    "e_step",
    "m_step",
    "observed_loglik",
    "penalized_loglik",
    "fit_em",
]

_D_EIG_FLOOR = 1e-10     # eigenvalue clamp applied between iterations
_SIGMA2_FLOOR = 1e-12
_ABS_STOP = 1e-10        # absolute stopping rule, guards near-zero loglik
_GRAM_COND_LIMIT = 1e12  # X'X beyond this condition number is solved by CD


@dataclass
class LmmParams:
    """Parameters (beta, sigma2, D) of the mixed model."""

    beta: np.ndarray
    sigma2: float
    D: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        self.sigma2 = float(self.sigma2)

    def validate(self):
        self._checked_eigh()
        return self

    def _checked_eigh(self):
        """validate()'s checks; returns np.linalg.eigh(D) for the caller to reuse."""
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise NumericalError(f"sigma2 must be positive, got {self.sigma2}")
        if self.D.ndim != 2 or self.D.shape[0] != self.D.shape[1]:
            raise NumericalError("D must be square")
        if float(np.max(np.abs(self.D - self.D.T), initial=0.0)) > 1e-12:
            raise NumericalError("D is not symmetric")
        w, V = np.linalg.eigh(self.D)
        if float(w.min()) < -_D_EIG_FLOOR:
            raise NumericalError("D has eigenvalues below -1e-10")
        return w, V

    def to_dict(self) -> dict:
        return {"beta": self.beta.tolist(), "sigma2": self.sigma2,
                "D": self.D.tolist()}


@dataclass
class EStepMoments:
    """Conditional random-effect moments, one row per subject.

    b_hat[i] is E[b_i | y_i], Lambda[i] is Cov[b_i | y_i], y_tilde is the
    stacked y - Z b_hat, and loglik is the marginal log-likelihood at the
    parameters the moments were computed at.
    """

    b_hat: np.ndarray   # (n, q)
    Lambda: np.ndarray  # (n, q, q)
    y_tilde: np.ndarray  # (N,)
    loglik: float = float("nan")


@dataclass
class EmControl:
    """Stopping rule and inner-solver settings for fit_em.

    eps is the relative stopping threshold on the penalized log-likelihood;
    abs_eps is the absolute fallback that guards the ratio rule when the
    objective is near zero.  Both may be 0 (run max_iter iterations).
    """

    eps: float = 1e-6
    max_iter: int = 500
    abs_eps: float = _ABS_STOP
    pls_tol: float = 1e-9
    pls_max_sweeps: int = 10000

    def __post_init__(self):
        for name in ("eps", "abs_eps"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"EmControl: {name} must be finite and >= 0")
        if not 0.0 < self.pls_tol < np.inf:
            raise ConfigurationError("EmControl: pls_tol must be finite and > 0")
        for name in ("max_iter", "pls_max_sweeps"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"EmControl: {name} must be >= 1")


@dataclass
class FitReport:
    """Result of one penalized EM fit at a fixed penalty level."""

    params: LmmParams
    iterations: int
    converged: bool
    penalized_loglik_trace: np.ndarray
    final_loglik: float
    lam: float
    lambda_scale: str = "raw"
    warnings: list = field(default_factory=list)
    original_scale: dict | None = None  # populated by post-selection refits

    def worst_trace_decrease(self) -> float:
        """Largest drop between consecutive trace entries (0 if monotone)."""
        tr = self.penalized_loglik_trace
        if tr.size < 2:
            return 0.0
        return float(max(0.0, np.max(tr[:-1] - tr[1:])))

    def to_dict(self) -> dict:
        out = {
            "params": self.params.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "penalized_loglik_trace": self.penalized_loglik_trace.tolist(),
            "final_loglik": self.final_loglik,
            "lambda": self.lam,
            "lambda_scale": self.lambda_scale,
            "warnings": list(self.warnings),
        }
        if self.original_scale is not None:
            out["original_scale"] = self.original_scale
        return out


def _psd_sqrt(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root from eigh's (w, V), clipping tiny negative eigenvalues."""
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _guard_params(params: LmmParams) -> LmmParams:
    """Clamp D's eigenvalues and sigma2 away from zero before an E-step."""
    D = 0.5 * (params.D + params.D.T)
    w, V = np.linalg.eigh(D)
    if w.min() < _D_EIG_FLOOR:
        D = (V * np.clip(w, _D_EIG_FLOOR, None)) @ V.T
    return LmmParams(params.beta, max(params.sigma2, _SIGMA2_FLOOR), D)


def _spd_inv_logdet(K: np.ndarray):
    """Inverses and log determinants of a stack of small SPD matrices.

    Closed forms for the 1x1 and 2x2 cases avoid per-call LAPACK dispatch
    in the EM hot loop (numpy's batched inv and slogdet are several times
    slower on 2x2 stacks, see ROADMAP item 4); larger blocks fall back to
    numpy.  Raises NumericalError unless every block is positive definite.
    """
    q = K.shape[-1]
    if q > 2:
        sign, logdet = np.linalg.slogdet(K)
        pd = sign > 0.0
    else:
        det = K[:, 0, 0] if q == 1 else K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] ** 2
        pd = (K[:, 0, 0] > 0.0) & (det > 0.0)
    if not np.all(pd):
        raise NumericalError("subject covariance is not positive definite")
    if q > 2:
        return np.linalg.inv(K), logdet
    if q == 1:
        return 1.0 / K, np.log(det)
    inv = np.empty_like(K)
    inv[:, 0, 0], inv[:, 1, 1] = K[:, 1, 1], K[:, 0, 0]
    inv[:, 0, 1] = inv[:, 1, 0] = -K[:, 0, 1]
    inv /= det[:, None, None]
    return inv, np.log(det)


def e_step(ds: LongitudinalDataset, params: LmmParams) -> EStepMoments:
    """Conditional random-effect moments and the marginal log-likelihood.

    With S the symmetric square root of D, r_i = y_i - X_i beta and the
    q x q matrix K_i = sigma2 I + S Z_i'Z_i S (positive definite for any
    PSD D):

        Lambda_i = sigma2 S K_i^-1 S    (= (D^-1 + Z_i'Z_i / sigma2)^-1),
        b_hat_i  = S K_i^-1 S Z_i'r_i.

    The same K_i gives the marginal density of y_i, whose covariance is
    V_i = Z_i D Z_i' + sigma2 I: log det V_i = (n_i - q) log sigma2 +
    log det K_i, and r_i'V_i^-1 r_i = (r_i'r_i - w_i'K_i^-1 w_i) / sigma2
    with w_i = S Z_i'r_i.  No D^-1 is formed, so a singular D needs no
    special case.
    """
    S = _psd_sqrt(*params._checked_eigh())
    ztz, ztx, zty = ds.block_moments
    sigma2 = params.sigma2
    Kinv, logdet_K = _spd_inv_logdet(sigma2 * np.eye(ds.q) + S @ ztz @ S)

    w = (zty - ztx @ params.beta) @ S   # (n, q): S Z_i'r_i, since S is symmetric
    Kinv_w = np.einsum("nij,nj->ni", Kinv, w)
    b_hat = Kinv_w @ S
    Lambda = sigma2 * (S @ Kinv @ S)
    y_tilde = ds.y - np.einsum("nq,nq->n", ds.Z, np.repeat(b_hat, ds.counts, axis=0))

    r = ds.y - ds.X @ params.beta
    quad = (np.add.reduceat(r * r, ds.starts) - np.einsum("nq,nq->n", w, Kinv_w)) / sigma2
    logdet = (ds.counts - ds.q) * np.log(sigma2) + logdet_K
    loglik = -0.5 * float(np.sum(ds.counts * np.log(2.0 * np.pi) + logdet + quad))
    return EStepMoments(b_hat=b_hat, Lambda=Lambda, y_tilde=y_tilde, loglik=loglik)


def _gram_is_pd(w: np.ndarray) -> bool:
    """Whether X'X, with ascending eigenvalues w, is numerically PD."""
    return w.size == 0 or w[0] > w[-1] / _GRAM_COND_LIMIT


def _exact_beta(gram: np.ndarray, xty: np.ndarray, factor, l1: float, shift: float,
                warm_start: np.ndarray | None) -> np.ndarray | None:
    """The penalized least-squares minimizer from one linear solve, or None.

    On a support A with signs s the stationarity conditions are linear:
    (G_AA + shift * I) b_A = c_A - (l1 / 2) s, with G = X'X, c = X'y and
    G_AA factored by factor(A), or directly when factor is None.  Without
    an l1 term A is every column.  With one, A and s are warm_start's, and
    the solution is returned only when it is optimal: every b_A keeps its
    sign in s, and every column j outside A meets the at-zero condition
    |2 m_j| <= l1 of _kkt_residual, with m = c - G beta = X'(y - X beta).
    None as well when G_AA is not numerically positive definite.
    """
    if l1 == 0.0:
        active, rhs = np.arange(xty.size), xty
    else:
        active = np.flatnonzero(warm_start)
        signs = np.sign(warm_start[active])
        rhs = xty[active] - 0.5 * l1 * signs
    w, V = factor(active) if factor else np.linalg.eigh(gram[np.ix_(active, active)])
    if not _gram_is_pd(w):
        return None
    b_active = V @ ((V.T @ rhs) / (w + shift))
    if l1 == 0.0:
        return b_active
    if np.any(b_active * signs <= 0.0):
        return None
    m = xty - gram[:, active] @ b_active
    if np.any(np.abs(2.0 * m[warm_start == 0.0]) > l1):
        return None
    beta = np.zeros(xty.size)
    beta[active] = b_active
    return beta


def _solve_beta(X: np.ndarray, y: np.ndarray, penalty: PenaltySpec, lam: float,
                ctrl: EmControl, gram: np.ndarray, factor,
                warm_start: np.ndarray | None = None):
    """Minimize ||y - X beta||^2 + lam * penalty(beta), lam in raw units.

    gram is X'X and factor(cols) the np.linalg.eigh factorization of its
    cols block (LongitudinalDataset.gram_factor), or None.  Solved by
    _exact_beta when there is no l1 term or there is a warm start and that
    solve succeeds; otherwise by coordinate descent (solve_pls) from the
    warm start.

    Returns (beta, PlsSolution or None when solved exactly).
    """
    l1 = lam * penalty.alpha
    shift = lam * (1.0 - penalty.alpha)
    xty = X.T @ y
    beta = None
    if l1 == 0.0 or warm_start is not None:
        beta = _exact_beta(gram, xty, factor, l1, shift, warm_start)
    if beta is not None:
        return beta, None
    sol = solve_pls(X, y, penalty.with_lam(lam), warm_start=warm_start,
                    tol=ctrl.pls_tol, max_sweeps=ctrl.pls_max_sweeps, gram=gram,
                    xty=xty)
    return sol.beta, sol


def m_step(ds: LongitudinalDataset, moments: EStepMoments, params_prev: LmmParams,
           lam: float, penalty: PenaltySpec, ctrl: EmControl | None = None,
           return_pls: bool = False):
    """Conditional maximization given the E-step moments.

    beta solves the penalized least-squares problem on (X, y_tilde) at the
    effective level 2 * lam * sigma2_prev by _solve_beta, warm-started at
    the previous beta: exactly when it can, from the dataset's cached X'X
    and its factors, else by coordinate descent.  sigma2 and D then have
    closed forms.  lam is in raw units.  With return_pls the
    coordinate-descent solution is returned as well (None when beta was
    solved exactly).
    """
    ctrl = ctrl or EmControl()
    ztz = ds.block_moments[0]
    lam1 = 2.0 * lam * params_prev.sigma2
    beta, sol = _solve_beta(ds.X, moments.y_tilde, penalty, lam1, ctrl, ds.gram,
                            ds.gram_factor, warm_start=params_prev.beta)

    resid = moments.y_tilde - ds.X @ beta
    trace_term = float(np.einsum("nij,nij->", moments.Lambda, ztz))
    sigma2 = (float(resid @ resid) + trace_term) / ds.N

    D = (moments.b_hat.T @ moments.b_hat + moments.Lambda.sum(axis=0)) / ds.n
    D = 0.5 * (D + D.T)

    params = LmmParams(beta, sigma2, D)
    return (params, sol) if return_pls else params


def observed_loglik(ds: LongitudinalDataset, params: LmmParams) -> float:
    """Marginal log-likelihood with per-subject covariance Z D Z' + sigma2 I.

    Computed by e_step, which conditions each subject on the same q x q
    factorization.
    """
    return e_step(ds, params).loglik


def penalized_loglik(ds: LongitudinalDataset, params: LmmParams, lam: float,
                     penalty: PenaltySpec) -> float:
    """observed_loglik minus lam * penalty(beta), lam in raw units."""
    return observed_loglik(ds, params) - lam * penalty_value(penalty, params.beta)


def fit_em(ds: LongitudinalDataset, lam: float, penalty: PenaltySpec | None = None,
           init: LmmParams | None = None, ctrl: EmControl | None = None,
           lambda_scale: str = "raw") -> FitReport:
    """Penalized ML fit at a fixed penalty level.

    Initialization: beta from the pooled penalized least-squares problem
    at level lam, sigma2 from its residual sum of squares over N, D the
    identity (all overridden when init is given).  Iterates E- and M-steps
    until the relative change of the penalized log-likelihood falls below
    ctrl.eps, with an absolute fallback of 1e-10 where the ratio rule is
    ill-conditioned near zero.  Every exact solve reads X'X and its
    factors from the dataset, which computes each once.

    Each iteration guards the parameters (_guard_params), runs one E-step,
    which also gives the trace entry for the stopping rule, and then an
    M-step.  The returned params and final_loglik are the last guarded
    iterate.
    """
    penalty = PenaltySpec.lasso(lam) if penalty is None else penalty.with_lam(lam)
    ctrl = ctrl or EmControl()
    lam_raw = effective_lambda(lam, lambda_scale, ds.N)
    notes: list = []

    if lam_raw * penalty.alpha == 0.0 and not _gram_is_pd(ds.gram_factor(range(ds.p))[0]):
        notes.append("X'X is not numerically positive definite; "
                     "beta solved by coordinate descent")
    if init is None:
        beta0, _ = _solve_beta(ds.X, ds.y, penalty, lam_raw, ctrl, ds.gram, ds.gram_factor)
        resid0 = ds.y - ds.X @ beta0
        params = LmmParams(beta0, float(resid0 @ resid0) / ds.N, np.eye(ds.q))
    else:
        if init.beta.shape != (ds.p,) or init.D.shape != (ds.q, ds.q):
            raise ConfigurationError("fit_em: init has wrong shapes for this dataset")
        params = LmmParams(init.beta.copy(), init.sigma2, init.D.copy())

    params = _guard_params(params)
    moments = e_step(ds, params)
    lp = moments.loglik - lam_raw * penalty_value(penalty, params.beta)
    trace = [lp]
    converged = False
    iterations = 0
    while iterations < ctrl.max_iter and not converged:
        iterations += 1
        try:
            params, sol = m_step(ds, moments, params, lam_raw, penalty, ctrl,
                                 return_pls=True)
            params = _guard_params(params)
            moments = e_step(ds, params)
        except NumericalError as e:
            raise NumericalError(f"fit_em: iteration {iterations}: {e}") from e
        if sol is not None and not sol.converged:
            notes.append(f"iteration {iterations}: coordinate descent hit its sweep budget")
        lp_new = moments.loglik - lam_raw * penalty_value(penalty, params.beta)
        trace.append(lp_new)
        ratio_ok = lp != 0.0 and abs(lp_new / lp - 1.0) < ctrl.eps
        converged = ratio_ok or abs(lp_new - lp) < ctrl.abs_eps
        lp = lp_new

    return FitReport(
        params=params,
        iterations=iterations,
        converged=converged,
        penalized_loglik_trace=np.asarray(trace),
        final_loglik=moments.loglik,
        lam=float(lam),
        lambda_scale=lambda_scale,
        warnings=notes,
    )

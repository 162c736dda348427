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

The beta M-step takes one of three routes (_solve_beta):

- No l1 term (lam = 0, as in every unpenalized refit, or the ridge
  penalty): the linear solve (X'X + lam1 * (1 - alpha) * I) beta =
  X'y_tilde, lam1 the effective level.  X'X is fixed for a fit, so
  fit_em factors it once (eigendecomposition, which serves every shift
  lam1 takes) and solves each M-step and its initial pooled estimate
  exactly.
- An l1 term: on the support A and signs s of the warm start (the
  previous beta) the stationarity conditions are linear too,
  (X_A'X_A + lam1 * (1 - alpha) * I) b_A = X_A'y_tilde - (lam1 * alpha / 2) s,
  solved from a small eigendecomposition.  The support rarely changes
  between EM iterations; the result is accepted only when the KKT
  conditions prove it optimal.
- Otherwise coordinate descent (solve_pls) from the warm start: when the
  support or a sign changes, for the pooled lasso start, and when the
  matrix to factor is not numerically positive definite (zero or
  linearly dependent columns); a fit without an l1 term then records a
  note in FitReport.warnings.

Per-subject computations use the q x q cross products cached on the
dataset, so one EM iteration touches the N-row data only through a
single design-matrix product.
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

_D_COND_LIMIT = 1e12     # switch to the inversion-free Lambda form beyond this
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
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise NumericalError(f"sigma2 must be positive, got {self.sigma2}")
        if self.D.ndim != 2 or self.D.shape[0] != self.D.shape[1]:
            raise NumericalError("D must be square")
        if float(np.max(np.abs(self.D - self.D.T), initial=0.0)) > 1e-12:
            raise NumericalError("D is not symmetric")
        if float(np.linalg.eigvalsh(self.D).min()) < -_D_EIG_FLOOR:
            raise NumericalError("D has eigenvalues below -1e-10")
        return self

    def to_dict(self) -> dict:
        return {"beta": self.beta.tolist(), "sigma2": self.sigma2,
                "D": self.D.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "LmmParams":
        return cls(np.asarray(d["beta"]), d["sigma2"], np.asarray(d["D"]))


@dataclass
class EStepMoments:
    """Conditional random-effect moments, one row per subject.

    b_hat[i] is E[b_i | y_i], Lambda[i] is Cov[b_i | y_i], and y_tilde is
    the stacked y - Z b_hat.
    """

    b_hat: np.ndarray   # (n, q)
    Lambda: np.ndarray  # (n, q, q)
    y_tilde: np.ndarray  # (N,)


@dataclass
class EmControl:
    """Stopping rule and inner-solver settings for fit_em.

    eps is the relative stopping threshold on the penalized log-likelihood;
    abs_eps is the absolute fallback that guards the ratio rule when the
    objective is near zero.
    """

    eps: float = 1e-6
    max_iter: int = 500
    abs_eps: float = _ABS_STOP
    pls_tol: float = 1e-9
    pls_max_sweeps: int = 10000


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


def _psd_sqrt(D: np.ndarray, eig=None) -> np.ndarray:
    """Symmetric PSD square root, clipping tiny negative eigenvalues."""
    w, V = np.linalg.eigh(D) if eig is None else eig
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _guard_params(params: LmmParams):
    """Clamp D eigenvalues and sigma2 away from zero before an E-step.

    Returns (guarded params, eigendecomposition of the guarded D, changed)
    so the EM loop factors D only once per iteration and can reuse the
    factorization whenever no clamping occurred.
    """
    D = 0.5 * (params.D + params.D.T)
    w, V = np.linalg.eigh(D)
    changed = False
    if w.min() < _D_EIG_FLOOR:
        w = np.clip(w, _D_EIG_FLOOR, None)
        D = (V * w) @ V.T
        changed = True
    sigma2 = params.sigma2
    if sigma2 < _SIGMA2_FLOOR:
        sigma2 = _SIGMA2_FLOOR
        changed = True
    return LmmParams(params.beta, sigma2, D), (w, V), changed


def _batched_spd_inv(K: np.ndarray) -> np.ndarray:
    """Inverses of a stack of small SPD matrices.

    Closed forms for the 1x1 and 2x2 cases avoid per-call LAPACK dispatch
    in the EM hot loop; larger blocks fall back to numpy.
    """
    q = K.shape[-1]
    if q == 1:
        return 1.0 / K
    if q == 2:
        a = K[:, 0, 0]
        b = K[:, 0, 1]
        c = K[:, 1, 1]
        det = a * c - b * b
        if np.any(det <= 0.0) or np.any(a <= 0.0):
            raise np.linalg.LinAlgError("2x2 block not positive definite")
        out = np.empty_like(K)
        out[:, 0, 0] = c
        out[:, 1, 1] = a
        out[:, 0, 1] = -b
        out[:, 1, 0] = -b
        out /= det[:, None, None]
        return out
    return np.linalg.inv(K)


def _batched_spd_logdet(K: np.ndarray) -> np.ndarray:
    """log det of a stack of small SPD matrices (raises when not PD)."""
    q = K.shape[-1]
    if q == 1:
        d = K[:, 0, 0]
        if np.any(d <= 0.0):
            raise NumericalError("subject covariance is not positive definite")
        return np.log(d)
    if q == 2:
        a = K[:, 0, 0]
        det = a * K[:, 1, 1] - K[:, 0, 1] * K[:, 1, 0]
        if np.any(det <= 0.0) or np.any(a <= 0.0):
            raise NumericalError("subject covariance is not positive definite")
        return np.log(det)
    sign, logdet = np.linalg.slogdet(K)
    if np.any(sign <= 0):
        raise NumericalError("subject covariance is not positive definite")
    return logdet


def e_step(ds: LongitudinalDataset, params: LmmParams,
           _d_eig=None, _validate: bool = True) -> EStepMoments:
    """Conditional moments of the random effects at the given parameters.

    Lambda_i = (D^-1 + Z_i'Z_i / sigma2)^-1 and
    b_hat_i = Lambda_i Z_i'(y_i - X_i beta) / sigma2.  When D is close to
    singular the algebraically equivalent form
    Lambda_i = D - D Z_i' (Z_i D Z_i' + sigma2 I)^-1 Z_i D is used, which
    needs no D^-1.

    _d_eig and _validate are internal fast-path hooks used by fit_em,
    which guards and factors D once per iteration.
    """
    if _validate:
        params.validate()
    ztz, ztx, zty = ds.block_moments
    sigma2 = params.sigma2
    D = params.D

    u = zty - ztx @ params.beta  # (n, q): Z_i'(y_i - X_i beta)

    w, V = np.linalg.eigh(D) if _d_eig is None else _d_eig
    well_conditioned = w.min() > 0.0 and w.max() <= _D_COND_LIMIT * w.min()
    try:
        if well_conditioned:
            d_inv = (V / w) @ V.T
            M = d_inv[None, :, :] + ztz / sigma2
            Lambda = _batched_spd_inv(M)
            b_hat = np.einsum("nij,nj->ni", Lambda, u) / sigma2
        else:
            S = _psd_sqrt(D, eig=(w, V))
            A = np.einsum("ij,njk,kl->nil", S, ztz, S)  # S Z'Z S
            K = sigma2 * np.eye(ds.q)[None, :, :] + A
            Kinv = _batched_spd_inv(K)
            DZtZ = np.einsum("ij,njk->nik", D, ztz)
            DZtZS = DZtZ @ S
            Lambda = D[None, :, :] - (
                np.einsum("nij,jk->nik", DZtZ, D)
                - np.einsum("nij,njk,nkl->nil", DZtZS, Kinv,
                            np.transpose(DZtZS, (0, 2, 1)))
            ) / sigma2
            Du = u @ D  # (n, q): D Z_i' r_i
            Su = u @ S
            b_hat = (Du - np.einsum("nij,njk,nk->ni", DZtZS, Kinv, Su)) / sigma2
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"E-step failed to invert conditional covariance: {e}") from e

    y_tilde = ds.y - np.einsum("nq,nq->n", ds.Z, np.repeat(b_hat, ds.counts, axis=0))
    return EStepMoments(b_hat=b_hat, Lambda=Lambda, y_tilde=y_tilde)


def _gram_is_pd(w: np.ndarray) -> bool:
    """Whether X'X, with ascending eigenvalues w, is numerically PD."""
    return w.size == 0 or w[0] > w[-1] / _GRAM_COND_LIMIT


def _eig_solve(eig, rhs: np.ndarray, shift: float) -> np.ndarray | None:
    """(A + shift * I)^-1 rhs from eig = np.linalg.eigh(A); None unless A is PD."""
    w, V = eig
    if not _gram_is_pd(w):
        return None
    return V @ ((V.T @ rhs) / (w + shift))


def _lasso_on_support(gram: np.ndarray, xty: np.ndarray, warm_start: np.ndarray,
                      l1: float, shift: float) -> np.ndarray | None:
    """The penalized least-squares minimizer with warm_start's support and signs.

    On the support A with signs s the stationarity conditions are linear:
    (G_AA + shift * I) b_A = c_A - (l1 / 2) s, with G = X'X and c = X'y.
    The solution is returned only when it is optimal: every b_A keeps its
    sign in s, and every column j outside A meets the at-zero condition
    |2 m_j| <= l1 of _kkt_residual, with m = c - G beta = X'(y - X beta).
    Otherwise None.
    """
    active = np.flatnonzero(warm_start)
    signs = np.sign(warm_start[active])
    b_active = _eig_solve(np.linalg.eigh(gram[np.ix_(active, active)]),
                          xty[active] - 0.5 * l1 * signs, shift)
    if b_active is None or np.any(b_active * signs <= 0.0):
        return None
    m = xty - gram[:, active] @ b_active
    if np.any(np.abs(2.0 * m[warm_start == 0.0]) > l1):
        return None
    beta = np.zeros(xty.size)
    beta[active] = b_active
    return beta


def _solve_beta(X: np.ndarray, y: np.ndarray, penalty: PenaltySpec, lam: float,
                ctrl: EmControl, gram: np.ndarray | None, gram_eig,
                warm_start: np.ndarray | None = None):
    """Minimize ||y - X beta||^2 + lam * penalty(beta), lam in raw units.

    Three routes, tried in order:

    - no l1 term: solved exactly from gram_eig, the eigendecomposition of
      X'X, when X'X is numerically positive definite;
    - an l1 term and a warm start: solved exactly on the warm start's
      support and signs, when the KKT conditions prove that solution
      optimal (_lasso_on_support);
    - otherwise coordinate descent (solve_pls) from the warm start.

    Returns (beta, PlsSolution or None when solved exactly).
    """
    l1 = lam * penalty.alpha
    shift = lam * (1.0 - penalty.alpha)
    xty = X.T @ y
    beta = None
    if l1 == 0.0:
        beta = _eig_solve(gram_eig, xty, shift)
    elif warm_start is not None:
        gram = X.T @ X if gram is None else gram
        beta = _lasso_on_support(gram, xty, warm_start, l1, shift)
    if beta is not None:
        return beta, None
    sol = solve_pls(X, y, penalty.with_lam(lam), warm_start=warm_start,
                    tol=ctrl.pls_tol, max_sweeps=ctrl.pls_max_sweeps, gram=gram,
                    xty=xty)
    return sol.beta, sol


def m_step(ds: LongitudinalDataset, moments: EStepMoments, params_prev: LmmParams,
           lam: float, penalty: PenaltySpec, ctrl: EmControl | None = None,
           gram: np.ndarray | None = None, gram_eig=None, return_pls: bool = False):
    """Conditional maximization given the E-step moments.

    beta solves the penalized least-squares problem on (X, y_tilde) at the
    effective level 2 * lam * sigma2_prev by _solve_beta, warm-started at
    the previous beta: exactly when it can, else by coordinate descent.
    sigma2 and D then have closed forms.  lam is in raw units.  gram and
    gram_eig are X'X and its np.linalg.eigh factorization, computed here
    when needed and not given.  With return_pls the coordinate-descent
    solution is returned as well (None when beta was solved exactly).
    """
    ctrl = ctrl or EmControl()
    ztz = ds.block_moments[0]
    lam1 = 2.0 * lam * params_prev.sigma2
    if gram_eig is None and lam1 * penalty.alpha == 0.0:
        gram_eig = np.linalg.eigh(ds.X.T @ ds.X if gram is None else gram)
    beta, sol = _solve_beta(ds.X, moments.y_tilde, penalty, lam1, ctrl, gram,
                            gram_eig, warm_start=params_prev.beta)

    resid = moments.y_tilde - ds.X @ beta
    trace_term = float(np.einsum("nij,nij->", moments.Lambda, ztz))
    sigma2 = (float(resid @ resid) + trace_term) / ds.N

    D = (moments.b_hat.T @ moments.b_hat + moments.Lambda.sum(axis=0)) / ds.n
    D = 0.5 * (D + D.T)

    params = LmmParams(beta, sigma2, D)
    return (params, sol) if return_pls else params


def observed_loglik(ds: LongitudinalDataset, params: LmmParams,
                    _d_eig=None, _validate: bool = True) -> float:
    """Marginal log-likelihood with per-subject covariance Z D Z' + sigma2 I.

    Each subject's determinant and quadratic form are reduced to the q x q
    symmetric positive definite matrix sigma2 I + S Z'Z S (S the symmetric
    square root of D), factored per subject.
    """
    if _validate:
        params.validate()
    ztz, ztx, zty = ds.block_moments
    sigma2 = params.sigma2
    q = ds.q

    S = _psd_sqrt(params.D, eig=_d_eig)
    K = sigma2 * np.eye(q)[None, :, :] + np.einsum("ij,njk,kl->nil", S, ztz, S)
    logdet_K = _batched_spd_logdet(K)

    r = ds.y - ds.X @ params.beta
    rss = np.add.reduceat(r * r, ds.starts)
    u = zty - ztx @ params.beta       # Z_i' r_i
    w = u @ S                         # (S Z_i' r_i), since S is symmetric
    try:
        Kinv_w = np.einsum("nij,nj->ni", _batched_spd_inv(K), w)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"failed to factor subject covariance: {e}") from e
    quad = (rss - np.einsum("nq,nq->n", w, Kinv_w)) / sigma2

    logdet = (ds.counts - q) * np.log(sigma2) + logdet_K
    return float(-0.5 * np.sum(ds.counts * np.log(2.0 * np.pi) + logdet + quad))


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
    ill-conditioned near zero.  When the penalty has no l1 term, X'X is
    factored once here and serves the initial and every M-step solve.
    """
    penalty = PenaltySpec.lasso(lam) if penalty is None else penalty
    ctrl = ctrl or EmControl()
    if ctrl.max_iter < 1:
        raise ConfigurationError("fit_em: max_iter must be >= 1")
    lam_raw = effective_lambda(lam, lambda_scale, ds.N)
    notes: list = []

    gram = ds.X.T @ ds.X if ds.p else np.zeros((0, 0))
    gram_eig = None
    if lam_raw * penalty.alpha == 0.0:
        gram_eig = np.linalg.eigh(gram)
        if not _gram_is_pd(gram_eig[0]):
            notes.append("X'X is not numerically positive definite; "
                         "beta solved by coordinate descent")
    if init is None:
        beta0, _ = _solve_beta(ds.X, ds.y, penalty, lam_raw, ctrl, gram, gram_eig)
        resid0 = ds.y - ds.X @ beta0
        sigma2_0 = max(float(resid0 @ resid0) / ds.N, _SIGMA2_FLOOR)
        params = LmmParams(beta0, sigma2_0, np.eye(ds.q))
    else:
        if init.beta.shape != (ds.p,) or init.D.shape != (ds.q, ds.q):
            raise ConfigurationError("fit_em: init has wrong shapes for this dataset")
        params = LmmParams(init.beta.copy(), init.sigma2, init.D.copy())

    guarded, d_eig, _ = _guard_params(params)
    lp = penalized_loglik(ds, guarded, lam_raw, penalty)
    trace = [lp]
    converged = False
    iterations = 0
    loglik = None
    for it in range(1, ctrl.max_iter + 1):
        iterations = it
        try:
            moments = e_step(ds, guarded, _d_eig=d_eig, _validate=False)
            params_new, sol = m_step(ds, moments, guarded, lam_raw, penalty,
                                     ctrl, gram=gram, gram_eig=gram_eig,
                                     return_pls=True)
        except NumericalError as e:
            raise NumericalError(f"fit_em: iteration {it}: {e}") from e
        if sol is not None and not sol.converged:
            notes.append(f"iteration {it}: coordinate descent hit its sweep budget")
        params_new.sigma2 = max(params_new.sigma2, _SIGMA2_FLOOR)
        guarded, d_eig, guard_changed = _guard_params(params_new)
        loglik = observed_loglik(ds, params_new, _validate=False,
                                 _d_eig=None if guard_changed else d_eig)
        lp_new = loglik - lam_raw * penalty_value(penalty, params_new.beta)
        trace.append(lp_new)
        params = params_new
        ratio_ok = lp != 0.0 and abs(lp_new / lp - 1.0) < ctrl.eps
        if ratio_ok or abs(lp_new - lp) < ctrl.abs_eps:
            converged = True
            lp = lp_new
            break
        lp = lp_new

    return FitReport(
        params=params,
        iterations=iterations,
        converged=converged,
        penalized_loglik_trace=np.asarray(trace),
        final_loglik=float(loglik) if loglik is not None else float("nan"),
        lam=float(lam),
        lambda_scale=lambda_scale,
        warnings=notes,
    )

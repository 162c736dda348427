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
subjects once.  Each iteration eigendecomposes D once: fit_em's guard
(_guard_params) takes eigh(D) and hands it to e_step, which builds S
from it.  The products S A_i S over all subjects are two flat
(n*q, q) @ S products (_sandwich), and the log-likelihood is formed
from totals over subjects.

Every beta M-step, the pooled start included, first tries one linear
solve (_exact_beta, the one place that decides the route, by
_exact_factor's positive-definiteness rule): on a support
A with signs s, (X_A'X_A + shift * I) b_A = X_A'y_tilde - (l1 / 2) s,
with l1 = lam1 * alpha, shift = lam1 * (1 - alpha), lam1 the effective
level.  Without an l1 term (lam = 0, as in every unpenalized refit, or
the ridge penalty) A is every column; with one, A and s are the warm
start's (the previous beta, zero for the pooled start), and the solution
is kept only when the KKT conditions prove it optimal.  The dataset owns
X'X and caches the eigendecomposition of each X_A'X_A (ds.gram,
ds.gram_factor), so a support is factored once per dataset.  Coordinate
descent (solve_pls) from the warm start runs instead when the support or
a sign changes, or when X_A'X_A + shift * I is not numerically positive
definite (in practice zero or dependent columns and shift = 0); a fit
without an l1 term then records a note in FitReport.warnings.

Per-subject computations use the q x q cross products cached on the
dataset, so one EM iteration touches the N-row data only through
design-matrix products.

fit_em_supports runs the unpenalized fits of many supports (a sweep's
refits) as one EM over their stacked parameters on the parent dataset:
one _guard_params, one _e_step_stack and one batched beta solve per
iteration for all of them, on the same cached moments and X'X factors.
At 30 subjects an iteration costs mostly numpy dispatch, so R fits in
lock-step cost far less than R fits one by one; a single fit stays on
e_step, which is faster at R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import LongitudinalDataset
from .exceptions import ConfigurationError, LmmLassoError, NumericalError
from .penalized_ls import RAW, PenaltySpec, effective_lambda, penalty_value, solve_pls

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
    "fit_em_supports",
]

_D_EIG_FLOOR = 1e-10     # eigenvalue clamp applied between iterations
_SIGMA2_FLOOR = 1e-12
_ABS_STOP = 1e-10        # absolute stopping rule, guards near-zero loglik
_GRAM_COND_LIMIT = 1e12  # G_AA + shift I beyond this condition number goes to CD
_CD_NOTE = "X'X is not numerically positive definite; beta solved by coordinate descent"


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

    def _check_finite(self):
        """Raise NumericalError naming the first of beta, sigma2, D with a NaN or inf."""
        for name, finite in (("beta", np.isfinite(self.beta).all()),
                             ("sigma2", math.isfinite(self.sigma2)),
                             ("D", np.isfinite(self.D).all())):
            if not finite:
                raise NumericalError(f"{name} must be finite")

    def _checked_eigh(self):
        """validate()'s checks; returns np.linalg.eigh(D) for the caller to reuse."""
        self._check_finite()
        if self.sigma2 <= 0.0:
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
    lambda_scale: str = RAW
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
    """Symmetric PSD square root from eigh's (w, V), clipping tiny negative eigenvalues.

    Stacks of decompositions, w (R, q) and V (R, q, q), give (R, q, q).
    """
    return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ V.swapaxes(-1, -2)


@dataclass
class _ParamStack:
    """The parameters of R members on a leading axis: beta (R, p), sigma2 (R,), D (R, q, q)."""

    beta: np.ndarray
    sigma2: np.ndarray
    D: np.ndarray

    def _check_finite(self):
        """LmmParams._check_finite over the whole stack."""
        for name in ("beta", "sigma2", "D"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericalError(f"{name} must be finite")


def _guard_params(params: LmmParams):
    """Clamp D's eigenvalues and sigma2 away from zero before an E-step.

    Returns the guarded params and np.linalg.eigh of their D, which e_step
    takes in place of its own checks: the guarded D is exactly symmetric
    with eigenvalues above -1e-10 and sigma2 is positive, so after the
    shared finiteness check nothing validate() refuses can get through.
    A _ParamStack is guarded member by member in one pass, and raises if
    any member is not finite.
    """
    params._check_finite()
    D = 0.5 * (params.D + params.D.swapaxes(-1, -2))
    w, V = np.linalg.eigh(D)
    if w.min() < _D_EIG_FLOOR:
        low = w.min(axis=-1)[..., None, None] < _D_EIG_FLOOR  # the members to clamp
        C = (V * np.clip(w, _D_EIG_FLOOR, None)[..., None, :]) @ V.swapaxes(-1, -2)
        D = np.where(low, 0.5 * (C + C.swapaxes(-1, -2)), D)
        w, V = np.linalg.eigh(D)
    return type(params)(params.beta, np.maximum(params.sigma2, _SIGMA2_FLOOR), D), (w, V)


def _spd_inv_logdet(K: np.ndarray):
    """Inverses and log determinants of a stack (..., q, q) of small SPD matrices.

    Closed forms for the 1x1 and 2x2 cases avoid per-call LAPACK dispatch
    in the EM hot loop (on 2x2 stacks numpy's batched inv and slogdet took
    1.6x as long at 30 subjects, 16x at 10,000); larger blocks fall back to
    numpy.  Raises NumericalError unless every block is positive definite.
    """
    q = K.shape[-1]
    if q > 2:
        sign, logdet = np.linalg.slogdet(K)
        pd = sign > 0.0
    else:
        det = K[..., 0, 0] if q == 1 else K[..., 0, 0] * K[..., 1, 1] - K[..., 0, 1] ** 2
        pd = (K[..., 0, 0] > 0.0) & (det > 0.0)
    if not np.all(pd):
        raise NumericalError("subject covariance is not positive definite")
    if q > 2:
        return np.linalg.inv(K), logdet
    if q == 1:
        return 1.0 / K, np.log(det)
    inv = np.empty_like(K)
    inv[..., 0, 0], inv[..., 1, 1] = K[..., 1, 1], K[..., 0, 0]
    inv[..., 0, 1] = inv[..., 1, 0] = -K[..., 0, 1]
    inv /= det[..., None, None]
    return inv, np.log(det)


def _sandwich(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """S A_i S for every symmetric q x q block A_i of the (n, q, q) stack A.

    Two flat (n*q, q) @ S products: the first gives the blocks A_i S,
    whose transposes are S A_i.  numpy's stacked matmul would dispatch
    once per block.  A leading axis of R members is allowed on S (R, q, q),
    on A (R, n, q, q) or on both; the result is then (R, n, q, q).
    """
    n, q = A.shape[-3:-1]
    lead = A.shape[:-3] or S.shape[:-2]
    AS = (A.reshape(*A.shape[:-3], n * q, q) @ S).reshape(*lead, n, q, q)
    return (AS.swapaxes(-1, -2).reshape(*lead, n * q, q) @ S).reshape(*lead, n, q, q)


def e_step(ds: LongitudinalDataset, params: LmmParams, *, eig=None) -> EStepMoments:
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
    special case.  The log-likelihood needs only totals over subjects:
    sum_i r_i'r_i = r'r and sum_i log det V_i = (N - n q) log sigma2 +
    sum_i log det K_i.

    eig, when given, is np.linalg.eigh(params.D) from a caller that has
    already checked params (fit_em's _guard_params); otherwise params are
    validated here and D is decomposed.
    """
    S = _psd_sqrt(*(params._checked_eigh() if eig is None else eig))
    ztz, ztx, zty = ds.block_moments
    n, q = ds.n, ds.q
    sigma2 = params.sigma2
    Kinv, logdet_K = _spd_inv_logdet(sigma2 * np.eye(q) + _sandwich(S, ztz))

    ztr = zty - (ztx.reshape(n * q, ds.p) @ params.beta).reshape(n, q)
    w = ztr @ S   # (n, q): S Z_i'r_i, since S is symmetric
    Kinv_w = np.einsum("nij,nj->ni", Kinv, w)
    b_hat = Kinv_w @ S
    Lambda = sigma2 * _sandwich(S, Kinv)
    y_tilde = ds.y - np.einsum("nq,nq->n", ds.Z, np.repeat(b_hat, ds.counts, axis=0))

    r = ds.y - ds.X @ params.beta
    quad = (float(r @ r) - float(np.einsum("nq,nq->", w, Kinv_w))) / sigma2
    logdet = (ds.N - n * q) * math.log(sigma2) + float(logdet_K.sum())
    loglik = -0.5 * (ds.N * math.log(2.0 * math.pi) + logdet + quad)
    return EStepMoments(b_hat=b_hat, Lambda=Lambda, y_tilde=y_tilde, loglik=float(loglik))


def _exact_factor(ds: LongitudinalDataset, active, shift: float):
    """Eigendecomposition (w, V) of G_AA + shift * I, or None when it is not
    numerically positive definite (condition number beyond _GRAM_COND_LIMIT).

    G_AA is the block of X'X on the columns active, factored once per
    dataset by ds.gram_factor.
    """
    w, V = ds.gram_factor(active)
    w = w + shift
    if w.size and not w[0] > w[-1] / _GRAM_COND_LIMIT:
        return None
    return w, V


def _exact_beta(ds: LongitudinalDataset, xty: np.ndarray, l1: float, shift: float,
                warm_start: np.ndarray) -> np.ndarray | None:
    """The penalized least-squares minimizer from one linear solve, or None.

    On a support A with signs s the stationarity conditions are linear:
    (G_AA + shift * I) b_A = c_A - (l1 / 2) s, with G = X'X (ds.gram),
    c = X'y and G_AA factored by ds.gram_factor(A).  Without an l1 term A
    is every column.  With one, A and s are warm_start's, and the solution
    is returned only when it is optimal: every b_A keeps its sign in s, and
    every column j outside A meets the at-zero condition |2 m_j| <= l1 of
    _kkt_residual, with m = c - G beta = X'(y - X beta).  None as well when
    the matrix solved, G_AA + shift * I, is not numerically positive definite
    (_exact_factor).
    """
    if l1 == 0.0:
        active, rhs = np.arange(xty.size), xty
    else:
        active = np.flatnonzero(warm_start)
        signs = np.sign(warm_start[active])
        rhs = xty[active] - 0.5 * l1 * signs
    factor = _exact_factor(ds, active, shift)
    if factor is None:
        return None
    w, V = factor
    b_active = V @ ((V.T @ rhs) / w)
    if l1 == 0.0:
        return b_active
    if np.any(b_active * signs <= 0.0):
        return None
    m = xty - ds.gram[:, active] @ b_active
    if np.any(np.abs(2.0 * m[warm_start == 0.0]) > l1):
        return None
    beta = np.zeros(xty.size)
    beta[active] = b_active
    return beta


def _solve_beta(ds: LongitudinalDataset, y: np.ndarray, penalty: PenaltySpec, lam: float,
                ctrl: EmControl, warm_start: np.ndarray):
    """Minimize ||y - X beta||^2 + lam * penalty(beta), X = ds.X, lam in raw units.

    Tried first by _exact_beta, from the dataset's X'X and its factors (a
    cold start's zero warm_start settles any level at or above lambda_max);
    coordinate descent (solve_pls) from warm_start when that solve fails.

    Returns (beta, PlsSolution or None when solved exactly).
    """
    l1 = lam * penalty.alpha
    shift = lam * (1.0 - penalty.alpha)
    xty = ds.X.T @ y
    beta = _exact_beta(ds, xty, l1, shift, warm_start)
    if beta is not None:
        return beta, None
    sol = solve_pls(ds.X, y, penalty.with_lam(lam), warm_start=warm_start,
                    tol=ctrl.pls_tol, max_sweeps=ctrl.pls_max_sweeps, gram=ds.gram,
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
    beta, sol = _solve_beta(ds, moments.y_tilde, penalty, lam1, ctrl,
                            warm_start=params_prev.beta)

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
           lambda_scale: str = RAW) -> FitReport:
    """Penalized ML fit at a fixed penalty level.

    Initialization: beta from the pooled penalized least-squares problem
    at level lam, sigma2 from its residual sum of squares over N, D the
    identity (all overridden when init is given).  Iterates E- and M-steps
    until the relative change of the penalized log-likelihood falls below
    ctrl.eps, with an absolute fallback of 1e-10 where the ratio rule is
    ill-conditioned near zero.  Every exact solve reads X'X and its
    factors from the dataset, which computes each once.

    Each iteration guards the parameters (_guard_params), runs one E-step
    on the guard's eigendecomposition of D, which also gives the trace
    entry for the stopping rule, and then an M-step.  The returned params
    and final_loglik are the last guarded iterate.
    """
    penalty = PenaltySpec.lasso(lam) if penalty is None else penalty.with_lam(lam)
    ctrl = ctrl or EmControl()
    lam_raw = effective_lambda(lam, lambda_scale, ds.N)
    notes: list = []

    def note_cd(sol, where: str):
        """Notes on a coordinate-descent M-step; sol is None when beta was solved exactly."""
        if sol is not None and lam_raw * penalty.alpha == 0.0 and _CD_NOTE not in notes:
            notes.append(_CD_NOTE)
        if sol is not None and not sol.converged:
            notes.append(f"{where}: coordinate descent hit its sweep budget")

    if init is None:
        beta0, sol = _solve_beta(ds, ds.y, penalty, lam_raw, ctrl, warm_start=np.zeros(ds.p))
        note_cd(sol, "cold start")
        resid0 = ds.y - ds.X @ beta0
        params = LmmParams(beta0, float(resid0 @ resid0) / ds.N, np.eye(ds.q))
    else:
        if init.beta.shape != (ds.p,) or init.D.shape != (ds.q, ds.q):
            raise ConfigurationError("fit_em: init has wrong shapes for this dataset")
        params = LmmParams(init.beta.copy(), init.sigma2, init.D.copy())

    params, eig = _guard_params(params)
    moments = e_step(ds, params, eig=eig)
    lp = moments.loglik - lam_raw * penalty_value(penalty, params.beta)
    trace = [lp]
    converged = False
    iterations = 0
    while iterations < ctrl.max_iter and not converged:
        iterations += 1
        try:
            params, sol = m_step(ds, moments, params, lam_raw, penalty, ctrl,
                                 return_pls=True)
            params, eig = _guard_params(params)
            moments = e_step(ds, params, eig=eig)
        except NumericalError as e:
            raise NumericalError(f"fit_em: iteration {iterations}: {e}") from e
        note_cd(sol, f"iteration {iterations}")
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


def _row_sums_of_squares(a: np.ndarray) -> np.ndarray:
    """sum_n a[r, n]^2 for each row r of an (R, N) stack."""
    return np.einsum("rn,rn->r", a, a)


def _e_step_stack(ds: LongitudinalDataset, beta: np.ndarray, sigma2: np.ndarray,
                  S: np.ndarray):
    """e_step for R parameter sets at once, on one dataset.

    beta (R, p), sigma2 (R,) and S (R, q, q), the square roots of the D's.
    Returns b_hat (R, n, q), Lambda (R, n, q, q), y_tilde (R, N) and
    loglik (R,): each member's e_step results, summed in another order.
    Raises NumericalError when any member's K_i is not positive definite.
    """
    ztz, ztx, zty = ds.block_moments
    R, n, q = beta.shape[0], ds.n, ds.q
    s2 = sigma2[:, None, None, None]
    Kinv, logdet_K = _spd_inv_logdet(s2 * np.eye(q) + _sandwich(S, ztz))

    ztr = zty - (ztx.reshape(n * q, ds.p) @ beta.T).T.reshape(R, n, q)
    w = ztr @ S
    Kinv_w = np.einsum("rnij,rnj->rni", Kinv, w)
    b_hat = Kinv_w @ S
    Lambda = s2 * _sandwich(S, Kinv)

    # the (R, N) arrays dominate the stack's memory, so each is dropped
    # before the next is made
    rr = _row_sums_of_squares(ds.y - beta @ ds.X.T)
    quad = (rr - np.einsum("rnq,rnq->r", w, Kinv_w)) / sigma2
    logdet = (ds.N - n * q) * np.log(sigma2) + logdet_K.sum(axis=1)
    loglik = -0.5 * (ds.N * math.log(2.0 * math.pi) + logdet + quad)
    y_tilde = ds.y - np.einsum("nq,rnq->rn", ds.Z, np.repeat(b_hat, ds.counts, axis=1))
    return b_hat, Lambda, y_tilde, loglik


def _lockstep_refits(ds: LongitudinalDataset, supports, factors, ctrl: EmControl) -> list:
    """fit_em(ds.select_columns(A), 0.0, ctrl=ctrl) for every support A at once.

    factors[r] is _exact_factor(ds, supports[r], 0.0).  The R members run one
    EM on ds itself, their parameters stacked on a leading axis: one
    _guard_params and one _e_step_stack per iteration, on the dataset's
    cached block moments, and each beta solved on its own cached factor
    and embedded in a p-vector, so no restricted dataset or moment is
    built.  (Padding the factors into one (R, |A|max, |A|max) stack
    solved faster but raised the peak memory of a scenario-3 run.)  Each
    member leaves the stack on fit_em's stopping rule; one whose guard or
    E-step raises leaves it alone, with fit_em's message.  Returns a
    FitReport or NumericalError per support.
    """
    ztz = ds.block_moments[0]
    R, q, N = len(supports), ds.q, ds.N
    solves = [(list(A), w_A, V_A) for A, (w_A, V_A) in zip(supports, factors)]
    live = np.arange(R)  # the members still iterating, in stack order

    def exact_beta(y_tilde):
        """_exact_beta without l1 for each live member, embedded in a p-vector."""
        xty = y_tilde @ ds.X
        beta = np.zeros_like(xty)
        for r, k in enumerate(live):
            A, w_A, V_A = solves[k]
            beta[r, A] = V_A @ ((V_A.T @ xty[r, A]) / w_A)
        return beta

    def guarded_e_step(beta, sigma2, D):
        params, eig = _guard_params(_ParamStack(beta, sigma2, D))
        return (params.sigma2, params.D) + _e_step_stack(ds, beta, params.sigma2,
                                                         _psd_sqrt(*eig))

    def m_step(b_hat, Lambda, y_tilde):
        """m_step without penalty for each live member."""
        beta = exact_beta(y_tilde)
        trace_term = np.einsum("rnij,nij->r", Lambda, ztz)
        sigma2 = (_row_sums_of_squares(y_tilde - beta @ ds.X.T) + trace_term) / N
        D = (b_hat.swapaxes(1, 2) @ b_hat + Lambda.sum(axis=1)) / ds.n
        return beta, sigma2, 0.5 * (D + D.swapaxes(1, 2))

    out: list = [None] * R
    traces = [[] for _ in range(R)]
    beta = exact_beta(np.broadcast_to(ds.y, (R, N)))
    sigma2 = _row_sums_of_squares(ds.y - beta @ ds.X.T) / N
    D = np.broadcast_to(np.eye(q), (R, q, q))
    lp = np.zeros(R)
    iteration = 0
    while True:
        try:
            sigma2, D, b_hat, Lambda, y_tilde, loglik = guarded_e_step(beta, sigma2, D)
        except NumericalError:
            # the members that raise alone leave the stack; the rest go on
            ok = np.ones(live.size, dtype=bool)
            for r in range(live.size):
                try:
                    guarded_e_step(beta[r:r + 1], sigma2[r:r + 1], D[r:r + 1])
                except NumericalError as e:
                    where = f"fit_em: iteration {iteration}: " if iteration else ""
                    out[live[r]], ok[r] = NumericalError(f"{where}{e}"), False
            live, lp, beta, sigma2, D = (a[ok] for a in (live, lp, beta, sigma2, D))
            if not live.size:
                break
            sigma2, D, b_hat, Lambda, y_tilde, loglik = guarded_e_step(beta, sigma2, D)

        going = np.ones(live.size, dtype=bool)
        for r, k in enumerate(live):
            lp_prev, lp_new = float(lp[r]), float(loglik[r])
            traces[k].append(lp_new)
            if not iteration:
                continue
            ratio_ok = lp_prev != 0.0 and abs(lp_new / lp_prev - 1.0) < ctrl.eps
            converged = ratio_ok or abs(lp_new - lp_prev) < ctrl.abs_eps
            if converged or iteration >= ctrl.max_iter:
                out[k] = FitReport(LmmParams(beta[r].copy(), sigma2[r], D[r].copy()),
                                   iteration, converged, np.asarray(traces[k]), lp_new, 0.0)
                going[r] = False
        lp = loglik
        if not going.all():
            live, lp, b_hat, Lambda, y_tilde = (
                a[going] for a in (live, lp, b_hat, Lambda, y_tilde))
            if not live.size:
                break

        iteration += 1
        beta, sigma2, D = m_step(b_hat, Lambda, y_tilde)
        del b_hat, Lambda, y_tilde  # not held through the next E-step
    return out


def fit_em_supports(ds: LongitudinalDataset, supports, ctrl: EmControl | None = None) -> list:
    """Unpenalized fits with X restricted to each support, beta embedded in a p-vector.

    The supports (tuples of column indices) whose X_A'X_A passes
    _exact_beta's rule are fitted together by _lockstep_refits on ds; each
    of the rest by fit_em(ds.select_columns(A), 0.0, ctrl=ctrl), whose
    M-steps fall back to coordinate descent.  Returns one entry per
    support: the FitReport, or the LmmLassoError its fit raised, so one
    failure leaves the other fits standing.
    """
    ctrl = ctrl or EmControl()
    out: list = [None] * len(supports)
    exact = []
    for k, support in enumerate(supports):
        factor = _exact_factor(ds, support, 0.0)
        if factor is not None:
            exact.append((k, support, factor))
            continue
        try:
            rep = fit_em(ds.select_columns(support), 0.0, ctrl=ctrl)
        except LmmLassoError as e:
            out[k] = e
            continue
        beta = np.zeros(ds.p)
        beta[list(support)] = rep.params.beta
        out[k] = replace(rep, params=LmmParams(beta, rep.params.sigma2, rep.params.D))
    if exact:
        slots, members, factors = zip(*exact)
        for k, rep in zip(slots, _lockstep_refits(ds, members, factors, ctrl)):
            out[k] = rep
    return out

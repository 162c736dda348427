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

Every beta M-step, the pooled start included, is solved by linear solves
on the eigenpairs of X_A'X_A + shift * I: on a support A with signs s,
(X_A'X_A + shift * I) b_A = X_A'y_tilde - (l1 / 2) s, with l1 = lam1 *
alpha, shift = lam1 * (1 - alpha), lam1 the effective level.  Without an
l1 term (lam = 0, as in every unpenalized refit, or ridge) A is every
column; where that matrix is not numerically positive definite the solve
is the minimum-norm one (_exact_factor), which has the X beta, EM path and
log-likelihood of any least-squares solution, and the fit records a note.
With an l1 term an active-set loop pivots from the warm start's support
and signs (the previous beta, zero for the pooled start) until the KKT
conditions prove the solution optimal; on a support whose matrix is not
numerically positive definite it steps along the null space of X_A to a
zero crossing, and past _MAX_PIVOTS + 2p passes it raises.  The dataset owns
X'X and caches the eigendecomposition of each X_A'X_A (ds.gram,
ds.gram_factor) that an M-step starts from, so such a support is factored
once per dataset.

Per-subject computations use the q x q cross products cached on the
dataset, so one EM iteration touches the N-row data only through
design-matrix products.

fit_em and fit_em_supports run one EM driver (_run_em) over members
whose parameters sit on a leading axis: fit_em one member, and
fit_em_supports the unpenalized fits of many supports (a sweep's refits)
on the parent dataset.  Each iteration takes one _guard_params, one e_step
and one closed-form sigma2 and D update for all members, on the same
cached moments; only the beta solve is per member.  At 30 subjects an
iteration costs mostly numpy dispatch, so R fits in lock-step cost far
less than R fits one by one.  A lone member, a single fit or the last
refit still iterating, runs without the member axis, on the kernels of a
single fit, which are the faster ones at R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import LongitudinalDataset
from .exceptions import ConfigurationError, NumericalError
# solve_pls is not called here; the benchmark tracer (bench/spans.py) wraps
# this module's binding of it, so the name stays until the tracer drops it
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
_GRAM_COND_LIMIT = 1e12  # eigenvalues of G_AA + shift I at or below w_max / this are dropped
_MAX_PIVOTS = 200        # with 2p, the active-set passes of one beta M-step before it raises
_MIN_NORM_NOTE = ("X'X is not numerically positive definite; "
                  "beta is a minimum-norm solution on its support")


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
        for name in ("beta", "sigma2", "D"):
            value = getattr(self, name)
            # math.isfinite for one member's float, on which np.isfinite is slow
            if not (math.isfinite(value) if type(value) is float else np.isfinite(value).all()):
                raise NumericalError(f"{name} must be finite")

    def _checked_eigh(self):
        """validate()'s checks; returns np.linalg.eigh(D) for the caller to reuse."""
        self._check_finite()
        if np.any(self.sigma2 <= 0.0):
            raise NumericalError(f"sigma2 must be positive, got {self.sigma2}")
        D = self.D
        if D.ndim != self.beta.ndim + 1 or D.shape[-1:] != D.shape[-2:-1]:
            raise NumericalError("D must be square")
        if float(np.max(np.abs(D - D.swapaxes(-1, -2)), initial=0.0)) > 1e-12:
            raise NumericalError("D is not symmetric")
        w, V = np.linalg.eigh(D)
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
    """Stopping rule for fit_em.

    eps is the relative stopping threshold on the penalized log-likelihood;
    abs_eps is the absolute fallback that guards the ratio rule when the
    objective is near zero.  Both may be 0 (run max_iter iterations).  The
    beta M-step is exact, so it has no setting of its own.
    """

    eps: float = 1e-6
    max_iter: int = 500
    abs_eps: float = _ABS_STOP

    def __post_init__(self):
        for name in ("eps", "abs_eps"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"EmControl: {name} must be finite and >= 0")
        if self.max_iter < 1:
            raise ConfigurationError("EmControl: max_iter must be >= 1")


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
    return (V * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ V.swapaxes(-1, -2)


@dataclass
class _ParamStack(LmmParams):
    """The parameters of R members on a leading axis: beta (R, p), sigma2 (R,), D (R, q, q)."""

    def __post_init__(self):
        self.beta, self.sigma2, self.D = (np.asarray(a, dtype=float)
                                          for a in (self.beta, self.sigma2, self.D))


def _params(beta: np.ndarray, sigma2, D: np.ndarray) -> LmmParams:
    """LmmParams of one member (beta of shape (p,)), else a _ParamStack."""
    return (LmmParams if beta.ndim == 1 else _ParamStack)(beta, sigma2, D)


def _take(stack, keep: list):
    """A _ParamStack or stacked EStepMoments at the member positions keep;
    a lone member drops the member axis."""
    sel = keep[0] if len(keep) == 1 else keep
    parts = [getattr(stack, f.name)[sel] for f in fields(stack)]
    return EStepMoments(*parts) if isinstance(stack, EStepMoments) else _params(*parts)


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
        C = (V * np.maximum(w, _D_EIG_FLOOR)[..., None, :]) @ V.swapaxes(-1, -2)
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
    if not pd.all():
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


def _sum_of_squares(r: np.ndarray):
    """r'r over the last axis of r, one member's (N,) or a stack's (R, N), as
    one dot product per member: r @ r's form for one."""
    return r @ r if r.ndim == 1 else (r[:, None, :] @ r[:, :, None])[:, 0, 0]


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

    params may be a _ParamStack of R members; the moments then carry the
    member axis first: b_hat (R, n, q), Lambda (R, n, q, q), y_tilde (R, N)
    and loglik (R,).  Raises NumericalError when any member's K_i is not
    positive definite.

    eig, when given, is np.linalg.eigh(params.D) from a caller that has
    already checked params (the EM driver's _guard_params); otherwise params
    are validated here and D is decomposed.
    """
    S = _psd_sqrt(*(params._checked_eigh() if eig is None else eig))
    ztz, ztx, zty = ds.block_moments
    n, q = ds.n, ds.q
    lead = params.beta.shape[:-1]
    sigma2 = params.sigma2
    s2 = sigma2[:, None, None, None] if lead else sigma2  # against the (n, q, q) blocks
    Kinv, logdet_K = _spd_inv_logdet(s2 * np.eye(q) + _sandwich(S, ztz))

    ztr = zty - (params.beta @ ztx.reshape(n * q, ds.p).T).reshape(*lead, n, q)
    w = ztr @ S   # S Z_i'r_i, since S is symmetric
    Kinv_w = np.einsum("...nij,...nj->...ni", Kinv, w)
    b_hat = Kinv_w @ S
    Lambda = s2 * _sandwich(S, Kinv)

    # a stack's (R, N) residual is dropped before its (R, N) y_tilde is made
    rr = _sum_of_squares(ds.y - params.beta @ ds.X.T)
    quad = (rr - np.einsum("...nq,...nq->...", w, Kinv_w)) / sigma2
    # math.log for one member: np.log differs from it in the last bit on some inputs
    log_sigma2 = np.log(sigma2) if lead else math.log(sigma2)
    logdet = (ds.N - n * q) * log_sigma2 + logdet_K.sum(axis=-1)
    loglik = -0.5 * (ds.N * math.log(2.0 * math.pi) + logdet + quad)
    y_tilde = ds.y - np.einsum("nq,...nq->...n", ds.Z, b_hat.repeat(ds.counts, axis=-2))
    return EStepMoments(b_hat=b_hat, Lambda=Lambda, y_tilde=y_tilde,
                        loglik=loglik if lead else float(loglik))


def _exact_factor(ds: LongitudinalDataset, active, shift: float, cache: bool = True):
    """Eigenpairs (w, V) of G_AA + shift * I, less those at or below
    w_max / _GRAM_COND_LIMIT: V @ ((V.T @ rhs) / w) is the minimum-norm
    least-squares solve, and w.size < len(active) when any were dropped.

    G_AA is the block of X'X on the columns active.  With cache its factor
    is ds.gram_factor's, computed once per dataset; without, it is computed
    here and dropped, for the supports _solve_beta's loop pivots through.
    """
    w, V = ds.gram_factor(active) if cache else np.linalg.eigh(ds.gram[np.ix_(active, active)])
    w = w + shift
    if w.size and not w[0] > w[-1] / _GRAM_COND_LIMIT:
        keep = w > w[-1] / _GRAM_COND_LIMIT
        w, V = w[keep], V[:, keep]
    return w, V


def _solve_beta(ds: LongitudinalDataset, y: np.ndarray, penalty: PenaltySpec, lam: float,
                warm_start: np.ndarray):
    """Minimize ||y - X beta||^2 + lam * penalty(beta), X = ds.X, lam in raw
    units, by linear solves on the dataset's X'X.

    On a support A with signs s the stationarity conditions are linear:
    (G_AA + shift * I) b_A = c_A - (l1 / 2) s, with G = X'X (ds.gram),
    c = X'y, l1 = lam * alpha and shift = lam * (1 - alpha).  Without an l1
    term A is every column and one solve on _exact_factor's eigenpairs is the
    minimizer, the minimum-norm one when eigenpairs were dropped.  With one,
    an active-set loop, feature-sign search (Lee, Battle, Raina & Ng 2007),
    runs from warm_start's support and signs.  In each pass, when every b_A
    keeps its sign in s, the at-zero condition |2 m_j| <= l1 of
    _kkt_residual (m = c - G beta) is tested on the columns outside A: if it
    holds, beta is optimal; if not, the column with the largest violation
    joins A with the sign of m_j.  When a sign flips, a line search on the
    segment from the current point to b_A takes the lowest objective among
    b_A and the zero crossings, and the columns that reached zero leave A.
    Where the factor of A dropped eigenpairs, u, the part of s outside the
    kept eigenspace, is a null direction of X_A; unless u is negligible the
    pass is a null step instead: along -u, X_A b stays put and the l1 term
    falls, to the first zero crossing, whose column leaves A (a lasso
    problem has a solution on linearly independent columns).

    Every pass lowers the objective, so in exact arithmetic no (A, s)
    repeats and the loop ends; _MAX_PIVOTS + 2p passes bound it in floating
    point (a cold start whose optimum has k nonzeros takes k + 1).
    From a zero warm_start it is LARS-lasso.  The first pass solves on
    warm_start's support, the previous M-step's, by its cached factor; the
    supports pivoted to are factored uncached.  Returns (beta, whether its
    solve dropped eigenpairs).  Raises NumericalError when a null step raises
    the objective by more than rounding, and after _MAX_PIVOTS + 2p passes.
    """
    l1 = lam * penalty.alpha
    shift = lam * (1.0 - penalty.alpha)
    xty = ds.X.T @ y
    if l1 == 0.0:
        w, V = _exact_factor(ds, np.arange(xty.size), shift)
        return V @ ((V.T @ xty) / w), w.size < xty.size
    active = np.flatnonzero(warm_start)
    x = warm_start[active]  # the current point on A
    signs = np.sign(x)
    rhs = xty[active] - 0.5 * l1 * signs
    w, V = _exact_factor(ds, active, shift)

    def objective(points):
        """The objective at each row of points, a point on the current A."""
        M = ds.gram[np.ix_(active, active)] + shift * np.eye(active.size)
        return (np.einsum("ij,ij->i", points @ M, points)
                - 2.0 * points @ xty[active] + l1 * np.abs(points).sum(axis=1))

    max_passes = _MAX_PIVOTS + 2 * xty.size
    for _ in range(max_passes):
        u = signs - V @ (V.T @ signs) if w.size < active.size else None
        if u is not None and u @ u * _GRAM_COND_LIMIT > active.size:
            # the null step; t is the first zero crossing, if any
            cross = np.flatnonzero(x * u > 0.0)
            t_cross = x[cross] / u[cross]
            t = min(t_cross, default=0.0)
            point = x - t * u
            point[cross[t_cross == t]] = 0.0
            new, old = objective(np.stack([point, x]))
            if new > old + 8.0 * np.finfo(float).eps * abs(old):
                raise NumericalError("beta M-step: a step along the null space of X_A "
                                     "did not lower the objective")
            x = point
            signs = np.sign(x)
        else:
            b = V @ ((V.T @ rhs) / w)
            flipped = b * signs <= 0.0
            if not flipped.any():
                m = xty - ds.gram[:, active] @ b
                excess = np.abs(2.0 * m) - l1
                excess[active] = 0.0
                if not (excess > 0.0).any():
                    beta = np.zeros(xty.size)
                    beta[active] = b
                    return beta, w.size < active.size
                j = int(np.argmax(excess))
                x, active = np.append(b, 0.0), np.append(active, j)
                signs = np.append(signs, np.sign(m[j]))
            else:
                # the crossings of the columns that flip, where they are exactly zero
                cross = flipped & (x != 0.0)
                t_cross = np.full(x.size, np.nan)
                t_cross[cross] = x[cross] / (x[cross] - b[cross])
                t = np.append(t_cross[cross], 1.0)
                points = x + t[:, None] * (b - x)
                points[t[:, None] == t_cross] = 0.0
                x = points[np.argmin(objective(points))]
                signs = np.sign(x)
        keep = signs != 0.0  # the columns a step set to zero leave A
        active, x, signs = active[keep], x[keep], signs[keep]
        rhs = xty[active] - 0.5 * l1 * signs
        w, V = _exact_factor(ds, active, shift, cache=False)
    raise NumericalError(f"beta M-step: no optimum after {max_passes} active-set passes")


def _variance_update(ds: LongitudinalDataset, moments: EStepMoments, beta: np.ndarray):
    """The M-step's closed forms: sigma2 and D given the E-step moments and the new beta.

    A member axis leading moments and beta leads sigma2 and D too.
    """
    ztz = ds.block_moments[0]
    resid = moments.y_tilde - beta @ ds.X.T
    trace_term = np.einsum("...nij,nij->...", moments.Lambda, ztz)
    sigma2 = (_sum_of_squares(resid) + trace_term) / ds.N
    b_hat = moments.b_hat
    D = (b_hat.swapaxes(-1, -2) @ b_hat + moments.Lambda.sum(axis=-3)) / ds.n
    return sigma2, 0.5 * (D + D.swapaxes(-1, -2))


def m_step(ds: LongitudinalDataset, moments: EStepMoments, params_prev: LmmParams,
           lam: float, penalty: PenaltySpec) -> LmmParams:
    """Conditional maximization given the E-step moments.

    beta solves the penalized least-squares problem on (X, y_tilde) at the
    effective level 2 * lam * sigma2_prev by _solve_beta's linear solves,
    warm-started at the previous beta.  sigma2 and D then have closed forms
    (_variance_update).  lam is in raw units.
    """
    beta, _ = _solve_beta(ds, moments.y_tilde, penalty, 2.0 * lam * params_prev.sigma2,
                          warm_start=params_prev.beta)
    return LmmParams(beta, *_variance_update(ds, moments, beta))


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


def _guarded_e_step(ds: LongitudinalDataset, params: LmmParams):
    """_guard_params, then e_step on its eigendecomposition of D: (guarded params, moments)."""
    params, eig = _guard_params(params)
    return params, e_step(ds, params, eig=eig)


def _run_em(ds: LongitudinalDataset, members: int, solve_beta, ctrl: EmControl,
            lam: float = 0.0, penalty: PenaltySpec | None = None,
            init: LmmParams | None = None) -> list:
    """EM for `members` fits on ds at once, at raw penalty level lam.

    The members' parameters sit on a leading axis (a _ParamStack); a lone
    member, the only one or the last one still iterating, drops it.  The
    per-member step is solve_beta(live, y, lam1, warm_start): beta of the
    live members (indices, in stack order) on responses y at raw level
    lam1, and per live member whether its solve dropped eigenpairs (noted
    once per fit).  It gives the pooled start from y at level lam (sigma2
    then the mean squared residual, D the identity; init replaces the
    start) and each M-step's beta from y_tilde at level 2 * lam * sigma2.

    Each iteration guards the parameters, runs one E-step on the guard's
    eigh of D, which gives each member's trace entry for the stopping rule,
    and then one M-step.  A member leaves on the stopping rule or at
    ctrl.max_iter with its last guarded iterate; one whose guard or E-step
    raises leaves alone, with its error.  Returns a FitReport (at lam 0) or
    a NumericalError per member.
    """
    lead = () if members == 1 else (members,)
    live = list(range(members))  # the members still iterating, in stack order
    traces = [[] for _ in range(members)]
    notes = [[] for _ in range(members)]
    out: list = [None] * members

    def note(min_norm):
        """The note on each live member whose beta solve dropped eigenpairs."""
        for k, cut in zip(live, min_norm):
            if cut and _MIN_NORM_NOTE not in notes[k]:
                notes[k].append(_MIN_NORM_NOTE)

    if init is None:
        beta, cut = solve_beta(live, np.broadcast_to(ds.y, (*lead, ds.N)), lam,
                               np.zeros((*lead, ds.p)))
        note(cut)
        sigma2 = _sum_of_squares(ds.y - beta @ ds.X.T) / ds.N
        params = _params(beta, sigma2, np.broadcast_to(np.eye(ds.q), (*lead, ds.q, ds.q)))
    else:
        params = init
    iteration = 0
    while True:
        try:
            guarded, moments = _guarded_e_step(ds, params)
        except NumericalError as e:
            # a stack reruns member by member: those that raise alone leave it
            failed = {}
            for r in (range(len(live)) if len(live) > 1 else ()):
                try:
                    _guarded_e_step(ds, _take(params, [r]))
                except NumericalError as e_r:
                    failed[r] = e_r
            for r, err in (failed or dict.fromkeys(range(len(live)), e)).items():
                if iteration:
                    cause, err = err, NumericalError(f"fit_em: iteration {iteration}: {err}")
                    err.__cause__ = cause
                out[live[r]] = err
            keep = [r for r in range(len(live)) if failed and r not in failed]
            if not keep:
                break
            live, params = [live[r] for r in keep], _take(params, keep)
            continue

        params = guarded
        lp = moments.loglik
        if lam:
            lp = lp - lam * penalty_value(penalty, params.beta)
        stacked = len(live) > 1
        lps = lp.tolist() if stacked else [lp]
        logliks = moments.loglik.tolist() if stacked else [moments.loglik]
        done = []
        for r, k in enumerate(live):
            trace = traces[k]
            trace.append(lps[r])
            if not iteration:
                continue
            lp_prev, lp_new = trace[-2:]
            ratio_ok = lp_prev != 0.0 and abs(lp_new / lp_prev - 1.0) < ctrl.eps
            converged = ratio_ok or abs(lp_new - lp_prev) < ctrl.abs_eps
            if converged or iteration >= ctrl.max_iter:
                out[k] = FitReport(_take(params, [r]) if stacked else params, iteration,
                                   converged, np.asarray(trace), logliks[r], 0.0,
                                   warnings=notes[k])
                done.append(r)
        if done:
            keep = [r for r in range(len(live)) if r not in done]
            if not keep:
                break
            live, params, moments = ([live[r] for r in keep], _take(params, keep),
                                     _take(moments, keep))

        iteration += 1
        beta, cut = solve_beta(live, moments.y_tilde, 2.0 * lam * params.sigma2, params.beta)
        note(cut)
        params = _params(beta, *_variance_update(ds, moments, beta))
        del moments  # not held through the next E-step
    return out


def fit_em(ds: LongitudinalDataset, lam: float, penalty: PenaltySpec | None = None,
           init: LmmParams | None = None, ctrl: EmControl | None = None,
           lambda_scale: str = RAW) -> FitReport:
    """Penalized ML fit at a fixed penalty level.

    Initialization: beta from the pooled penalized least-squares problem
    at level lam, sigma2 from its residual sum of squares over N, D the
    identity (all overridden when init is given).  Iterates E- and M-steps
    until the relative change of the penalized log-likelihood falls below
    ctrl.eps, with an absolute fallback of ctrl.abs_eps where the ratio
    rule is ill-conditioned near zero.  Every exact solve reads X'X and its
    factors from the dataset, which computes each once.

    The EM driver (_run_em) with one member, whose beta M-step is
    _solve_beta warm-started at the previous beta.  The returned params
    and final_loglik are the last guarded iterate; a NumericalError of an
    E-step or of a beta M-step is raised.
    """
    penalty = PenaltySpec.lasso(lam) if penalty is None else penalty.with_lam(lam)
    ctrl = ctrl or EmControl()
    lam_raw = effective_lambda(lam, lambda_scale, ds.N)
    if init is not None:
        if init.beta.shape != (ds.p,) or init.D.shape != (ds.q, ds.q):
            raise ConfigurationError("fit_em: init has wrong shapes for this dataset")
        init = LmmParams(init.beta.copy(), init.sigma2, init.D.copy())

    def solve_beta(live, y, lam1, warm_start):
        beta, cut = _solve_beta(ds, y, penalty, lam1, warm_start)
        return beta, [cut]

    rep, = _run_em(ds, 1, solve_beta, ctrl, lam_raw, penalty, init)
    if isinstance(rep, NumericalError):
        raise rep
    return replace(rep, lam=float(lam), lambda_scale=lambda_scale)


def fit_em_supports(ds: LongitudinalDataset, supports, ctrl: EmControl | None = None) -> list:
    """Unpenalized fits with X restricted to each support, beta embedded in a p-vector.

    Every support (a tuple of column indices) is a member of one EM driver
    run on ds.  A member's beta is solved on its support's cached factor
    by _exact_factor's rule (the minimum-norm solution, and a note, where
    X_A'X_A is not numerically positive definite) and embedded in a
    p-vector, so no restricted dataset or moment is built.  (Padding the factors into one
    (R, |A|max, |A|max) stack solved faster but raised the peak memory of
    a scenario-3 run.)  Returns one entry per support: the FitReport, or
    the NumericalError its fit raised, so one failure leaves the other fits
    standing.
    """
    if not supports:
        return []
    factors = [(list(A), *_exact_factor(ds, A, 0.0)) for A in supports]
    cut = [w_A.size < len(A) for A, w_A, _ in factors]

    def solve_beta(live, y, lam1, warm_start):
        """The unpenalized solve of each live member, on y_tilde @ X for all of them."""
        xty = (y @ ds.X).reshape(-1, ds.p)
        beta = np.zeros_like(xty)
        for r, k in enumerate(live):
            A, w_A, V_A = factors[k]
            beta[r, A] = V_A @ ((V_A.T @ xty[r, A]) / w_A)
        return beta.reshape(y.shape[:-1] + (ds.p,)), [cut[k] for k in live]

    return _run_em(ds, len(supports), solve_beta, ctrl or EmControl())

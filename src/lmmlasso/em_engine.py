"""Penalized maximum likelihood for the linear mixed model via EM.

Model per subject i:

    y_i = X_i beta + Z_i b_i + eps_i,
    b_i ~ N_q(0, D),   eps_i ~ N(0, sigma2 * I).

For a fixed penalty level lam and mixing weight alpha (glmnet's: 1 the
lasso, 0 ridge) the algorithm alternates a closed-form E-step for the
random-effect moments with conditional M-step updates: beta by
penalized least squares on the de-noised response at the effective
level 2 * lam * sigma2, then closed-form sigma2 and D.  The objective
that ascends is the penalized observed-data log-likelihood
loglik(beta, sigma2, D) - lam * penalty(beta).  That EM map F is
accelerated by SQUAREM (Varadhan & Roland 2008): every third iteration
extrapolates the last three iterates on (beta, sigma2, D) and takes the
result only where it keeps the ascent, else the plain iterate, so the
fixed points and the ascent are EM's, and a fit reaches its stopping
point in about half the plain iterations or fewer (_run_em,
_squarem_e_step).

The E-step conditions every subject through one q x q positive definite
matrix, K_i = sigma2 I + S Z_i'Z_i S with S the symmetric square root of
D, for any positive semidefinite D (no D^-1 is formed).  The same
inverse and log determinant of K_i give the marginal log-likelihood, so
e_step returns it with the moments.  K_i, its inverse and log
determinant, and Cov[b_i | y_i] = sigma2 S K_i^-1 S depend on subject i
only through Z_i'Z_i, so they are computed once per distinct block of
the dataset (ds.distinct_ztz): once per member for a balanced design, n
times in the worst case.  Each E-step eigendecomposes D once: the
driver's guard (_guard_params) takes eigh(D) and hands it to e_step,
which builds S from it.  Every iterate's D is exactly symmetric, so the
guard does not symmetrize it; fit_em symmetrizes a start from outside
the EM once.  This q x q algebra (S, K_i, its inverse and log
determinant, S K_i^-1 S, and the M-step's sums of Lambda_i and
tr(Lambda_i Z_i'Z_i)) takes one of two routes.  One member on one
distinct block with q <= 2, as on a balanced design, runs it entrywise
on Python floats (_entries; the block's own entries are cached as
ds.ztz_entries), where numpy's dispatch on 2 x 2 arrays costs more than
the arithmetic; a stack, several blocks or q >= 3 run matrix products
(_psd_sqrt, _sandwich) and LAPACK.

Each iteration reads the N rows once, and an extrapolation once more.
The M-step (_m_step, which the public m_step runs too) forms X beta, the
one product with X, for the residual of the sigma2 update, and the driver
carries it into the next E-step's r'r; an E-step at an extrapolated
iterate forms its own.  Everything else per subject comes from the q x q, q x p
and q cross products cached on the dataset (ds.block_moments): the
E-step's Z_i'r_i = Z_i'y_i - Z_i'X_i beta, and the M-step's right-hand
side X'y_tilde = X'y - sum_i (Z_i'X_i)' b_hat_i from the cached X'y
(ds.xty), with Z'X read as (n q, p) rows (ds.ztx_rows).  The M-step takes
the sums over subjects of Lambda_i and of tr(Lambda_i Z_i'Z_i) as
count-weighted sums over the blocks, and EStepMoments forms y_tilde only
when it is read.

Every beta M-step, the pooled start included, is penalized_ls's one lasso
solver, _solve_gram, called on the dataset's X'X (ds.gram), X'y_tilde and
the dataset's cached factor (ds.gram_factor, whose one slot holds the
eigendecomposition of the last block X_A'X_A asked for and the columns
X'X_A of its support): linear solves on the eigenpairs of X_A'X_A +
shift * I for a support A, an active-set loop from the previous beta's
support and signs when there is an l1 term.  An M-step whose warm
support is the last one factored computes no eigendecomposition and
copies no column of X'X: its optimality test reads them from the slot.
Where a solve drops eigenpairs (X_A'X_A + shift * I is not numerically
positive definite) its beta is the minimum-norm one, which has the X
beta, EM path and log-likelihood of any least-squares solution, and the
fit records a note.

fit_em and fit_em_supports run one EM driver (_run_em) over members
whose parameters sit on a leading axis of one LmmParams: fit_em one
member, and fit_em_supports, the package's one refit entry point, the
unpenalized fits of many checked supports (a sweep's refits) on the
parent dataset.  Each iteration takes one _guard_params, one e_step
and one M-step for all members, on the same cached moments; only the
beta solve is per member, and each member takes or refuses its own
extrapolation (a stack whose members part takes one more E-step, each
member at its own iterate).  At 30 subjects an iteration costs mostly
numpy dispatch, so R fits in lock-step cost far less than R fits one by
one.  A member leaves the stack with its report or its error, all
through one block of the loop; the last one left drops the member axis.
An E-step holds the params it was taken at, where the M-step reads its
level and warm start; a fit started from an earlier fit's report (as
sweep does) reuses its last E-step if that holds the report's params on
the same dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import LongitudinalDataset, _checked_indices, _entries, _iterated
from .exceptions import (ConfigurationError, DataError, NumericalError, _checked_array,
                         _checked_int, _checked_real, _checked_shape, _checked_type)
# solve_pls is not called here; the benchmark tracer (bench/spans.py) wraps
# this module's binding of it, so the name stays until the tracer drops it
from .penalized_ls import (RAW, _checked_penalty, _penalty_value, _solve_gram, _truncate,
                           effective_lambda, solve_pls)

__all__ = [
    "LmmParams",
    "EStepMoments",
    "EmControl",
    "FitReport",
    "e_step",
    "m_step",
    "observed_loglik",
    "fit_em",
    "fit_em_supports",
]

_D_EIG_FLOOR = 1e-10     # eigenvalue clamp applied between iterations
_SIGMA2_FLOOR = 1e-12
_MAX_STEP = 4.0          # the longest SQUAREM step (_squarem_e_step)
_ABS_STOP = 1e-10        # absolute stopping rule, guards near-zero loglik
_MIN_NORM_NOTE = ("X'X is not numerically positive definite; "
                  "beta is a minimum-norm solution on its support")


@dataclass
class LmmParams:
    """Parameters (beta, sigma2, D) of the mixed model.

    One member has beta (p,), a float sigma2 and D (q, q).  The EM loop
    (_run_em) also holds R members on a leading axis: beta (R, p),
    sigma2 (R,) and D (R, q, q).  A field that cannot become a float array
    is a ConfigurationError in _checked_array's words.
    """

    beta: np.ndarray
    sigma2: float | np.ndarray
    D: np.ndarray

    def __post_init__(self):
        try:
            self.beta = np.asarray(self.beta, dtype=float)
            self.D = np.asarray(self.D, dtype=float)
            try:
                self.sigma2 = (float(self.sigma2) if self.beta.ndim == 1
                               else np.asarray(self.sigma2, dtype=float))
            except TypeError:  # a lone member's non-scalar sigma2, which _checked_params refuses
                self.sigma2 = np.asarray(self.sigma2, dtype=float)
        except (TypeError, ValueError, OverflowError):
            for name in ("beta", "D", "sigma2"):  # the first unconverted fails by its cells
                value = getattr(self, name)
                if not (isinstance(value, np.ndarray) and value.dtype == float):
                    _checked_array(value, f"LmmParams: {name}", (), ConfigurationError)
            raise

    def _check_finite(self):
        """Raise NumericalError naming the first of beta, sigma2, D with a NaN or inf."""
        for name in ("beta", "sigma2", "D"):
            value = getattr(self, name)
            # math.isfinite for one member's float, on which np.isfinite is slow
            if not (math.isfinite(value) if type(value) is float else np.isfinite(value).all()):
                raise NumericalError(f"{name} must be finite")

    def to_dict(self) -> dict:
        return {"beta": self.beta.tolist(), "sigma2": self.sigma2,
                "D": self.D.tolist()}


@dataclass
class EStepMoments:
    """Conditional random-effect moments of the subjects of ds at params, the
    iterate the E-step was taken at (the M-step's level and warm start).

    b_hat[i] is E[b_i | y_i] and loglik the marginal log-likelihood at
    params.  Cov[b_i | y_i] depends on subject i only through Z_i'Z_i, so
    it is held once per distinct block (ds.distinct_ztz): Lambda_blocks[g]
    for every subject in block g.  y_tilde, the stacked y - Z b_hat (N,),
    is formed when read, for the sigma2 residual.
    """

    b_hat: np.ndarray          # (n, q)
    Lambda_blocks: np.ndarray  # (G, q, q)
    loglik: float
    ds: LongitudinalDataset = field(repr=False, compare=False)
    params: LmmParams = field(repr=False, compare=False)

    @property
    def y_tilde(self) -> np.ndarray:
        """The de-noised response y - Z b_hat, stacked over subjects.

        Z_i b_hat_i is summed over the q columns along the rows of ds.zt,
        Z's (q, N) copy, with each subject's b_hat repeated along the last
        axis, for one member or a stack.
        """
        ds = self.ds
        b_rows = self.b_hat.swapaxes(-1, -2).repeat(ds.repeats, axis=-1)
        return ds.y - np.einsum("qn,...qn->...n", ds.zt, b_rows)


@dataclass
class EmControl:
    """Stopping rule for fit_em.

    eps is the relative stopping threshold on the penalized log-likelihood,
    tested on every trace entry against the one before (a plain EM iterate
    or a SQUAREM extrapolation alike); abs_eps is the absolute fallback that
    guards the ratio rule when the objective is near zero.  Both may be 0
    (run max_iter iterations).  max_iter counts M-steps, one per iteration,
    whether or not the iteration's E-step is at an extrapolation.  The beta
    M-step is exact, so it has no setting of its own.
    """

    eps: float = 1e-6
    max_iter: int = 500
    abs_eps: float = _ABS_STOP

    def __post_init__(self):
        for name in ("eps", "abs_eps"):
            setattr(self, name, _checked_real(getattr(self, name), f"EmControl: {name}", 0))
        self.max_iter = _checked_int(self.max_iter, "EmControl: max_iter", low=1)


_DEFAULT_CONTROL = EmControl()  # the stopping rule of a ctrl of None, built once


def _checked_control(ctrl) -> EmControl:
    """ctrl, or the default EmControl() when None: the one check of a stopping
    rule.  ConfigurationError unless ctrl is None or an EmControl."""
    if ctrl is None:
        return _DEFAULT_CONTROL
    return _checked_type(ctrl, EmControl, "ctrl must be an EmControl")


@dataclass
class FitReport:
    """Result of one penalized EM fit at a fixed penalty level.

    iterations counts M-steps.  penalized_loglik_trace holds one entry per
    E-step the fit took as an iterate: the start, then one per iteration,
    each the penalized log-likelihood of a guarded iterate, plain or
    extrapolated (an extrapolation the driver refused leaves no entry), so
    it does not fall.  params and final_loglik are the last of them, and
    moments holds its E-step.
    """

    params: LmmParams
    iterations: int
    converged: bool
    penalized_loglik_trace: np.ndarray
    final_loglik: float
    lam: float
    lambda_scale: str = RAW
    warnings: list = field(default_factory=list)
    # the last E-step, at params; a fit warm-started from this report reuses it
    moments: EStepMoments | None = field(default=None, repr=False, compare=False)

    def worst_trace_decrease(self) -> float:
        """Largest drop between consecutive trace entries (0 if monotone)."""
        tr = self.penalized_loglik_trace
        return float(max(0.0, np.max(tr[:-1] - tr[1:], initial=-np.inf)))

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "penalized_loglik_trace": self.penalized_loglik_trace.tolist(),
            "final_loglik": self.final_loglik,
            "lambda": self.lam,
            "lambda_scale": self.lambda_scale,
            "warnings": list(self.warnings),
        }


def _psd_sqrt(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root from eigh's (w, V), clipping tiny negative eigenvalues.

    Stacks of decompositions, w (R, q) and V (R, q, q), give (R, q, q).
    """
    return (V * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ V.swapaxes(-1, -2)


def _take(stack, keep: list):
    """Stacked LmmParams or EStepMoments (and their params) at the member positions
    keep; a lone member drops the member axis.  The moments' dataset is shared."""
    sel = keep[0] if len(keep) == 1 else keep
    return replace(stack, **{f.name: _take(getattr(stack, f.name), keep) if f.name == "params"
                             else getattr(stack, f.name)[sel]
                             for f in fields(stack) if f.name != "ds"})


def _guard_params(params: LmmParams):
    """Clamp D's eigenvalues and sigma2 away from zero before an E-step.

    Returns the guarded params and np.linalg.eigh of their D, which e_step
    takes in place of its own checks: the guarded D has eigenvalues above
    -1e-10 and sigma2 is positive, so after the shared finiteness check
    nothing _checked_params refuses can get through.  D must be exactly
    symmetric, as every iterate's is: the pooled start's identity, the
    M-step's D (entries on the float route, 0.5 * (D + D') on the matrix
    route) and fit_em's symmetrized start; 0.5 * (D + D') would be D bit
    for bit, so the guard does not form it.  A clamped D is symmetrized
    again.  Stacked params are guarded member by member in one pass, and
    raise if any member is not finite.  A lone member's finiteness is one
    sum over Python floats (NaN or inf when an entry is, or when finite
    entries overflow it), and _check_finite runs only to name the value at
    fault; a lone member that needs no clamp is returned as it is.
    """
    beta, sigma2, D = params.beta, params.sigma2, params.D
    stacked = beta.ndim > 1
    if stacked or not math.isfinite(sum(beta.tolist(), sigma2 + sum(D.ravel().tolist()))):
        params._check_finite()
    w, V = np.linalg.eigh(D)
    clamp = (w.min() if stacked else w[0]) < _D_EIG_FLOOR  # eigh's eigenvalues ascend
    if clamp:
        low = w.min(axis=-1)[..., None, None] < _D_EIG_FLOOR  # the members to clamp
        C = (V * np.maximum(w, _D_EIG_FLOOR)[..., None, :]) @ V.swapaxes(-1, -2)
        D = np.where(low, 0.5 * (C + C.swapaxes(-1, -2)), D)
        w, V = np.linalg.eigh(D)
    if not (stacked or clamp or sigma2 < _SIGMA2_FLOOR):
        return params, (w, V)
    sigma2 = np.maximum(sigma2, _SIGMA2_FLOOR) if stacked else max(sigma2, _SIGMA2_FLOOR)
    return LmmParams(beta, sigma2, D), (w, V)


def _spd_inv_logdet(K):
    """Inverses and log determinants of small symmetric positive definite blocks.

    K is one q x q block, q <= 2, given by its upper-triangle entries
    (_entries), whose inverse is returned as entries too, on floats; or a
    stack (..., q, q) for LAPACK, whose log determinants are 2 sum log
    diag L of the Cholesky factors L.  Raises NumericalError unless every
    block is positive definite.
    """
    if isinstance(K, np.ndarray):
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            raise NumericalError("subject covariance is not positive definite") from None
        return np.linalg.inv(K), 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    det = K[0] if len(K) == 1 else K[0] * K[2] - K[1] * K[1]
    if not (K[0] > 0.0 and det > 0.0):
        raise NumericalError("subject covariance is not positive definite")
    inv = (1.0 / det,) if len(K) == 1 else (K[2] / det, -K[1] / det, K[0] / det)
    return inv, math.log(det)


def _from_entries(E: tuple) -> np.ndarray:
    """The symmetric (q, q) block whose upper-triangle entries are E (the
    inverse of _entries)."""
    return np.array([[E[0]]] if len(E) == 1 else [[E[0], E[1]], [E[1], E[2]]])


def _sandwich_entries(S: tuple, A: tuple) -> tuple:
    """S A S for symmetric q x q blocks, q <= 2, given by their entries."""
    if len(S) == 1:
        return (S[0] * A[0] * S[0],)
    s00, s01, s11 = S
    a00, a01, a11 = A
    t00, t10 = a00 * s00 + a01 * s01, a01 * s00 + a11 * s01  # the columns of A S
    t01, t11 = a00 * s01 + a01 * s11, a01 * s01 + a11 * s11
    return (t00 * s00 + t10 * s01, t00 * s01 + t10 * s11, t01 * s01 + t11 * s11)


def _root_entries(w: np.ndarray, V: np.ndarray) -> tuple:
    """The entries of S = V diag(sqrt(max(w, 0))) V', the symmetric square
    root of a PSD D (q, q), q <= 2, from np.linalg.eigh(D) = (w, V), as
    floats."""
    s = [math.sqrt(x) if x > 0.0 else 0.0 for x in w.tolist()]
    V = V.tolist()
    if len(s) == 1:
        return (V[0][0] * s[0] * V[0][0],)
    (v00, v01), (v10, v11) = V
    s0, s1 = s
    return (v00 * s0 * v00 + v01 * s1 * v01,
            v00 * s0 * v10 + v01 * s1 * v11,
            v10 * s0 * v10 + v11 * s1 * v11)


def _conditioned_blocks(ds: LongitudinalDataset, eig, sigma2, lead: tuple):
    """The q x q algebra of an E-step, once per distinct Z'Z block g of ds.

    With S the square root of D from eig = np.linalg.eigh(D) and K_g =
    sigma2 I + S Z_g'Z_g S, returns sum_g count_g log det K_g, the blocks
    S K_g^-1 S and the blocks Lambda_g = sigma2 S K_g^-1 S (..., G, q, q).
    One member meeting one block with q <= 2 runs the algebra entrywise
    on Python floats (ds.ztz_entries), and S K^-1 S is then one (q, q)
    array.  Every other case, a stack, several blocks or q >= 3, runs
    matrix products (_psd_sqrt, _sandwich) and LAPACK.
    """
    if not lead and ds.ztz_entries is not None:
        S = _root_entries(*eig)
        M = _sandwich_entries(S, ds.ztz_entries)
        K = (sigma2 + M[0],) if len(M) == 1 else (sigma2 + M[0], M[1], sigma2 + M[2])
        Kinv, logdet_K = _spd_inv_logdet(K)
        SKS = _from_entries(_sandwich_entries(S, Kinv))
        return logdet_K * ds.n, SKS, (sigma2 * SKS)[None]
    ztz, counts = ds.distinct_ztz.ztz, ds.distinct_ztz.counts
    q = ztz.shape[-1]
    s2 = sigma2[:, None, None, None] if lead else sigma2  # against the (G, q, q) blocks
    S = _psd_sqrt(*eig)
    Kinv, logdet_K = _spd_inv_logdet(s2 * np.eye(q) + _sandwich(S, ztz))
    SKS = _sandwich(S, Kinv)
    return logdet_K @ counts, SKS, s2 * SKS


def _sandwich(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """S A_g S for every symmetric q x q block A_g of the (G, q, q) stack A.

    Two flat (G*q, q) @ S products: the first gives the blocks A_g S,
    whose transposes are S A_g.  numpy's stacked matmul would dispatch
    once per block.  A leading axis of R members is allowed on S (R, q, q),
    on A (R, G, q, q) or on both; the result is then (R, G, q, q).
    """
    G, q = A.shape[-3:-1]
    lead = A.shape[:-3] or S.shape[:-2]
    AS = (A.reshape(*A.shape[:-3], G * q, q) @ S).reshape(*lead, G, q, q)
    return (AS.swapaxes(-1, -2).reshape(*lead, G * q, q) @ S).reshape(*lead, G, q, q)


def _checked_params(params: LmmParams, ds: LongitudinalDataset, what: str, lone: bool = False):
    """np.linalg.eigh(params.D) of parameters from outside the EM, once checked:
    a ConfigurationError naming what and the field unless they are an
    LmmParams of one member (or, unless lone, a stack) with ds's p and q
    (_checked_shape), then a NumericalError unless finite with sigma2 > 0
    and D symmetric, eigenvalues above -1e-10."""
    _checked_type(params, LmmParams, f"{what} must be an LmmParams")
    lead = () if lone else params.beta.shape[:-1]
    for name, shape in (("beta", (*lead, ds.p)), ("sigma2", lead), ("D", (*lead, ds.q, ds.q))):
        _checked_shape(np.shape(getattr(params, name)), shape, f"{what}: {name}",
                       ConfigurationError)
    params._check_finite()
    if np.any(params.sigma2 <= 0.0):
        raise NumericalError(f"sigma2 must be positive, got {params.sigma2}")
    D = params.D
    if float(np.max(np.abs(D - D.swapaxes(-1, -2)), initial=0.0)) > 1e-12:
        raise NumericalError("D is not symmetric")
    w, V = np.linalg.eigh(D)
    if float(w.min()) < -_D_EIG_FLOOR:
        raise NumericalError("D has eigenvalues below -1e-10")
    return w, V


def _sum_of_squares(r: np.ndarray):
    """r'r over the last axis of r, one member's (N,) or a stack's (R, N), as
    one dot product per member (np.dot, the BLAS dot r @ r calls, for one)."""
    return np.dot(r, r) if r.ndim == 1 else (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def e_step(ds: LongitudinalDataset, params: LmmParams, *, eig=None,
           xbeta=None) -> EStepMoments:
    """Conditional random-effect moments and the marginal log-likelihood.

    With S the symmetric square root of D, r_i = y_i - X_i beta and the
    q x q matrix K_i = sigma2 I + S Z_i'Z_i S (positive definite for any
    PSD D):

        Lambda_i = sigma2 S K_i^-1 S    (= (D^-1 + Z_i'Z_i / sigma2)^-1),
        b_hat_i  = S K_i^-1 S Z_i'r_i.

    K_i, its inverse and log determinant, and S K_i^-1 S are computed once
    per distinct Z_i'Z_i (ds.distinct_ztz), and Z_i'r_i = Z_i'y_i -
    Z_i'X_i beta from ds.block_moments (Z'X read as ds.ztx_rows).  The
    same K_i gives the marginal density of y_i, whose covariance is V_i =
    Z_i D Z_i' + sigma2 I: log det V_i = (n_i - q) log sigma2 + log det
    K_i, and r_i'V_i^-1 r_i = (r_i'r_i - (Z_i'r_i)' b_hat_i) / sigma2.  No D^-1 is formed, so a
    singular D needs no special case.  The log-likelihood needs only
    totals: sum_i r_i'r_i = r'r, the one sum over the N rows, and sum_i
    log det V_i = (N - n q) log sigma2 + sum_g count_g log det K_g.

    params may hold R members on a leading axis; the moments then carry the
    member axis first: b_hat (R, n, q), Lambda_blocks (R, G, q, q) and
    loglik (R,).  The moments hold params themselves (EStepMoments.params).
    Raises NumericalError when any member's K_i is not positive definite.

    eig, when given, is np.linalg.eigh(params.D) from the EM driver's
    _guard_params; otherwise params go through _checked_params (params
    that are not an LmmParams or whose shapes do not fit ds are a
    ConfigurationError, values it refuses a NumericalError), which
    decomposes D.  xbeta, when given, is params.beta @ ds.X.T, which the
    EM driver carries from its M-step; otherwise it is formed here.
    """
    if eig is None:
        _checked_type(ds, LongitudinalDataset, "e_step: ds must be a LongitudinalDataset")
        eig = _checked_params(params, ds, "e_step: params")
    n, q = ds.n, ds.q
    lead = params.beta.shape[:-1]
    sigma2 = params.sigma2
    logdet_K, SKS, Lambda_blocks = _conditioned_blocks(ds, eig, sigma2, lead)

    ztr = ds.block_moments[2] - (params.beta @ ds.ztx_rows.T).reshape(*lead, n, q)
    if SKS.ndim == 2:  # one member, one block: S K^-1 S is one symmetric (q, q) array
        b_hat = ztr @ SKS
        ztr_b = np.vdot(ztr, b_hat)  # the dot of the flat arrays
    else:
        b_hat = np.einsum("...nij,...nj->...ni", np.take(SKS, ds.distinct_ztz.index, axis=-3),
                          ztr)
        ztr_b = np.einsum("...nq,...nq->...", ztr, b_hat)
    if xbeta is None:
        xbeta = params.beta @ ds.X.T
    quad = (_sum_of_squares(ds.y - xbeta) - ztr_b) / sigma2
    # math.log for one member: np.log differs from it in the last bit on some inputs
    log_sigma2 = np.log(sigma2) if lead else math.log(sigma2)
    logdet = (ds.N - n * q) * log_sigma2 + logdet_K
    loglik = -0.5 * (ds.N * math.log(2.0 * math.pi) + logdet + quad)
    return EStepMoments(b_hat, Lambda_blocks, loglik if lead else float(loglik), ds, params)


def _m_step(ds: LongitudinalDataset, moments: EStepMoments, lam, solve):
    """The M-step given the E-step moments, of the EM driver and of m_step.

    beta is solve(c, lam1, warm_start) on the right-hand side c = X'y_tilde
    = X'y - sum_i (Z_i'X_i)' b_hat_i at raw level lam1 = 2 * lam * sigma2,
    sigma2 and warm_start = beta those of moments.params.  sigma2 and D
    then have closed forms; their sums over subjects of Lambda_i and of
    tr(Lambda_i Z_i'Z_i) are count-weighted sums over the distinct blocks;
    one member on one block with q <= 2 takes them on floats, from the
    entries of its one Lambda block (_entries).  X beta is the one product
    with X: the sigma2 residual y_tilde - X beta is summed over the N rows,
    and X beta is returned for the next E-step.  A member axis leading the
    moments leads every result.  Returns (params, X beta).
    """
    b_hat, Lam = moments.b_hat, moments.Lambda_blocks
    c = ds.xty - b_hat.reshape(*b_hat.shape[:-2], ds.n * ds.q) @ ds.ztx_rows
    beta = solve(c, 2.0 * lam * moments.params.sigma2, moments.params.beta)
    xbeta = beta @ ds.X.T
    bb = b_hat.swapaxes(-1, -2) @ b_hat
    if b_hat.ndim == 2 and ds.ztz_entries is not None:
        # one member on one block: entrywise on floats (_entries)
        L, A = _entries(Lam[0]), ds.ztz_entries
        tr = L[0] * A[0] if ds.q == 1 else L[0] * A[0] + 2.0 * L[1] * A[1] + L[2] * A[2]
        trace_term = tr * ds.n
        D = _from_entries(tuple((b + x * ds.n) / ds.n for b, x in zip(_entries(bb), L)))
    else:
        blocks = ds.distinct_ztz
        trace_term = np.einsum("...gij,gij,g->...", Lam, blocks.ztz, blocks.counts)
        D = (bb + np.einsum("...gij,g->...ij", Lam, blocks.counts)) / ds.n
        D = 0.5 * (D + D.swapaxes(-1, -2))
    sigma2 = (_sum_of_squares(moments.y_tilde - xbeta) + trace_term) / ds.N
    return LmmParams(beta, sigma2, D), xbeta


def m_step(ds: LongitudinalDataset, moments: EStepMoments, lam: float,
           alpha: float = 1.0) -> LmmParams:
    """Conditional maximization given the E-step moments: the EM driver's M-step.

    beta solves the penalized least-squares problem on (X, y_tilde) at
    mixing weight alpha and the effective level lam1 = 2 * lam * sigma2
    by _solve_gram on the dataset's X'X and cached factor, warm-started at
    beta, both of the previous iterate (moments.params).  sigma2 and D then
    have closed forms (_m_step).  lam is in raw units.  moments must be one
    member's EStepMoments on ds, whose params pass e_step's check as one
    member; anything else is a ConfigurationError.
    """
    _checked_penalty(alpha, lam)
    _checked_type(moments, EStepMoments, "m_step: moments must be an EStepMoments")
    if moments.ds is not ds:
        raise ConfigurationError("m_step: moments are not one member's E-step on this dataset")
    _checked_shape(moments.b_hat.shape, (ds.n, ds.q), "m_step: moments.b_hat", ConfigurationError)
    _checked_params(moments.params, ds, "m_step: moments.params", lone=True)
    params, _ = _m_step(ds, moments, lam, lambda c, lam1, warm_start: _solve_gram(
        c, lam1 * alpha, lam1 * (1.0 - alpha), warm_start, ds.gram_factor)[0])
    return params


def observed_loglik(ds: LongitudinalDataset, params: LmmParams) -> float:
    """Marginal log-likelihood with per-subject covariance Z D Z' + sigma2 I.

    Computed by e_step, which conditions each subject on the same q x q
    factorization.
    """
    return e_step(ds, params).loglik


def _converged(trace: list, eps: float, abs_eps: float) -> bool:
    """The stopping rule on a member's last two trace entries: their relative
    change below eps, or their absolute change below abs_eps."""
    lp_prev, lp_new = trace[-2:]
    return ((lp_prev != 0.0 and abs(lp_new / lp_prev - 1.0) < eps)
            or abs(lp_new - lp_prev) < abs_eps)


def _objective(moments: EStepMoments, lam: float, alpha: float):
    """The penalized log-likelihood at the params of moments, per member."""
    lp = moments.loglik
    return lp - lam * _penalty_value(moments.params.beta, alpha) if lam else lp


def _e_steps(ds: LongitudinalDataset, params: LmmParams, xbeta=None):
    """The E-step of every member of params at its guarded iterate.

    Returns (moments, errors): errors maps the stack position of each member
    whose guard or E-step raises to its NumericalError, and moments holds
    the E-steps of the other members in stack order (None when no member is
    left).  A stack that raises reruns member by member: the members that
    raise alone leave it, and the others take their E-step again, X beta
    with it; when none raises alone, every member takes the stack's error.
    """
    live = list(range(len(params.beta) if params.beta.ndim > 1 else 1))
    errors = {}
    while True:
        try:
            guarded, eig = _guard_params(params)
            return e_step(ds, guarded, eig=eig, xbeta=xbeta), errors
        except NumericalError as e:
            failed = {}
            for r in (range(len(live)) if len(live) > 1 else ()):
                try:
                    one, eig = _guard_params(_take(params, [r]))
                    e_step(ds, one, eig=eig)
                except NumericalError as e_r:
                    failed[r] = e_r
            failed = failed or dict.fromkeys(range(len(live)), e)
            errors.update((live[r], err) for r, err in failed.items())
            keep = [r for r in range(len(live)) if r not in failed]
            if not keep:
                return None, errors
            live = [live[r] for r in keep]
            params, xbeta = _take(params, keep), None


def _flat(params: LmmParams) -> np.ndarray:
    """Each member's parameter vector (beta, sigma2, D) as one row: (R, p + 1 + q q)."""
    beta = np.atleast_2d(params.beta)
    R = len(beta)
    return np.concatenate((beta, np.reshape(params.sigma2, (R, 1)), params.D.reshape(R, -1)),
                          axis=1)


def _squared_norms(ds: LongitudinalDataset, x: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of x, a (beta, sigma2, D) vector (_flat), whose beta
    counts by the fitted values it gives: b'(X'X / N)b, the same for every
    beta with the same X beta (a column and its copy)."""
    b, rest = x[:, :ds.p], x[:, ds.p:]
    return np.einsum("rp,rp->r", b @ ds.gram, b) / ds.N + np.einsum("rk,rk->r", rest, rest)


def _squarem_e_step(ds: LongitudinalDataset, theta0: LmmParams, theta1: LmmParams,
                    theta2: LmmParams, xbeta, lp1, lam: float, alpha: float):
    """The E-step that closes a SQUAREM cycle (Varadhan & Roland 2008, step SqS3).

    theta0 and theta1 = F(theta0) are the guarded iterates of the cycle's
    first two maps, lp1 theta1's penalized log-likelihood (per member), and
    theta2 = F(theta1) the M-step's output, with X beta = xbeta.  Per
    member, with r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0 on
    the vector (beta, sigma2, D), the step a = -|r| / |v| (_squared_norms)
    is rounded towards -1 to an integer in [-_MAX_STEP, -1] and gives the
    trial theta' = theta0 - 2 a r + a^2 v, whose beta is zero where
    theta2's is (the lasso's zeros).  A member with a < -1 takes its trial
    when the guard and E-step at theta' do not raise and the penalized
    log-likelihood there is at least lp1; every other member takes theta2
    (a = -1 is theta2 itself).  Returns (moments, errors) of _e_steps at
    the iterates taken, so an error here is one of theta2's.

    The step is an integer so that a change of the iterates at the level
    of rounding does not change it, and at most 4 because a cycle of three
    maps then expands the error of no iterate: a mode of F with rate l in
    [0, 1) is scaled by l (1 + a (1 - l))^2 <= 1.  With the step free, two
    fits that differ only in rounding (a stack member and its lone run)
    parted by 1e-8 within 40 cycles.
    """
    x0, x1, x2 = _flat(theta0), _flat(theta1), _flat(theta2)
    with np.errstate(all="ignore"):  # a non-finite theta2 gets a NaN step: it takes theta2
        r = x1 - x0
        v = x2 - x1 - r
        step = -np.minimum(np.floor(np.sqrt(_squared_norms(ds, r) / _squared_norms(ds, v))),
                           _MAX_STEP)
        take = step < -1.0  # the members whose step extrapolates
        step = np.where(take, step, -1.0)
        x = x0 - 2.0 * step[:, None] * r + (step * step)[:, None] * v
    if take.any():
        p, lead = ds.p, theta2.beta.shape[:-1]
        trial = LmmParams(np.where(theta2.beta == 0.0, 0.0, x[:, :p].reshape(theta2.beta.shape)),
                          x[:, p].reshape(lead) if lead else float(x[0, p]),
                          x[:, p + 1:].reshape(theta2.D.shape))
        moments, errors = _e_steps(ds, trial)
        if moments is None:
            take[:] = False
        else:
            have = [k for k in range(len(take)) if k not in errors]
            lp = np.atleast_1d(_objective(moments, lam, alpha))
            take[have] &= lp >= np.atleast_1d(lp1)[have]
            take[list(errors)] = False
        if take.all():
            return moments, {}
        if take.any():  # a stack whose members part: each takes its own iterate
            theta2, xbeta = LmmParams(np.where(take[:, None], trial.beta, theta2.beta),
                                      np.where(take, trial.sigma2, theta2.sigma2),
                                      np.where(take[:, None, None], trial.D, theta2.D)), None
    return _e_steps(ds, theta2, xbeta)


def _run_em(ds: LongitudinalDataset, members: int, solve_beta, ctrl: EmControl | None,
            lam: float = 0.0, alpha: float = 1.0,
            start: LmmParams | EStepMoments | None = None) -> list:
    """SQUAREM-accelerated EM for `members` fits on ds at once, at raw penalty
    level lam and mixing weight alpha.

    The members' parameters sit on a leading axis of one LmmParams; a lone
    member, the only one or the last one still iterating, drops it, so its
    trace entry and stopping test run on floats.  The per-member step is
    solve_beta(live, c, lam1, warm_start): beta of the live members
    (indices, in stack order) on right-hand sides c = X'y at raw level lam1,
    and per live member whether its solve dropped eigenpairs, which the
    member's report notes once.  It gives the pooled start from the cached
    X'y at level lam (sigma2 then the mean squared residual, D the identity;
    start, an LmmParams, replaces it) and each M-step's beta from X'y_tilde
    at level 2 * lam * sigma2 (_m_step).

    The EM map F is one M-step (_m_step) at an E-step's params.  Each
    iteration is one M-step followed by one E-step, on the guard's eigh of
    D, whose penalized log-likelihood is the member's next trace entry for
    the stopping rule.  Iterations run in SQUAREM cycles of three maps: the
    E-steps of iterations 3k + 1 and 3k + 2 are at the plain iterates
    theta0 = F(the last cycle's end, or the start) and theta1 = F(theta0),
    and that of iteration 3k + 3 at the extrapolation of theta0, theta1 and
    theta2 = F(theta1) or, when that raises or does not reach theta1's
    penalized log-likelihood, at theta2 itself (_squarem_e_step).  So
    every trace entry is that of a guarded iterate the fit can stop at, the
    trace does not fall, and the fixed points are EM's.  A start that is a lone
    member's EStepMoments, the E-step at a guarded iterate, stands in for
    the first guard and E-step.  A member leaves with a FitReport, on the
    stopping rule or at ctrl.max_iter M-steps, holding its last E-step and
    so its guarded iterate; or with a NumericalError when its guard or
    E-step raises at an iterate it must take (_e_steps).  Every member
    leaves through one block, which drops it from the stack (_take).
    Returns a FitReport (at lam 0) or a NumericalError per member.  A
    DataError refuses the designs that cannot identify D
    (ds.design_refusal, decided once per dataset: fewer than 2 subjects,
    one row per subject, a column of Z that is zero in every row); a ctrl
    that _checked_control refuses is a ConfigurationError.
    """
    ctrl = _checked_control(ctrl)
    if ds.design_refusal is not None:
        raise DataError(ds.design_refusal)
    eps, abs_eps, max_iter = ctrl.eps, ctrl.abs_eps, ctrl.max_iter
    lead = () if members == 1 else (members,)
    live = list(range(members))  # the members still iterating, in stack order
    traces = [[] for _ in range(members)]
    cut = set()  # the members whose beta solve dropped eigenpairs
    out: list = [None] * members

    def solve(c, lam1, warm_start):
        """beta of the live members, noting those whose solve dropped eigenpairs."""
        beta, dropped = solve_beta(live, c, lam1, warm_start)
        if any(dropped):
            cut.update(k for k, d in zip(live, dropped) if d)
        return beta

    xbeta = None  # X beta of params, once formed
    if start is None:
        beta = solve(np.broadcast_to(ds.xty, (*lead, ds.p)), lam, np.zeros((*lead, ds.p)))
        xbeta = beta @ ds.X.T
        sigma2 = _sum_of_squares(ds.y - xbeta) / ds.N
        start = LmmParams(beta, sigma2, np.broadcast_to(np.eye(ds.q), (*lead, ds.q, ds.q)))
    params, moments = (None, start) if isinstance(start, EStepMoments) else (start, None)
    theta0 = theta1 = None  # the guarded iterates that open the cycle, and its first map
    iteration = 0
    while True:
        left = {}  # stack position: the FitReport or NumericalError of a member leaving
        if moments is None:
            if iteration % 3 == 0 and iteration:
                lp1 = [traces[k][-1] for k in live]
                moments, left = _squarem_e_step(ds, theta0, theta1, params, xbeta, lp1, lam,
                                                alpha)
            else:
                moments, left = _e_steps(ds, params, xbeta)
            if iteration:
                for r, err in left.items():
                    left[r] = NumericalError(f"fit_em: iteration {iteration}: {err}")
                    left[r].__cause__ = err
        if moments is not None:
            have = [r for r in range(len(live)) if r not in left]  # the members E-stepped
            lp = _objective(moments, lam, alpha)
            for j, lp_r in enumerate(lp.tolist() if len(have) > 1 else (lp,)):
                r = have[j]
                k = live[r]
                traces[k].append(lp_r)
                if iteration:
                    converged = _converged(traces[k], eps, abs_eps)
                    if converged or iteration >= max_iter:
                        last = _take(moments, [j]) if len(have) > 1 else moments
                        left[r] = FitReport(last.params, iteration, converged,
                                            np.asarray(traces[k]), float(last.loglik), 0.0,
                                            warnings=[_MIN_NORM_NOTE] if k in cut else [],
                                            moments=last)
        if left:
            for r, rep in left.items():
                out[live[r]] = rep
            if len(left) == len(live):
                break
            keep = [r for r in range(len(live)) if r not in left]
            if len(keep) < len(have):
                moments = _take(moments, [have.index(r) for r in keep])
            if theta0 is not None:
                theta0 = _take(theta0, keep)
            live = [live[r] for r in keep]
        iteration += 1
        if iteration % 3 == 2:
            theta0 = moments.params
        elif iteration % 3 == 0:
            theta1 = moments.params
        params, xbeta = _m_step(ds, moments, lam, solve)
        moments = None  # not held through the next E-step
    return out


def fit_em(ds: LongitudinalDataset, lam: float, alpha: float = 1.0,
           init: LmmParams | FitReport | None = None, ctrl: EmControl | None = None,
           lambda_scale: str = RAW) -> FitReport:
    """Penalized ML fit at level lam and mixing weight alpha (1 the lasso, 0 ridge).

    Initialization: beta from the pooled penalized least-squares problem
    at level lam, sigma2 from its residual sum of squares over N, D the
    identity (all overridden when init is given).  init, an LmmParams or
    an earlier fit's FitReport (anything else is a ConfigurationError), is
    checked as e_step checks params, unless it is a report whose last E-step
    (report.moments), on ds, holds its params (report.moments.params is
    report.params): a guarded iterate, whose E-step stands in for this fit's
    first one.  A checked start's D, symmetric to within 1e-12, is
    symmetrized once here, the only time the EM does so outside a clamp
    (_guard_params).  Iterates E- and M-steps, every third iteration a
    SQUAREM extrapolation kept only where it does not lower the penalized
    log-likelihood, until the relative change of the penalized
    log-likelihood between two trace entries falls below ctrl.eps, with an
    absolute fallback of ctrl.abs_eps where the ratio rule is
    ill-conditioned near zero; rep.iterations counts M-steps.  Every solve
    reads X'X and its factors from the dataset, which computes X'X once and
    holds the last factor.

    The EM driver (_run_em) with one member, whose beta M-step is
    _solve_gram on the dataset's X'X and cached factor, warm-started at the
    previous iterate's beta.  The returned params and final_loglik are the
    last guarded iterate; a NumericalError of an E-step at an iterate the
    fit takes or of a beta M-step is raised (one at a refused extrapolation
    is not), and a design that cannot identify D is a DataError (_run_em).
    A ds that is not a LongitudinalDataset is a ConfigurationError.
    """
    _checked_type(ds, LongitudinalDataset, "fit_em: ds must be a LongitudinalDataset")
    _checked_penalty(alpha, lam)
    if init is not None:
        _checked_type(init, (LmmParams, FitReport),
                      "fit_em: init must be an LmmParams or a FitReport")
    lam_raw = effective_lambda(lam, lambda_scale, ds.N)
    last = init.moments if isinstance(init, FitReport) else None
    if last is not None and last.ds is ds and last.params is init.params:
        init = last  # the E-step of a guarded iterate on ds, holding that iterate
    elif init is not None:
        init = init.params if isinstance(init, FitReport) else init
        _checked_params(init, ds, "fit_em: init", lone=True)
        # the one start whose D can be asymmetric (by up to 1e-12); the guard takes D as it is
        init = LmmParams(init.beta, init.sigma2, 0.5 * (init.D + init.D.T))

    def solve_beta(live, c, lam1, warm_start):
        beta, cut, _ = _solve_gram(c, lam1 * alpha, lam1 * (1.0 - alpha), warm_start,
                                   ds.gram_factor)
        return beta, [cut]

    rep, = _run_em(ds, 1, solve_beta, ctrl, lam_raw, alpha, init)
    if isinstance(rep, NumericalError):
        raise rep
    rep.lam, rep.lambda_scale = float(lam), lambda_scale
    return rep


def _checked_supports(supports, p: int) -> list:
    """Each support as a sorted integer array of column indices, which indexes
    without a conversion per use; ConfigurationError unless supports is an
    iterable and every index an integer in [0, p) (_checked_indices), unrepeated."""
    out = []
    for support in _iterated(supports, "fit_em_supports: supports must be an iterable"):
        what = f"fit_em_supports: support {support!r}: column"
        A = np.sort(_checked_indices(support, p, what))
        if np.any(A[1:] == A[:-1]):
            raise ConfigurationError(f"fit_em_supports: support {support!r} repeats an index")
        out.append(A)
    return out


def fit_em_supports(ds: LongitudinalDataset, supports, ctrl: EmControl | None = None) -> list:
    """Unpenalized fits with X restricted to each support, beta embedded in a p-vector.

    Every support, an iterable of column indices, is sorted and checked
    before any fit runs: an index that is not an integer, lies outside
    [0, p) or repeats raises ConfigurationError.  Each support is then a
    member of one _run_em call on ds.  It is factored once, before the
    first iteration, by ds.gram_factor and truncated by the lasso solver's
    rule (_truncate: the minimum-norm solution, and a note, where X_A'X_A
    is not numerically positive definite); a member's beta is solved on
    that factor and embedded in a p-vector, so no restricted dataset or
    moment is built.  Estimates are in ds's units;
    ds.standardization.original_scale maps one back.  Returns one entry per
    support: the FitReport, or the NumericalError its fit raised, so one
    failure leaves the other fits standing.
    """
    _checked_type(ds, LongitudinalDataset, "fit_em_supports: ds must be a LongitudinalDataset")
    supports = _checked_supports(supports, ds.p)
    if not supports:
        return []
    factors = [(A, *_truncate(*ds.gram_factor(A)[:2], 0.0)) for A in supports]
    cut = [w_A.size < len(A) for A, w_A, _ in factors]

    def solve_beta(live, c, lam1, warm_start):
        """The unpenalized solve of each live member on its right-hand side c."""
        xty = c.reshape(len(live), ds.p)
        beta = np.zeros(xty.shape)
        for r, k in enumerate(live):
            A, w_A, V_A = factors[k]
            beta[r, A] = V_A @ ((V_A.T @ xty[r, A]) / w_A)
        return beta.reshape(c.shape), [cut[k] for k in live]

    return _run_em(ds, len(supports), solve_beta, ctrl)

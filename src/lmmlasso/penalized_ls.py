"""Penalized least squares by an active-set method on the Gram matrix.

Solves

    F(beta) = (y - X beta)' (y - X beta)
              + lam * [alpha * ||beta||_1 + (1 - alpha) * ||beta||_2^2]

for lasso (alpha = 1), ridge (alpha = 0), and elastic-net (0 < alpha < 1)
penalties.  These two numbers, glmnet's level and mixing weight, are the
penalty at every layer, and every entry point that takes them checks
them with _checked_penalty.  The penalty level ``lam`` multiplies the raw
residual sum of squares; no 1/(2N) rescaling is applied.  The
per-observation convention of GLM-net style solvers (lambda multiplies
RSS/(2N)) lives at the fit and selection layer: fit_em, sweep, select,
run_monte_carlo and kfold_cv take a lambda_scale, one of LAMBDA_SCALES,
and effective_lambda, the only unit conversion, maps it onto the raw
level.

There is one solver, _solve_gram, which works on G = X'X and c = X'y
alone and is exact: without an l1 term one minimum-norm solve, with one a
feature-sign active-set loop (Lee, Battle, Raina & Ng 2007) of linear
solves on the blocks of G.  It reads G through a factor callable that
gives a support's eigenpairs and columns of G; the EM's beta M-step passes
the dataset's cached one (ds.gram_factor), and solve_pls, its public form
on (X, y), a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigurationError, NumericalError, _checked_array, _checked_int,
                         _checked_name, _checked_real)

__all__ = [
    "LAMBDA_SCALES",
    "PlsSolution",
    "solve_pls",
    "kkt_check",
    "lambda_max",
    "effective_lambda",
    "penalty_value",
]

RAW, PER_OBS = LAMBDA_SCALES = ("raw", "per_obs")  # the lambda units effective_lambda knows
_GRAM_COND_LIMIT = 1e12  # eigenvalues of G_AA + shift I at or below w_max / this are dropped
_MAX_PIVOTS = 200        # with 2p, the active-set passes of one solve before it raises


def _checked_penalty(alpha, lam=0.0) -> float:
    """alpha as a float: the package's one check of a penalty.  alpha = 1
    is the pure l1 (lasso) penalty, alpha = 0 the squared-l2 (ridge)
    penalty, intermediate values the elastic net; lam is the level, 0 for
    a caller that takes none.  ConfigurationError unless alpha is a real
    number in [0, 1] and lam a finite real number >= 0 (_checked_real).
    """
    alpha = _checked_real(alpha, "penalty mixing weight alpha", 0, 1)
    _checked_real(lam, "penalty level lam", 0)
    return alpha


@dataclass
class PlsSolution:
    """Result of a penalized least-squares solve.

    iterations counts the solver's passes (one without an l1 term).
    kkt_residual is the maximum stationarity violation at the returned
    beta.
    """

    beta: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def penalty_value(beta: np.ndarray, alpha: float = 1.0):
    """Mixing-weighted penalty alpha*||beta||_1 + (1-alpha)*||beta||_2^2.

    A float for beta (p,); one value per member, summed over the last axis,
    for an (R, p) ndarray.  Any other beta is a DataError (_checked_array).
    """
    shape = (None, None) if getattr(beta, "ndim", 1) == 2 else (None,)
    return _penalty_value(_checked_array(beta, "penalty_value: beta", shape),
                          _checked_penalty(alpha))


def _penalty_value(beta: np.ndarray, alpha: float):
    """penalty_value on a float array and an alpha already checked: the form
    the EM driver and solve_pls take, once per iteration or solve."""
    value = np.abs(beta).sum(axis=-1)
    if alpha != 1.0:  # the lasso's l2 weight is 0: 1.0 * l1 + 0.0 * l2 is l1 for finite beta
        l2 = beta @ beta if beta.ndim == 1 else np.einsum("rp,rp->r", beta, beta)
        value = alpha * value + (1.0 - alpha) * l2
    return float(value) if beta.ndim == 1 else value


def effective_lambda(lam: float, lambda_scale: str, n_obs: int) -> float:
    """Convert a penalty level to raw units.

    "raw" leaves lam unchanged; "per_obs" multiplies by 2 * n_obs, mapping
    the per-observation convention lambda * (RSS/(2N) + penalty) onto the
    raw objective used here.  Any other lambda_scale, a name that is not in
    LAMBDA_SCALES or a value that is not a string, is a ConfigurationError
    (_checked_name), and so is a lam that _checked_penalty refuses, a
    per_obs level whose raw value is not finite, or, for per_obs, an n_obs
    that is not a positive integer (_checked_int).
    """
    lam = _checked_real(lam, "penalty level lam", 0)
    if _checked_name(lambda_scale, LAMBDA_SCALES, "lambda_scale") == PER_OBS:
        n_obs = _checked_int(n_obs, "n_obs", 1)
        return _checked_real(lam * 2.0 * n_obs, "raw penalty level lam * 2 * n_obs", 0)
    return lam


def lambda_max(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> float:
    """Smallest raw penalty level at which the solution is identically zero.

    beta = 0 is optimal exactly when |2 x_j'y| <= lam * alpha for every
    column, so lambda_max = max_j |2 x_j'y| / alpha.  Requires a mixing
    weight alpha that _checked_penalty takes, less the ridge's 0, which
    never produces exact zeros; any other alpha (NaN included) is a
    ConfigurationError.  X and y are checked as solve_pls checks them
    (_checked_problem).
    """
    if _checked_penalty(alpha) == 0.0:
        raise ConfigurationError(f"lambda_max requires alpha in (0, 1], got {alpha}")
    X, y, _ = _checked_problem("lambda_max", X, y, None, "beta")
    return float(np.max(np.abs(2.0 * (X.T @ y)), initial=0.0)) / alpha  # 0 when p = 0


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


def _checked_problem(caller: str, X, y, beta, name: str):
    """(X, y, beta) as float arrays, beta zero when None: the one input check
    of solve_pls, kkt_check and lambda_max, _checked_array's of X (N, p), y
    (N,) and beta (p,), each named with caller (beta as name)."""
    X = _checked_array(X, f"{caller}: X", (None, None))
    N, p = X.shape
    y = _checked_array(y, f"{caller}: y", (N,))
    return X, y, np.zeros(p) if beta is None else _checked_array(beta, f"{caller}: {name}", (p,))


def kkt_check(X: np.ndarray, y: np.ndarray, beta: np.ndarray, lam: float,
              alpha: float = 1.0) -> float:
    """Recompute the stationarity residual of beta from scratch, checking
    the penalty (_checked_penalty) and the arrays as solve_pls does."""
    _checked_penalty(alpha, lam)
    X, y, beta = _checked_problem("kkt_check", X, y, beta, "beta")
    grad_half = X.T @ (y - X @ beta)
    return _kkt_residual(grad_half, beta, lam, alpha)


def _truncate(w: np.ndarray, V: np.ndarray, shift: float):
    """Eigenpairs (w, V) of G_AA + shift * I from np.linalg.eigh of G_AA,
    less those at or below w_max / _GRAM_COND_LIMIT: V @ ((V.T @ rhs) / w)
    is the minimum-norm least-squares solve, and w is shorter than the
    factor's when any were dropped.  The test runs on every call, since
    the limit is read then; at shift 0 with nothing dropped the factor's
    own arrays are returned, uncopied.
    """
    if shift:
        w = w + shift
    if w.size and not w[0] > w[-1] / _GRAM_COND_LIMIT:
        keep = w > w[-1] / _GRAM_COND_LIMIT
        w, V = w[keep], V[:, keep]
    return w, V


def _solve_gram(c: np.ndarray, l1: float, shift: float, warm_start: np.ndarray, factor):
    """Minimize beta'G beta - 2 c'beta + l1 ||beta||_1 + shift ||beta||^2,
    the objective of solve_pls less y'y with G = X'X and c = X'y, by linear
    solves on the blocks of G.

    G is read only through factor: factor(A) is (w, V, G[:, A]) for an
    index array A, with (w, V) = np.linalg.eigh of G_AA; a caller that
    solves on one G many times passes a cached one
    (LongitudinalDataset.gram_factor), whose columns of G serve every pass
    on that support.  On a support A with signs s the
    stationarity conditions are linear: (G_AA + shift * I) b_A = c_A -
    (l1 / 2) s.  Without an l1 term A is every column and one solve on
    _truncate's eigenpairs is the minimizer, the minimum-norm one when
    eigenpairs were dropped.  With one, an active-set loop, feature-sign
    search (Lee, Battle, Raina & Ng 2007), runs from warm_start's support
    and signs.  In each pass, when every b_A keeps its sign in s, the
    at-zero condition |2 m_j| <= l1 of _kkt_residual (m = c - G[:, A] b_A)
    is tested on the columns outside A: if it holds, beta is optimal; if
    not, the column with the largest violation joins A with the sign of
    m_j.  When a sign flips, a line search on the segment from the current
    point to b_A takes the lowest objective among b_A and the zero
    crossings, and the columns that reached zero leave A.  Where the factor
    of A dropped eigenpairs, u, the part of s outside the kept eigenspace,
    is a null direction of X_A; unless u is negligible the pass is a null
    step instead: along -u, X_A b stays put and the l1 term falls, to the
    first zero crossing, whose column leaves A (a lasso problem has a
    solution on linearly independent columns).

    Every pass lowers the objective, so in exact arithmetic no (A, s)
    repeats and the loop ends; _MAX_PIVOTS + 2p passes bound it in floating
    point (a cold start whose optimum has k nonzeros takes k + 1).  From a
    zero warm_start it is LARS-lasso.  Returns (beta, whether its solve
    dropped eigenpairs, passes).  Raises NumericalError when a null step
    raises the objective by more than the rounding of its terms, and after
    _MAX_PIVOTS + 2p passes.
    """
    if l1 == 0.0:
        w, V = _truncate(*factor(np.arange(c.size))[:2], shift)
        return V @ ((V.T @ c) / w), w.size < c.size, 1
    active = warm_start.nonzero()[0]
    x = warm_start[active]  # the current point on A
    signs = np.sign(x)
    rhs = c[active] - 0.5 * l1 * signs
    w, V, G_A = factor(active)
    w, V = _truncate(w, V, shift)

    def terms(points):
        """The terms x'Mx, 2 c'x and l1 |x|_1 of the objective x'Mx - 2 c'x
        + l1 |x|_1 (M = G_AA + shift * I) at each row x of points, a point on
        the current A, each scaled by 4^-k: points, c and l1 are scaled by
        2^-k, 2^k the power of two above max |x| when that is at least 1.  A
        power of two scales every term and sum exactly (short of subnormal
        results), so the terms compare as the unscaled ones do, and x'Mx
        stays finite for an x near the root of the largest double (a y cell
        near 1e154)."""
        M = G_A[active] + shift * np.eye(active.size)
        s = np.ldexp(1.0, -max(int(np.frexp(np.abs(points).max())[1]), 0))
        points = s * points
        return (np.einsum("ij,ij->i", points @ M, points), 2.0 * points @ (s * c[active]),
                s * l1 * np.abs(points).sum(axis=1))

    max_passes = _MAX_PIVOTS + 2 * c.size
    for passes in range(1, max_passes + 1):
        u = signs - V @ (V.T @ signs) if w.size < active.size else None
        if u is not None and u @ u * _GRAM_COND_LIMIT > active.size:
            # the null step; t is the first zero crossing, if any
            cross = np.flatnonzero(x * u > 0.0)
            t_cross = x[cross] / u[cross]
            t = min(t_cross, default=0.0)
            point = x - t * u
            point[cross[t_cross == t]] = 0.0
            quad, lin, pen = terms(np.stack([point, x]))
            new, old = quad - lin + pen
            # rounding scales with the terms, which the objective can cancel far below
            size = max(np.abs(quad) + np.abs(lin) + pen)
            if new > old + 8.0 * np.finfo(float).eps * size:
                raise NumericalError("beta M-step: a step along the null space of X_A "
                                     "did not lower the objective")
            x = point
            signs = np.sign(x)
        else:
            b = V @ ((V.T @ rhs) / w)
            flipped = b * signs <= 0.0
            if not flipped.any():
                m = c - G_A @ b
                violated = np.abs(2.0 * m) > l1  # |2 m_j| - l1 > 0, exactly, on floats
                violated[active] = False
                if not violated.any():
                    beta = np.zeros(c.size)
                    beta[active] = b
                    return beta, w.size < active.size, passes
                excess = np.abs(2.0 * m) - l1
                excess[active] = 0.0
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
                quad, lin, pen = terms(points)
                x = points[np.argmin(quad - lin + pen)]
                signs = np.sign(x)
        keep = signs != 0.0  # the columns a step set to zero leave A
        active, x, signs = active[keep], x[keep], signs[keep]
        rhs = c[active] - 0.5 * l1 * signs
        w, V, G_A = factor(active)
        w, V = _truncate(w, V, shift)
    raise NumericalError(f"beta M-step: no optimum after {max_passes} active-set passes")


def solve_pls(X: np.ndarray, y: np.ndarray, lam: float, alpha: float = 1.0,
              warm_start: np.ndarray | None = None) -> PlsSolution:
    """Minimize the penalized residual sum of squares exactly (_solve_gram).

    Args:
        X: (N, p) design matrix.
        y: (N,) response.
        lam: penalty level (raw units).
        alpha: mixing weight, 1 the lasso and 0 the ridge.
        warm_start: optional initial beta, whose support and signs the
            active-set loop starts from (zero when not given).

    Without an l1 term and with X'X not numerically positive definite, beta
    is the minimum-norm solution.  Raises ConfigurationError where
    _checked_penalty does, DataError where _checked_problem does, and
    NumericalError where _solve_gram does.
    """
    _checked_penalty(alpha, lam)
    X, y, beta = _checked_problem("solve_pls", X, y, warm_start, "warm_start")
    G, c = X.T @ X, X.T @ y
    lam = float(lam)
    beta, _, passes = _solve_gram(c, lam * alpha, lam * (1.0 - alpha), beta,
                                  lambda cols: (*np.linalg.eigh(G[np.ix_(cols, cols)]),
                                                G[:, cols]))
    m = c - G @ beta  # X'(y - X beta)
    objective = float(y @ y) - float(beta @ (c + m)) + lam * _penalty_value(beta, alpha)
    return PlsSolution(beta, objective, passes, _kkt_residual(m, beta, lam, alpha))

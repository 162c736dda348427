"""Independent reference implementations used to check the package.

Everything here is deliberately brute force or textbook: exhaustive
enumeration, coordinate descent, explicit inverses and determinants, and
generic black-box optimization.
Nothing imports from the solver code paths being tested; the dataset
helpers at the end build and read datasets through the public constructor
and arrays alone.
"""

import itertools
import math

import numpy as np
import scipy.optimize

from lmmlasso.dataset import LongitudinalDataset
from lmmlasso.exceptions import ConfigurationError


def lasso_best_by_enumeration(X, y, lam, shift=0.0):
    """Global lasso (or elastic-net) minimizer via sign-support enumeration.

    The objective is ||y - X b||^2 + lam ||b||_1 + shift ||b||^2; shift > 0
    gives the elastic net, and lam = 0 with shift > 0 the ridge.  For each
    support S and sign pattern s on S the stationarity condition
    2 (X_S'X_S + shift I) b = 2 X_S'y - lam * s has a closed-form solution;
    candidates whose solution matches the assumed signs are compared on the
    exact objective.  beta = 0 is always a candidate.  Only feasible for
    small p.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    p = X.shape[1]
    best_beta = np.zeros(p)
    best_obj = float(y @ y)
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            Xs = X[:, support]
            A = Xs.T @ Xs + shift * np.eye(size)
            rhs0 = Xs.T @ y
            for signs in itertools.product((-1.0, 1.0), repeat=size):
                s = np.asarray(signs)
                try:
                    bs = np.linalg.solve(A, rhs0 - 0.5 * lam * s)
                except np.linalg.LinAlgError:
                    continue
                if np.any(bs * s <= 0.0):
                    continue
                resid = y - Xs @ bs
                obj = float(resid @ resid) + lam * float(np.abs(bs).sum()) \
                    + shift * float(bs @ bs)
                if obj < best_obj:
                    best_obj = obj
                    best_beta = np.zeros(p)
                    best_beta[list(support)] = bs
    return best_beta, best_obj


def lasso_by_coordinate_descent(X, y, lam, alpha=1.0, warm_start=None, tol=1e-13,
                                max_sweeps=10000):
    """Elastic-net minimizer by cyclic coordinate descent.

    The objective is ||y - X b||^2 + lam * [alpha ||b||_1 + (1 - alpha) ||b||^2].
    The gradient m = X'y - X'X b is maintained, so each coordinate update
    costs O(p).  After a full sweep the nonzero set is iterated until
    stable, then another full sweep confirms; convergence is declared when
    a full sweep changes no coefficient by more than tol.  Identically-zero
    columns stay at zero.  Returns (beta, converged).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return lasso_by_coordinate_descent_gram(X.T @ X, X.T @ y, lam * alpha,
                                            lam * (1.0 - alpha), warm_start, tol, max_sweeps)


def lasso_by_coordinate_descent_gram(G, c, l1, shift=0.0, warm_start=None, tol=1e-13,
                                     max_sweeps=10000):
    """lasso_by_coordinate_descent given G = X'X and c = X'y in place of (X,
    y), and the weights l1 = lam * alpha and shift = lam * (1 - alpha) of
    ||b||_1 and ||b||^2 in place of (lam, alpha)."""
    G = np.asarray(G, dtype=float)
    c = np.asarray(c, dtype=float)
    p = c.shape[0]
    diag = np.ascontiguousarray(np.diagonal(G))
    dead = diag <= 0.0
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=float)
    beta[dead] = 0.0

    m = c - G @ beta  # X'(y - X beta), maintained incrementally
    denom = 2.0 * diag + 2.0 * shift
    live = np.flatnonzero(~dead)
    beta_l = beta.tolist()
    diag_l = diag.tolist()
    denom_l = denom.tolist()
    G_rows = list(G)
    buf = np.empty(p)
    m_item = m.item

    def cycle(indices):
        biggest = 0.0
        for j in indices:
            b_old = beta_l[j]
            z = 2.0 * (m_item(j) + diag_l[j] * b_old)
            t = abs(z) - l1
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

    sweeps = 0
    while sweeps < max_sweeps:
        delta = cycle(live)
        sweeps += 1
        if delta < tol:
            return beta, True
        active = np.flatnonzero(beta)
        while active.size and sweeps < max_sweeps:
            delta = cycle(active)
            sweeps += 1
            if delta < tol:
                break
    return beta, False


def dense_marginal_loglik(blocks, beta, sigma2, D):
    """Observed-data log-likelihood via explicit inverse and determinant.

    blocks is a sequence of (y_i, X_i, Z_i) triples.  Each subject
    contributes a normal density with covariance Z_i D Z_i' + sigma2 * I,
    evaluated the slow way with numpy.linalg.inv and slogdet.
    """
    total = 0.0
    for y_i, X_i, Z_i in blocks:
        n_i = y_i.shape[0]
        cov = Z_i @ D @ Z_i.T + sigma2 * np.eye(n_i)
        r = y_i - X_i @ beta
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0, "oracle covariance not positive definite"
        quad = float(r @ np.linalg.inv(cov) @ r)
        total += -0.5 * (n_i * np.log(2.0 * np.pi) + logdet + quad)
    return total


def penalized_loglik(ds, params, lam, alpha=1.0):
    """The objective the penalized EM ascends: dense_marginal_loglik at params
    minus lam * (alpha ||beta||_1 + (1 - alpha) ||beta||_2^2), lam in raw
    units.  Reads only ds's per-subject rows and the fields of params."""
    beta = params.beta
    value = alpha * np.abs(beta).sum() + (1.0 - alpha) * (beta @ beta)
    return dense_marginal_loglik(subject_rows(ds), beta, params.sigma2, params.D) - lam * value


def conditional_moments_dense(y_i, X_i, Z_i, beta, sigma2, D):
    """E[b|y] and Cov[b|y] from the joint normal of (y_i, b_i).

    Uses the textbook conditioning formula with an explicit inverse of the
    marginal covariance of y_i.
    """
    n_i = y_i.shape[0]
    cov_y = Z_i @ D @ Z_i.T + sigma2 * np.eye(n_i)
    cov_by = D @ Z_i.T
    cov_y_inv = np.linalg.inv(cov_y)
    resid = y_i - X_i @ beta
    b_mean = cov_by @ cov_y_inv @ resid
    b_cov = D - cov_by @ cov_y_inv @ cov_by.T
    return b_mean, b_cov


def y_tilde_by_rows(ds, b_hat):
    """y - Z b_hat with Z read row-major: one einsum over the (N, q) ds.Z, with
    b_hat, (n, q) or stacked (..., n, q), repeated row by row."""
    return ds.y - np.einsum("nq,...nq->...n", ds.Z, b_hat.repeat(ds.counts, axis=-2))


def subject_lambda(moments):
    """Cov[b_i | y_i] of every subject of an E-step, (n, q, q), or (R, n, q, q)
    for a stack: each subject's block of moments.Lambda_blocks."""
    return np.take(moments.Lambda_blocks, moments.ds.distinct_ztz.index, axis=-3)


def _chol_from_params(t):
    """Lower-triangular 2x2 Cholesky factor with log-parametrized diagonal."""
    L = np.zeros((2, 2))
    L[0, 0] = np.exp(t[0])
    L[1, 1] = np.exp(t[1])
    L[1, 0] = t[2]
    return L


def direct_ml_lmm(blocks, q=2):
    """Maximum likelihood for the mixed model by generic optimization.

    Profiles beta and sigma2 out of the likelihood: for a fixed variance
    ratio Gamma = D / sigma2 the GLS estimate of beta and the closed-form
    sigma2 are plugged in, leaving a q(q+1)/2-dimensional problem over the
    Cholesky factor of Gamma, solved with Nelder-Mead and polished with
    BFGS.  Returns (beta, sigma2, D, loglik).  Only q = 2 is supported.
    """
    assert q == 2
    N = sum(y_i.shape[0] for y_i, _, _ in blocks)
    p = blocks[0][1].shape[1]

    def profile(t):
        L = _chol_from_params(t)
        gamma = L @ L.T
        xtvx = np.zeros((p, p))
        xtvy = np.zeros(p)
        logdet = 0.0
        pieces = []
        for y_i, X_i, Z_i in blocks:
            n_i = y_i.shape[0]
            V = Z_i @ gamma @ Z_i.T + np.eye(n_i)
            Vinv = np.linalg.inv(V)
            sign, ld = np.linalg.slogdet(V)
            if sign <= 0:
                return None
            logdet += ld
            xtvx += X_i.T @ Vinv @ X_i
            xtvy += X_i.T @ Vinv @ y_i
            pieces.append((y_i, X_i, Vinv))
        if p:
            beta = np.linalg.solve(xtvx, xtvy)
        else:
            beta = np.zeros(0)
        quad = 0.0
        for y_i, X_i, Vinv in pieces:
            r = y_i - X_i @ beta
            quad += float(r @ Vinv @ r)
        sigma2 = quad / N
        loglik = -0.5 * (N * np.log(2.0 * np.pi) + N * np.log(sigma2) + logdet + N)
        return beta, sigma2, gamma, loglik

    def neg(t):
        out = profile(t)
        if out is None:
            return 1e12
        return -out[3]

    t0 = np.zeros(3)
    res = scipy.optimize.minimize(
        neg, t0, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000},
    )
    res = scipy.optimize.minimize(neg, res.x, method="BFGS",
                                  options={"gtol": 1e-11, "maxiter": 2000})
    beta, sigma2, gamma, loglik = profile(res.x)
    return beta, sigma2, sigma2 * gamma, loglik


def stack_subjects(rows, subject_ids=None, **named):
    """A LongitudinalDataset from per-subject (y_i, X_i, Z_i) triples, stacked
    in the order given; subject_ids default to 0..n-1, and named goes to the
    constructor (x_names, y_name, z_names, standardization)."""
    ys, Xs, Zs = zip(*rows)
    ids = range(len(ys)) if subject_ids is None else subject_ids
    return LongitudinalDataset(list(ids), [len(y) for y in ys], np.concatenate(ys),
                               np.vstack(Xs), np.vstack(Zs), **named)


def subject_rows(ds):
    """ds's per-subject (y_i, X_i, Z_i) triples in subject order: read-only
    views of its stacked arrays, split at ds.starts."""
    cuts = ds.starts[1:]
    return list(zip(np.split(ds.y, cuts), np.split(ds.X, cuts), np.split(ds.Z, cuts)))


def destandardize(ds):
    """Invert a standardize() transform, recovering original-scale values."""
    rec = ds.standardization
    if rec is None:
        raise ConfigurationError("dataset carries no standardization record")
    return ds._derive(y=ds.y * rec.y_scale + rec.y_center,
                      X=ds.X * rec.x_scale + rec.x_center, standardization=None)

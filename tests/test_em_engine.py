import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmmlasso import em_engine
from lmmlasso.dataset import LongitudinalDataset, SubjectBlock
from lmmlasso.em_engine import (
    EmControl,
    EStepMoments,
    LmmParams,
    e_step,
    fit_em,
    m_step,
    observed_loglik,
    penalized_loglik,
)
from lmmlasso.exceptions import NumericalError
from lmmlasso.penalized_ls import (
    PenaltySpec,
    kkt_check,
    lambda_max,
    penalty_value,
    solve_pls,
)
from lmmlasso.selector import default_grid, refit_support, refit_supports, sweep
from lmmlasso.simkit import ScenarioConfig, generate_scenario

from oracles import (
    conditional_moments_dense,
    dense_marginal_loglik,
    direct_ml_lmm,
    lasso_best_by_enumeration,
)

D_UNIT = np.array([[1.0, 0.25], [0.25, 1.0]])


def simulate_lmm(seed, n=20, n_i=4, p=3, beta=None, D=None, sigma2=1.0):
    """Small mixed-model dataset with random intercept and slope."""
    rng = np.random.default_rng(seed)
    beta = np.array([1.0, -1.0, 0.5]) if beta is None else np.asarray(beta)
    D = D_UNIT if D is None else D
    L = np.linalg.cholesky(D + 1e-300 * np.eye(2))
    blocks = []
    for i in range(n):
        X = rng.normal(size=(n_i, p))
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        b = L @ rng.normal(size=2)
        y = X @ beta + Z @ b + rng.normal(scale=np.sqrt(sigma2), size=n_i)
        blocks.append(SubjectBlock(i, y, X, Z))
    return LongitudinalDataset(blocks)


def as_triples(ds):
    return [(b.y, b.X, b.Z) for b in ds.blocks]


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def test_e_step_zero_z_gives_prior_moments():
    rng = np.random.default_rng(0)
    blocks = [SubjectBlock(i, rng.normal(size=3), rng.normal(size=(3, 2)),
                           np.zeros((3, 2))) for i in range(4)]
    ds = LongitudinalDataset(blocks)
    params = LmmParams(np.array([0.3, -0.2]), 1.5, D_UNIT)
    mom = e_step(ds, params)
    np.testing.assert_allclose(mom.b_hat, 0.0, atol=1e-14)
    for i in range(ds.n):
        np.testing.assert_allclose(mom.Lambda[i], D_UNIT, atol=1e-14)
    np.testing.assert_allclose(mom.y_tilde, ds.y, atol=0.0)


def test_e_step_scalar_hand_computation():
    # one subject, q=1, Z=[1,1], residuals (1,1), d=1, s=1
    ds = LongitudinalDataset(
        [SubjectBlock("a", np.array([1.0, 1.0]), np.zeros((2, 1)), np.ones((2, 1)))])
    mom = e_step(ds, LmmParams(np.zeros(1), 1.0, np.array([[1.0]])))
    assert mom.Lambda[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mom.b_hat[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(mom.y_tilde, 1.0 - 2.0 / 3.0, atol=1e-15)


def test_e_step_mean_of_conditional_means_is_near_zero():
    ds = simulate_lmm(99, n=1000, n_i=5)
    params = LmmParams(np.array([1.0, -1.0, 0.5]), 1.0, D_UNIT)
    mom = e_step(ds, params)
    se = mom.b_hat.std(axis=0, ddof=1) / np.sqrt(ds.n)
    assert np.all(np.abs(mom.b_hat.mean(axis=0)) < 3.0 * se)


def test_e_step_matches_dense_conditioning_oracle():
    rng = np.random.default_rng(123)
    for _ in range(25):
        q = int(rng.integers(1, 3))
        n_i = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        A = rng.normal(size=(q, q))
        D = A @ A.T + 0.3 * np.eye(q)
        sigma2 = float(rng.uniform(0.5, 2.0))
        beta = rng.normal(size=p)
        X = rng.normal(size=(n_i, p))
        Z = rng.normal(size=(n_i, q))
        y = rng.normal(size=n_i)
        ds = LongitudinalDataset([SubjectBlock(0, y, X, Z)])
        mom = e_step(ds, LmmParams(beta, sigma2, D))
        b_ref, cov_ref = conditional_moments_dense(y, X, Z, beta, sigma2, D)
        np.testing.assert_allclose(mom.b_hat[0], b_ref, atol=1e-10)
        np.testing.assert_allclose(mom.Lambda[0], cov_ref, atol=1e-10)
        np.testing.assert_allclose(mom.y_tilde, y - Z @ b_ref, atol=1e-10)


SINGULAR_DS = [np.outer([1.0, 0.5], [1.0, 0.5]) + 1e-14 * np.eye(2),  # cond ~ 1e14
               np.outer([1.0, 0.5], [1.0, 0.5]),                      # rank one
               np.zeros((2, 2))]


@pytest.mark.parametrize("D", SINGULAR_DS, ids=["cond_1e14", "rank_one", "zero"])
def test_e_step_inversion_free_route_for_near_singular_D(D):
    rng = np.random.default_rng(7)
    beta = rng.normal(size=2)
    X = rng.normal(size=(3, 2))
    Z = rng.normal(size=(3, 2))
    y = rng.normal(size=3)
    ds = LongitudinalDataset([SubjectBlock(0, y, X, Z)])
    params = LmmParams(beta, 1.0, D)
    mom = e_step(ds, params)
    b_ref, cov_ref = conditional_moments_dense(y, X, Z, beta, 1.0, D)
    np.testing.assert_allclose(mom.b_hat[0], b_ref, atol=1e-10)
    np.testing.assert_allclose(mom.Lambda[0], cov_ref, atol=1e-10)
    ref = dense_marginal_loglik([(y, X, Z)], beta, 1.0, D)
    np.testing.assert_allclose(observed_loglik(ds, params), ref, rtol=1e-12)
    assert mom.loglik == observed_loglik(ds, params)


def test_e_step_and_loglik_with_three_random_effects():
    # q=3 exercises the generic (non-closed-form) batched linalg paths
    rng = np.random.default_rng(55)
    q, p = 3, 2
    A = rng.normal(size=(q, q))
    D = A @ A.T + 0.4 * np.eye(q)
    beta = rng.normal(size=p)
    blocks = []
    for i in range(6):
        n_i = int(rng.integers(2, 6))
        X = rng.normal(size=(n_i, p))
        Z = rng.normal(size=(n_i, q))
        y = rng.normal(size=n_i)
        blocks.append(SubjectBlock(i, y, X, Z))
    ds = LongitudinalDataset(blocks)
    params = LmmParams(beta, 1.3, D)
    mom = e_step(ds, params)
    for i, b in enumerate(ds.blocks):
        b_ref, cov_ref = conditional_moments_dense(b.y, b.X, b.Z, beta, 1.3, D)
        np.testing.assert_allclose(mom.b_hat[i], b_ref, atol=1e-10)
        np.testing.assert_allclose(mom.Lambda[i], cov_ref, atol=1e-10)
    ref = dense_marginal_loglik([(b.y, b.X, b.Z) for b in ds.blocks],
                                beta, 1.3, D)
    np.testing.assert_allclose(observed_loglik(ds, params), ref, rtol=1e-10)


def test_e_step_rejects_invalid_params():
    ds = simulate_lmm(1, n=2)
    with pytest.raises(NumericalError):
        e_step(ds, LmmParams(np.zeros(3), -1.0, D_UNIT))
    with pytest.raises(NumericalError):
        e_step(ds, LmmParams(np.zeros(3), 1.0, np.array([[1.0, 0.5], [0.0, 1.0]])))


@pytest.mark.parametrize("name, params", [
    ("beta", LmmParams([np.nan, 0.0, 0.0], 1.0, D_UNIT)),
    ("sigma2", LmmParams(np.zeros(3), np.nan, D_UNIT)),
    ("sigma2", LmmParams(np.zeros(3), np.inf, D_UNIT)),
    ("D", LmmParams(np.zeros(3), 1.0, [[1.0, np.nan], [np.nan, 1.0]])),
    ("D", LmmParams(np.zeros(3), 1.0, [[np.inf, 0.0], [0.0, 1.0]])),
], ids=["beta_nan", "sigma2_nan", "sigma2_inf", "D_nan", "D_inf"])
def test_non_finite_params_are_refused_naming_the_parameter(name, params):
    # validate(), the public E-step and fit_em's guarded path share one check
    ds = simulate_lmm(1, n=4)
    for call in (params.validate, lambda: e_step(ds, params),
                 lambda: fit_em(ds, 0.0, init=params)):
        with pytest.raises(NumericalError, match=f"^{name} must be finite"):
            call()


@st.composite
def _small_lmms(draw):
    """A small mixed-model dataset, parameters with a PSD D of any rank, and lam.

    Subjects have 1 to 4 observations, so single-observation subjects with
    q >= 2 are common; N exceeds p + 1 so the M-step's sigma2 stays positive.
    """
    q = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    counts[0] += max(0, p + 2 - sum(counts))
    rank = draw(st.integers(0, q))
    sigma2 = draw(st.floats(0.2, 3.0))
    lam = draw(st.sampled_from([0.0, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(q, rank))
    D = A @ A.T
    blocks = [SubjectBlock(i, rng.normal(size=c), rng.normal(size=(c, p)),
                           rng.normal(size=(c, q))) for i, c in enumerate(counts)]
    params = LmmParams(rng.normal(size=p), sigma2, 0.5 * (D + D.T))
    return LongitudinalDataset(blocks), params, lam


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_lmms())
def test_e_step_matches_dense_oracles_and_em_step_ascends(problem):
    ds, params, lam = problem
    mom = e_step(ds, params)
    for i, b in enumerate(ds.blocks):
        b_ref, cov_ref = conditional_moments_dense(b.y, b.X, b.Z, params.beta,
                                                   params.sigma2, params.D)
        np.testing.assert_allclose(mom.b_hat[i], b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mom.Lambda[i], cov_ref, rtol=0, atol=1e-9)
    ref = dense_marginal_loglik(as_triples(ds), params.beta, params.sigma2, params.D)
    assert mom.loglik == pytest.approx(ref, rel=0, abs=1e-9)

    pen = PenaltySpec.lasso(0.0)
    before = mom.loglik - lam * penalty_value(pen, params.beta)
    after = penalized_loglik(ds, m_step(ds, mom, params, lam, pen), lam, pen)
    assert after >= before - 1e-9 * (1.0 + abs(before))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_small_lmms(), st.integers(2, 4))
def test_e_step_on_a_stack_equals_one_call_per_member(problem, R):
    ds, params, _ = problem
    rng = np.random.default_rng(R)
    members = [LmmParams(rng.normal() * params.beta, rng.uniform(0.5, 2.0) * params.sigma2,
                         rng.uniform(0.0, 2.0) * params.D) for _ in range(R)]
    stack = em_engine._ParamStack(*(np.stack([getattr(m, name) for m in members])
                                    for name in ("beta", "sigma2", "D")))
    mom = e_step(ds, stack)
    for r, member in enumerate(members):
        one = e_step(ds, member)
        for name in ("b_hat", "Lambda", "y_tilde", "loglik"):
            got, want = getattr(mom, name)[r], getattr(one, name)
            bound = 1e-12 * max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert np.max(np.abs(got - want), initial=0.0) <= bound, name

    # one member whose K_i is not positive definite fails the whole stack
    bad = em_engine._ParamStack(np.stack([params.beta] * 2), np.array([params.sigma2, -1.0]),
                                np.stack([params.D, np.zeros_like(params.D)]))
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        e_step(ds, bad, eig=np.linalg.eigh(bad.D))


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def test_m_step_collapses_to_ols_without_random_information():
    rng = np.random.default_rng(5)
    blocks = [SubjectBlock(i, rng.normal(size=4), rng.normal(size=(4, 3)),
                           np.zeros((4, 2))) for i in range(8)]
    ds = LongitudinalDataset(blocks)
    mom = EStepMoments(np.zeros((8, 2)), np.zeros((8, 2, 2)), ds.y.copy())
    prev = LmmParams(np.zeros(3), 1.0, np.eye(2))
    params = m_step(ds, mom, prev, 0.0, PenaltySpec.lasso(0.0))
    ols = np.linalg.solve(ds.X.T @ ds.X, ds.X.T @ ds.y)
    np.testing.assert_allclose(params.beta, ols, atol=1e-9)
    rss = float(np.sum((ds.y - ds.X @ ols) ** 2))
    assert params.sigma2 == pytest.approx(rss / ds.N, rel=1e-9)
    np.testing.assert_array_equal(params.D, np.zeros((2, 2)))


def test_m_step_d_update_arithmetic():
    ds = simulate_lmm(3, n=6, n_i=3)
    b_hat = np.tile(np.array([1.0, 0.0]), (6, 1))
    Lam = np.tile(np.eye(2), (6, 1, 1))
    mom = EStepMoments(b_hat, Lam, ds.y.copy())
    params = m_step(ds, mom, LmmParams(np.zeros(3), 1.0, np.eye(2)), 0.0,
                    PenaltySpec.lasso(0.0))
    expected = np.array([[2.0, 0.0], [0.0, 1.0]])  # e1 e1' + I
    np.testing.assert_allclose(params.D, expected, atol=1e-12)


def test_single_em_step_does_not_decrease_penalized_loglik():
    ds = simulate_lmm(42, n=30, n_i=5, p=9,
                      beta=np.array([1, 1, 0, 0, 0, 0, 0, 0, 0.0]))
    pen = PenaltySpec.lasso(0.0)
    lam = 5.0
    params = LmmParams(np.zeros(9), 2.0, np.eye(2))
    before = penalized_loglik(ds, params, lam, pen)
    mom = e_step(ds, params)
    after_params = m_step(ds, mom, params, lam, pen)
    after = penalized_loglik(ds, after_params, lam, pen)
    assert after >= before - 1e-8


# ---------------------------------------------------------------------------
# Observed-data log-likelihood
# ---------------------------------------------------------------------------


def test_observed_loglik_standard_normal_point():
    ds = LongitudinalDataset(
        [SubjectBlock(0, np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))])
    val = observed_loglik(ds, LmmParams(np.zeros(1), 1.0, np.eye(1)))
    assert val == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-14)


def test_observed_loglik_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for seed in range(6):
        n_i = int(rng.integers(1, 6))
        ds = simulate_lmm(seed, n=7, n_i=n_i)
        params = LmmParams(rng.normal(size=3), float(rng.uniform(0.4, 3.0)),
                           D_UNIT * float(rng.uniform(0.5, 2.0)))
        ref = dense_marginal_loglik(as_triples(ds), params.beta, params.sigma2,
                                    params.D)
        val = observed_loglik(ds, params)
        np.testing.assert_allclose(val, ref, rtol=1e-10)


def test_observed_loglik_sigma2_doubling_tracked_by_oracle():
    ds = simulate_lmm(8, n=10, n_i=3)
    beta = np.array([1.0, -1.0, 0.5])
    for s2 in (0.7, 1.4):
        ref = dense_marginal_loglik(as_triples(ds), beta, s2, D_UNIT)
        np.testing.assert_allclose(observed_loglik(ds, LmmParams(beta, s2, D_UNIT)),
                                   ref, rtol=1e-10)


# ---------------------------------------------------------------------------
# Full EM fits
# ---------------------------------------------------------------------------


def test_fit_em_unpenalized_matches_direct_ml():
    ds = simulate_lmm(1)
    rep = fit_em(ds, 0.0, ctrl=EmControl(eps=1e-12, max_iter=20000))
    assert rep.converged
    beta_o, s2_o, D_o, ll_o = direct_ml_lmm(as_triples(ds))
    np.testing.assert_allclose(rep.params.beta, beta_o, atol=1e-4)
    assert rep.params.sigma2 == pytest.approx(s2_o, abs=1e-4)
    np.testing.assert_allclose(rep.params.D, D_o, atol=1e-4)
    assert rep.final_loglik == pytest.approx(ll_o, abs=1e-6)


def test_fit_em_trace_is_nondecreasing():
    for lam_raw in (0.0, 20.0, 200.0):
        ds = simulate_lmm(17, n=15, n_i=4)
        rep = fit_em(ds, lam_raw)
        assert rep.worst_trace_decrease() <= 1e-8
        assert rep.params.sigma2 > 0
        np.testing.assert_allclose(rep.params.D, rep.params.D.T, atol=1e-12)


def test_fit_em_huge_lambda_gives_null_fixed_effects():
    ds = simulate_lmm(23, n=25, n_i=4)
    lam = 10.0 * lambda_max(ds.X, ds.y)
    rep = fit_em(ds, lam, ctrl=EmControl(eps=1e-11, max_iter=5000))
    assert np.all(rep.params.beta == 0.0)
    assert rep.converged
    # variance components agree with a direct pure-random-effects fit
    triples = [(b.y, np.zeros((b.n_obs, 0)), b.Z) for b in ds.blocks]
    _, s2_o, D_o, _ = direct_ml_lmm(triples)
    assert rep.params.sigma2 == pytest.approx(s2_o, abs=1e-3)
    np.testing.assert_allclose(rep.params.D, D_o, atol=1e-3)


def test_fit_em_score_equations_at_unpenalized_optimum():
    ds = simulate_lmm(29)
    rep = fit_em(ds, 0.0, ctrl=EmControl(eps=1e-13, max_iter=50000, abs_eps=1e-13))
    p0 = rep.params

    def loglik_at(vec):
        beta = vec[:3]
        sigma2 = vec[3]
        D = np.array([[vec[4], vec[5]], [vec[5], vec[6]]])
        return observed_loglik(ds, LmmParams(beta, sigma2, D))

    theta = np.concatenate([p0.beta, [p0.sigma2, p0.D[0, 0], p0.D[0, 1], p0.D[1, 1]]])
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (loglik_at(up) - loglik_at(dn)) / (2.0 * h)
    assert np.all(np.abs(grad) <= 1e-4)


def test_fit_em_from_singular_D_returns_the_guarded_iterate():
    ds = simulate_lmm(47, n=15, n_i=4)
    pen = PenaltySpec.lasso(0.0)
    lam = 10.0
    init = LmmParams(np.zeros(3), 1.0, np.outer([1.0, 0.5], [1.0, 0.5]))
    rep = fit_em(ds, lam, pen, init=init, ctrl=EmControl(max_iter=40))
    rep.params.validate()
    assert np.linalg.eigvalsh(rep.params.D).min() >= 1e-10
    assert rep.final_loglik == pytest.approx(observed_loglik(ds, rep.params), rel=1e-12)
    last = rep.final_loglik - lam * penalty_value(pen, rep.params.beta)
    assert rep.penalized_loglik_trace[-1] == last
    assert rep.worst_trace_decrease() <= 1e-8


def test_fit_em_takes_one_eigh_of_D_per_iteration(monkeypatch):
    ds = simulate_lmm(5, n=15, n_i=4)
    eigh = np.linalg.eigh
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    k = 7
    rep = fit_em(ds, 0.0, ctrl=EmControl(eps=0.0, abs_eps=0.0, max_iter=k))
    assert rep.iterations == k
    # the guard's eigh before the first E-step and after each M-step; the
    # E-step reuses it
    assert shapes.count((ds.q, ds.q)) == k + 1


@pytest.mark.parametrize("lam", [0.0, 5.0])
def test_guarded_e_step_agrees_with_public_path_bit_for_bit(lam):
    ds = simulate_lmm(6, n=15, n_i=4)
    rep = fit_em(ds, lam, ctrl=EmControl(max_iter=30))
    assert np.linalg.eigvalsh(rep.params.D).min() > 1e-10  # the guard did not clamp
    assert rep.final_loglik == observed_loglik(ds, rep.params)
    assert type(rep.final_loglik) is float and type(rep.converged) is bool
    guarded = e_step(ds, rep.params, eig=np.linalg.eigh(rep.params.D))
    public = e_step(ds, rep.params)
    for a, b in ((guarded.b_hat, public.b_hat), (guarded.Lambda, public.Lambda),
                 (guarded.y_tilde, public.y_tilde)):
        np.testing.assert_array_equal(a, b)


def test_fit_em_on_noise_free_data_returns_symmetric_D():
    # y = X beta exactly: sigma2 and D collapse onto their floors, so the
    # guard clamps D's eigenvalues on every iteration
    rng = np.random.default_rng(0)
    Z = np.column_stack([np.ones(4), np.arange(1.0, 5.0)])
    blocks = []
    for i in range(10):
        X = rng.normal(size=(4, 3))
        blocks.append(SubjectBlock(i, X @ np.array([1.0, -1.0, 0.5]), X, Z))
    ds = LongitudinalDataset(blocks)
    for lam in (0.0, 0.1):
        rep = fit_em(ds, lam)
        assert rep.converged
        assert np.linalg.eigvalsh(rep.params.D).min() == pytest.approx(1e-10)
        np.testing.assert_array_equal(rep.params.D, rep.params.D.T)


def test_fit_em_warm_init_reaches_same_solution():
    ds = simulate_lmm(37)
    cold = fit_em(ds, 0.0, ctrl=EmControl(eps=1e-12, max_iter=20000))
    init = LmmParams(cold.params.beta + 0.05, cold.params.sigma2 * 1.1,
                     cold.params.D + 0.05 * np.eye(2))
    warm = fit_em(ds, 0.0, init=init, ctrl=EmControl(eps=1e-12, max_iter=20000))
    np.testing.assert_allclose(warm.params.beta, cold.params.beta, atol=1e-5)
    np.testing.assert_allclose(warm.params.D, cold.params.D, atol=1e-4)


def test_fit_em_per_obs_scale_equals_raw_conversion():
    ds = simulate_lmm(41, n=12, n_i=3)
    a = fit_em(ds, 0.05, lambda_scale="per_obs")
    b = fit_em(ds, 0.05 * 2 * ds.N, lambda_scale="raw")
    np.testing.assert_array_equal(a.params.beta, b.params.beta)
    assert a.lam == 0.05 and a.lambda_scale == "per_obs"


def test_fit_report_serializes_to_json():
    ds = simulate_lmm(43, n=6, n_i=3)
    rep = fit_em(ds, 1.0)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["lambda"] == 1.0
    assert len(back["params"]["beta"]) == 3
    assert back["converged"] is True


# ---------------------------------------------------------------------------
# Exact beta update: no l1 term, or an l1 term on a KKT-verified support
# ---------------------------------------------------------------------------


# a fixed number of EM iterations, so both paths stop at the same step
FIXED_ITERS = EmControl(eps=0.0, abs_eps=0.0, max_iter=300)

# the lasso and elastic-net levels leave the third coefficient at zero in
# the single M-step below
EXACT_PENALTIES = [PenaltySpec.lasso(0.0), PenaltySpec.ridge(8.0),
                   PenaltySpec.lasso(20.0), PenaltySpec.elastic_net(0.5, 40.0)]
EXACT_IDS = ["lambda0", "ridge", "lasso", "elastic_net"]
L1_PENALTIES = EXACT_PENALTIES[2:]


def _fit_vector(rep):
    p = rep.params
    return np.concatenate([p.beta, [p.sigma2], p.D.ravel()])


def _count_solve_pls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_pls(*args, **kwargs)

    monkeypatch.setattr(em_engine, "solve_pls", counted)
    return calls


@pytest.mark.parametrize("penalty", EXACT_PENALTIES, ids=EXACT_IDS)
def test_exact_m_step_fit_matches_coordinate_descent(penalty, monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    calls = _count_solve_pls(monkeypatch)
    exact = fit_em(ds, penalty.lam, penalty, ctrl=FIXED_ITERS)
    assert calls == [] and exact.warnings == []
    cd_calls = []

    def cd_solve_beta(ds, y, penalty, lam, warm_start):
        """The beta M-step by coordinate descent, warm-started like _solve_beta."""
        cd_calls.append(None)
        sol = solve_pls(ds.X, y, penalty.with_lam(lam), warm_start=warm_start, tol=1e-13)
        return sol.beta, False

    # the reference fit: every beta M-step, the pooled start included, by
    # coordinate descent
    monkeypatch.setattr(em_engine, "_solve_beta", cd_solve_beta)
    cd = fit_em(ds, penalty.lam, penalty, ctrl=FIXED_ITERS)
    assert len(cd_calls) == FIXED_ITERS.max_iter + 1
    np.testing.assert_allclose(_fit_vector(exact), _fit_vector(cd), rtol=0, atol=1e-10)
    assert exact.final_loglik == pytest.approx(cd.final_loglik, abs=1e-9)


@pytest.mark.parametrize("penalty", EXACT_PENALTIES, ids=EXACT_IDS)
def test_exact_m_step_without_factor_matches_solve_pls(penalty, monkeypatch):
    ds = simulate_lmm(9, n=12, n_i=3)
    params = LmmParams(np.array([0.4, -0.3, 0.0]), 1.7, D_UNIT)
    mom = e_step(ds, params)
    calls = _count_solve_pls(monkeypatch)
    new = m_step(ds, mom, params, penalty.lam, penalty)
    assert calls == []
    lam1 = 2.0 * penalty.lam * params.sigma2
    ref = solve_pls(ds.X, mom.y_tilde, penalty.with_lam(lam1),
                    warm_start=params.beta, tol=1e-13)
    assert ref.converged
    np.testing.assert_allclose(new.beta, ref.beta, rtol=0, atol=1e-12)
    assert kkt_check(ds.X, mom.y_tilde, penalty.with_lam(lam1), new.beta) <= 1e-10


@pytest.mark.parametrize("warm_start", [[0.4, -0.3, 0.2], [0.4, 0.0, 0.0],
                                        [0.4, 0.3, 0.0]],
                         ids=["extra_column", "missing_column", "wrong_sign"])
@pytest.mark.parametrize("penalty", L1_PENALTIES, ids=EXACT_IDS[2:])
def test_exact_m_step_pivots_to_the_optimum(penalty, warm_start, monkeypatch):
    # the E-step of the test above, whose M-step optimum has support {0, 1}:
    # the active-set loop drops the extra column, adds the missing one or
    # flips the wrong sign, with no coordinate descent
    ds = simulate_lmm(9, n=12, n_i=3)
    mom = e_step(ds, LmmParams(np.array([0.4, -0.3, 0.0]), 1.7, D_UNIT))
    params = LmmParams(np.array(warm_start), 1.7, D_UNIT)
    calls = _count_solve_pls(monkeypatch)
    new = m_step(ds, mom, params, penalty.lam, penalty)
    assert calls == []
    lam1 = penalty.with_lam(2.0 * penalty.lam * params.sigma2)
    ref = solve_pls(ds.X, mom.y_tilde, lam1, warm_start=params.beta, tol=1e-13)
    assert ref.converged
    np.testing.assert_allclose(new.beta, ref.beta, rtol=0, atol=1e-12)
    assert kkt_check(ds.X, mom.y_tilde, lam1, new.beta) <= 1e-10


@st.composite
def _lasso_problems(draw):
    """A small design, a penalty level and a warm start for the lasso M-step."""
    p = draw(st.integers(1, 5))
    n_obs = draw(st.integers(p, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_obs, p))
    y = X @ rng.normal(size=p) + rng.normal(size=n_obs)
    lam = draw(st.floats(0.01, 1.2)) * lambda_max(X, y)
    warm = draw(st.sampled_from(["optimum_support", "random"]))
    if warm == "optimum_support":
        beta_opt, _ = lasso_best_by_enumeration(X, y, lam)
        warm_start = beta_opt * rng.uniform(0.5, 1.5, size=p)
    else:
        warm_start = rng.normal(size=p) * (rng.uniform(size=p) < 0.5)
    return X, y, lam, warm_start


def _one_subject(X, y):
    return LongitudinalDataset([SubjectBlock(0, y, X, np.ones((y.size, 1)))])


def _solve_beta_counted(ds, y, penalty, lam, warm_start):
    """em_engine._solve_beta's beta, and the number of solve_pls calls it made."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_solve_pls(mp)
        beta, _ = em_engine._solve_beta(ds, y, penalty, lam, warm_start=warm_start)
    return beta, len(calls)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lasso_problems())
def test_solve_beta_matches_enumeration_oracle(problem):
    X, y, lam, warm_start = problem
    beta, cd_calls = _solve_beta_counted(_one_subject(X, y), y, PenaltySpec.lasso(0.0), lam,
                                         warm_start)
    _, best = lasso_best_by_enumeration(X, y, lam)
    resid = y - X @ beta
    objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, PenaltySpec.lasso(lam), beta) <= 1e-7
    # the active-set loop settles it with no coordinate descent
    assert cd_calls == 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lasso_problems(), st.sampled_from([0.2, 0.5, 0.9]))
def test_elastic_net_solve_beta_matches_tight_solve_pls(problem, alpha):
    X, y, lam, warm_start = problem
    penalty = PenaltySpec.elastic_net(alpha, lam)
    beta, cd_calls = _solve_beta_counted(_one_subject(X, y), y, penalty, lam, warm_start)
    ref = solve_pls(X, y, penalty, warm_start=warm_start, tol=1e-13)
    assert ref.converged
    np.testing.assert_allclose(beta, ref.beta, rtol=0, atol=1e-10)
    assert kkt_check(X, y, penalty, beta) <= 1e-7
    assert cd_calls == 0


@st.composite
def _singular_problems(draw):
    """A design whose columns are linearly dependent, a penalty with an l1
    term, its level and a warm start.

    The dependent column is a copy of column 0, its negation or the sum of
    columns 0 and 1, or the design has fewer rows than columns.  A full
    warm start holds every column, so its support is singular; a near-zero
    one also holds the dependent (last) column at a rounding-size entry, so
    a null step's first crossing lowers the objective by less than its
    rounding.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["duplicate", "negated", "sum", "wide"]))
    if kind == "wide":
        p = draw(st.integers(2, 6))
        X = rng.normal(size=(draw(st.integers(1, p - 1)), p))
    else:
        X = rng.normal(size=(draw(st.integers(4, 30)), draw(st.integers(2, 3))))
        X = np.column_stack([X, {"duplicate": X[:, 0], "negated": -X[:, 0],
                                 "sum": X[:, 0] + X[:, 1]}[kind]])
    p = X.shape[1]
    y = X @ rng.normal(size=p) + rng.normal(size=X.shape[0])
    alpha = draw(st.sampled_from([1.0, 0.5, 0.9]))
    penalty = PenaltySpec.lasso(0.0) if alpha == 1.0 else PenaltySpec.elastic_net(alpha, 0.0)
    lam = draw(st.floats(0.01, 1.2)) * lambda_max(X, y, alpha)
    warm_start = {"zero": np.zeros(p), "full": rng.normal(size=p),
                  "random": rng.normal(size=p) * (rng.uniform(size=p) < 0.5),
                  "near_zero": rng.normal(size=p) * np.append(np.ones(p - 1), 1e-16)}[
        draw(st.sampled_from(["zero", "full", "random", "near_zero"]))]
    return X, y, penalty, lam, warm_start


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_singular_problems())
def test_solve_beta_on_singular_designs_matches_enumeration_oracle(problem):
    # supports whose X_A'X_A is singular are left by null steps, with no
    # coordinate descent
    X, y, penalty, lam, warm_start = problem
    beta, cd_calls = _solve_beta_counted(_one_subject(X, y), y, penalty, lam, warm_start)
    l1, shift = lam * penalty.alpha, lam * (1.0 - penalty.alpha)
    _, best = lasso_best_by_enumeration(X, y, l1, shift)
    resid = y - X @ beta
    objective = float(resid @ resid) + l1 * float(np.abs(beta).sum()) + shift * float(beta @ beta)
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, penalty.with_lam(lam), beta) <= 1e-8
    assert cd_calls == 0


@st.composite
def _elastic_net_problems(draw):
    """A small design, an l2-carrying penalty, its level and a warm start.

    alpha = 0 is the ridge.  Some draws duplicate a column, which leaves
    X'X singular but X'X + shift I positive definite.
    """
    p = draw(st.integers(1, 5))
    n_obs = draw(st.integers(p, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_obs, p))
    if p > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    y = X @ rng.normal(size=p) + rng.normal(size=n_obs)
    alpha = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    penalty = PenaltySpec.ridge(0.0) if alpha == 0.0 else PenaltySpec.elastic_net(alpha, 0.0)
    lam = draw(st.floats(0.01, 1.2)) * lambda_max(X, y)
    warm = draw(st.sampled_from(["optimum_support", "random"]))
    if warm == "optimum_support":
        beta_opt, _ = lasso_best_by_enumeration(X, y, lam * alpha, lam * (1.0 - alpha))
        warm_start = beta_opt * rng.uniform(0.5, 1.5, size=p)
    else:
        warm_start = rng.normal(size=p) * (rng.uniform(size=p) < 0.5)
    return X, y, penalty, lam, warm_start


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_elastic_net_problems())
def test_solve_beta_with_l2_term_matches_enumeration_oracle(problem):
    X, y, penalty, lam, warm_start = problem
    beta, _ = em_engine._solve_beta(_one_subject(X, y), y, penalty, lam,
                                    warm_start=warm_start)
    l1, shift = lam * penalty.alpha, lam * (1.0 - penalty.alpha)
    _, best = lasso_best_by_enumeration(X, y, l1, shift)
    resid = y - X @ beta
    objective = float(resid @ resid) + l1 * float(np.abs(beta).sum()) + shift * float(beta @ beta)
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, penalty.with_lam(lam), beta) <= 1e-7


def _with_duplicate_column(ds):
    return LongitudinalDataset([
        SubjectBlock(b.subject_id, b.y, np.column_stack([b.X, b.X[:, 0]]), b.Z)
        for b in ds.blocks])


def _assert_same_refit(ds, rep, ref_ds, ref, rtol):
    """Two refits agree in X beta, sigma2, D and the final log-likelihood."""
    fitted, ref_fitted = ds.X @ rep.params.beta, ref_ds.X @ ref.params.beta
    assert np.max(np.abs(fitted - ref_fitted)) <= rtol * np.max(np.abs(ref_fitted))
    assert rep.params.sigma2 == pytest.approx(ref.params.sigma2, rel=rtol, abs=0.0)
    np.testing.assert_allclose(rep.params.D, ref.params.D, rtol=rtol, atol=0)
    assert rep.final_loglik == pytest.approx(ref.final_loglik, rel=rtol, abs=0.0)


def test_duplicated_column_refit_is_the_minimum_norm_solution(monkeypatch):
    # every least-squares beta gives the same X beta, so the refit on a
    # column and its copy follows the refit without the copy; the
    # minimum-norm solution splits the weight evenly between the two
    base = simulate_lmm(13, n=20, n_i=4)
    ds = _with_duplicate_column(base)
    calls = _count_solve_pls(monkeypatch)
    rep = refit_support(ds, (0, 1, 2, 3))
    ref = refit_support(base, (0, 1, 2))
    assert calls == []
    _assert_same_refit(ds, rep, base, ref, rtol=1e-12)
    assert rep.params.beta[0] == pytest.approx(rep.params.beta[3], rel=1e-12, abs=0.0)
    assert rep.warnings == [em_engine._MIN_NORM_NOTE]
    assert rep.worst_trace_decrease() <= 1e-8


def test_near_duplicate_column_refit_needs_no_coordinate_descent(monkeypatch):
    # the copy differs by 1e-7 sin(...): X'X has condition number 1.4e15
    base = simulate_lmm(13, n=20, n_i=4)
    ds = LongitudinalDataset([
        SubjectBlock(b.subject_id, b.y, np.column_stack(
            [b.X, b.X[:, 0] + 1e-7 * np.sin(7.0 * b.X[:, 1] + b.X[:, 2])]), b.Z)
        for b in base.blocks])
    calls = _count_solve_pls(monkeypatch)
    rep = refit_support(ds, (0, 1, 2, 3))
    ref = refit_support(base, (0, 1, 2))
    assert calls == []
    assert rep.converged and rep.warnings == [em_engine._MIN_NORM_NOTE]
    assert rep.final_loglik == pytest.approx(ref.final_loglik, rel=1e-11, abs=0.0)


def test_refit_stack_notes_only_its_singular_member():
    ds = _with_duplicate_column(simulate_lmm(13, n=20, n_i=4))
    supports = [(0, 1), (0, 1, 2, 3), (1, 2)]
    reps = refit_supports(ds, supports)
    assert [rep.warnings for rep in reps] == [[], [em_engine._MIN_NORM_NOTE], []]
    for support, rep in zip(supports, reps):
        lone = refit_support(ds, support)
        np.testing.assert_allclose(rep.params.beta, lone.params.beta, rtol=1e-12, atol=0)
        _assert_same_refit(ds, rep, ds, lone, rtol=1e-12)
        assert rep.warnings == lone.warnings
    assert refit_supports(ds, []) == []


def test_ridge_on_duplicated_column_is_solved_exactly(monkeypatch):
    # X'X is singular, X'X + shift I is not: no M-step needs coordinate descent
    ds = _with_duplicate_column(simulate_lmm(13, n=20, n_i=4))
    calls = _count_solve_pls(monkeypatch)
    rep = fit_em(ds, 0.05, PenaltySpec.ridge(0.05), lambda_scale="per_obs")
    assert rep.converged
    assert calls == [] and rep.warnings == []


@pytest.mark.parametrize("scale", [1.0, 4.0])
@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["lasso", "elastic_net"])
def test_cold_start_at_or_above_lambda_max_is_solved_exactly(scale, alpha, monkeypatch):
    # the pooled start's zero warm start settles it by the empty-support KKT check
    ds = simulate_lmm(3, n=25, n_i=4)
    lam = scale * lambda_max(ds.X, ds.y, alpha)
    penalty = PenaltySpec.lasso(lam) if alpha == 1.0 else PenaltySpec.elastic_net(alpha, lam)
    calls = _count_solve_pls(monkeypatch)
    rep = fit_em(ds, lam, penalty)
    assert calls == []
    np.testing.assert_array_equal(rep.params.beta, 0.0)


def test_refit_trace_never_decreases_on_exact_path():
    ds = simulate_lmm(19, n=30, n_i=5)
    for support in ((0,), (0, 2), (0, 1, 2)):
        rep = refit_support(ds, support)
        assert rep.converged and rep.warnings == []
        assert rep.worst_trace_decrease() == 0.0


def test_sweep_factors_each_support_once_per_dataset(monkeypatch):
    ds, _ = generate_scenario(ScenarioConfig.scenario3(seed=3))
    eigh = np.linalg.eigh
    callers = []  # (module, function) of every eigh call

    def counted(a, *args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return eigh(a, *args, **kwargs)

    requests = []  # (dataset, columns) of every factor request; keeps each dataset alive
    gram_factor = LongitudinalDataset.gram_factor

    def recorded(self, cols):
        requests.append((self, tuple(int(j) for j in cols)))
        return gram_factor(self, cols)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(LongitudinalDataset, "gram_factor", recorded)
    sweep(ds, default_grid(), lambda_scale="per_obs")

    distinct = {(id(d), cols) for d, cols in requests}
    from_dataset = [c for c in callers if c[0] == "lmmlasso.dataset"]
    assert len(from_dataset) == len(distinct)
    assert len(requests) > 5 * len(distinct)
    # every other eigh in the engine is of the q x q covariance D, or the
    # uncached factor of a support the lasso M-step's active-set loop pivots to
    assert {f for m, f in callers if m == "lmmlasso.em_engine"} <= {
        "_guard_params", "_checked_eigh", "_exact_factor"}


def test_sweep_refits_on_the_parent_dataset(monkeypatch):
    # every refit runs in the lock-step EM: no restricted dataset, no second
    # set of moments
    ds, _ = generate_scenario(ScenarioConfig.scenario3(seed=3))
    selected, computed = [], []
    select_columns = LongitudinalDataset.select_columns
    block_moments = LongitudinalDataset.block_moments.fget

    def counted_select(self, cols):
        selected.append(cols)
        return select_columns(self, cols)

    def counted_moments(self):
        if self._moments is None:
            computed.append(self)
        return block_moments(self)

    monkeypatch.setattr(LongitudinalDataset, "select_columns", counted_select)
    monkeypatch.setattr(LongitudinalDataset, "block_moments", property(counted_moments))
    path = sweep(ds, default_grid(), lambda_scale="per_obs")
    assert all(e is None for e in path.errors)
    assert selected == []
    assert len(computed) == 1 and computed[0] is ds


@pytest.mark.parametrize("penalty", [PenaltySpec.lasso(0.0), PenaltySpec.lasso(20.0)],
                         ids=["lambda0", "lasso"])
def test_cached_factor_is_checked_for_definiteness_on_every_use(penalty, monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=20)
    calls = _count_solve_pls(monkeypatch)
    exact = fit_em(ds, penalty.lam, penalty, ctrl=ctrl)
    assert exact.warnings == [] and calls == []
    if penalty.lam == 0.0:
        support = np.flatnonzero(exact.params.beta)
        factor = ds.gram_factor(support)
        # the cached factor is reused, but tested for definiteness on every use
        monkeypatch.setattr(em_engine, "_GRAM_COND_LIMIT", 1.0)
        forced = fit_em(ds, penalty.lam, penalty, ctrl=ctrl)
        assert ds.gram_factor(support) is factor
        notes = sum("not numerically positive definite" in w for w in forced.warnings)
        # every eigenpair dropped: the minimum-norm solution is zero
        assert calls == [] and notes == 1
        np.testing.assert_array_equal(forced.params.beta, 0.0)
    else:
        # the warm start holds column 0 and its copy with opposite signs: the
        # cached factor of that support drops an eigenpair when the first
        # M-step uses it, and the null step moves onto the point without the
        # copy, so the fit follows the one on the design without it
        dup = _with_duplicate_column(ds)
        support = (0, 1, 2, 3)
        assert np.all(exact.params.beta != 0.0)
        factor = dup.gram_factor(support)
        assert factor[0].size == len(support)
        init = replace(exact.params, beta=np.append(exact.params.beta + [0.5, 0.0, 0.0], -0.5))
        rep = fit_em(dup, penalty.lam, penalty, init=init, ctrl=ctrl)
        ref = fit_em(ds, penalty.lam, penalty, init=exact.params, ctrl=ctrl)
        assert dup.gram_factor(support) is factor and calls == []
        _assert_same_refit(dup, rep, ds, ref, rtol=1e-12)
        assert rep.worst_trace_decrease() <= 1e-8


def test_active_set_pass_cap_raises_and_sweep_records_it(monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    lmax = lambda_max(ds.X, ds.y)
    assert fit_em(ds, 0.5 * lmax).converged
    # from a zero warm start the loop needs one pass to add a column and
    # another to prove the optimum; at or above lambda_max one pass settles
    # it.  The cap is _MAX_PIVOTS + 2p passes: here 1
    monkeypatch.setattr(em_engine, "_MAX_PIVOTS", 1 - 2 * ds.p)
    message = "beta M-step: no optimum after 1 active-set passes"
    with pytest.raises(NumericalError, match=f"^{message}$"):
        fit_em(ds, 0.5 * lmax)
    # the second grid fit starts from the first one's zero beta
    path = sweep(ds, [2.0 * lmax, 0.01 * lmax])
    assert path.errors == [None, message]
    assert path.fits[1] is None and path.selected_index == 0


def test_cold_start_with_more_nonzeros_than_the_pivot_constant_converges(monkeypatch):
    # each pass from the zero pooled start adds one column, so an optimum
    # with k nonzeros takes k + 1 passes; the cap grows with p to allow them
    ds = simulate_lmm(5, n=50, n_i=8, p=250, beta=np.append(np.ones(5), np.zeros(245)))
    calls = _count_solve_pls(monkeypatch)
    rep = fit_em(ds, 1e-3 * lambda_max(ds.X, ds.y))
    assert rep.converged and calls == []
    assert np.count_nonzero(rep.params.beta) > em_engine._MAX_PIVOTS

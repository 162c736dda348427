import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmmlasso import em_engine, penalized_ls
from lmmlasso.dataset import LongitudinalDataset, standardize
from lmmlasso.em_engine import (
    EmControl,
    EStepMoments,
    FitReport,
    LmmParams,
    e_step,
    fit_em,
    fit_em_supports,
    m_step,
    observed_loglik,
)
from lmmlasso.exceptions import ConfigurationError, DataError, NumericalError
from lmmlasso.penalized_ls import _solve_gram, kkt_check, lambda_max, penalty_value, solve_pls
from lmmlasso.selector import default_grid, refit_support, sweep
from lmmlasso.simkit import ScenarioConfig, generate_scenario

from oracles import (
    conditional_moments_dense,
    dense_marginal_loglik,
    direct_ml_lmm,
    lasso_best_by_enumeration,
    lasso_by_coordinate_descent,
    lasso_by_coordinate_descent_gram,
    penalized_loglik,
    stack_subjects,
    subject_lambda,
    subject_rows,
    y_tilde_by_rows,
)

D_UNIT = np.array([[1.0, 0.25], [0.25, 1.0]])


def simulate_lmm(seed, n=20, n_i=4, p=3, beta=None, D=None, sigma2=1.0):
    """Small mixed-model dataset with random intercept and slope."""
    rng = np.random.default_rng(seed)
    beta = np.array([1.0, -1.0, 0.5]) if beta is None else np.asarray(beta)
    D = D_UNIT if D is None else D
    L = np.linalg.cholesky(D + 1e-300 * np.eye(2))
    rows = []
    for i in range(n):
        X = rng.normal(size=(n_i, p))
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        b = L @ rng.normal(size=2)
        y = X @ beta + Z @ b + rng.normal(scale=np.sqrt(sigma2), size=n_i)
        rows.append((y, X, Z))
    return stack_subjects(rows)


def _moment(moments, name):
    """An E-step's moment by name; "Lambda" is the per-subject stack (subject_lambda)."""
    return subject_lambda(moments) if name == "Lambda" else getattr(moments, name)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def test_e_step_zero_z_gives_prior_moments():
    rng = np.random.default_rng(0)
    ds = stack_subjects([(rng.normal(size=3), rng.normal(size=(3, 2)), np.zeros((3, 2)))
                         for i in range(4)])
    params = LmmParams(np.array([0.3, -0.2]), 1.5, D_UNIT)
    mom = e_step(ds, params)
    np.testing.assert_allclose(mom.b_hat, 0.0, atol=1e-14)
    for i in range(ds.n):
        np.testing.assert_allclose(subject_lambda(mom)[i], D_UNIT, atol=1e-14)
    np.testing.assert_allclose(mom.y_tilde, ds.y, atol=0.0)


def test_e_step_scalar_hand_computation():
    # one subject, q=1, Z=[1,1], residuals (1,1), d=1, s=1
    ds = LongitudinalDataset(["a"], [2], np.array([1.0, 1.0]), np.zeros((2, 1)), np.ones((2, 1)))
    mom = e_step(ds, LmmParams(np.zeros(1), 1.0, np.array([[1.0]])))
    assert subject_lambda(mom)[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mom.b_hat[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(mom.y_tilde, 1.0 - 2.0 / 3.0, atol=1e-15)


@pytest.mark.parametrize("beta, sigma2, D", [
    (np.zeros(3), 1.0, np.eye(2)),
    (np.zeros(9), 1.0, np.eye(3)),
    (0.0, 1.0, np.eye(2)),
    (np.zeros((2, 9)), np.ones(2), np.broadcast_to(np.eye(2), (3, 2, 2))),
    (np.zeros((2, 9)), np.ones(3), np.broadcast_to(np.eye(2), (2, 2, 2))),
    (np.zeros(9), np.ones(1), np.eye(2)),
], ids=["wrong-p", "wrong-q", "scalar-beta", "stack-of-D", "stack-of-sigma2",
        "array-sigma2"])
@pytest.mark.parametrize("call", [
    e_step, observed_loglik, lambda ds, params: fit_em(ds, 0.1, init=params),
    lambda ds, params: m_step(ds, replace(_moments_at_start(ds), params=params), 0.1),
], ids=["e_step", "observed_loglik", "fit_em-init", "m_step"])
def test_params_of_the_wrong_shape_are_refused(call, beta, sigma2, D):
    # unchecked, e_step raised a bare matmul ValueError, "too many values to
    # unpack", or a NumericalError blaming a square D, and m_step checked
    # none of them; fit_em's init and m_step's moments.params must be one
    # member; a lone member's array sigma2 raised numpy's TypeError in LmmParams
    ds, _ = generate_scenario(ScenarioConfig.scenario1(n=10, n_i=4, seed=1))
    with pytest.raises(ConfigurationError, match=r": (beta|sigma2|D) must have shape \("):
        call(ds, LmmParams(beta, sigma2, D))


def _moments_at_start(ds):
    """The E-step of ds at beta 0, sigma2 1 and D the identity."""
    return e_step(ds, LmmParams(np.zeros(ds.p), 1.0, np.eye(ds.q)))


def test_m_step_refuses_a_stack_or_moments_that_are_not_one_members_on_ds():
    # unchecked, both raised numpy's bare ValueError
    ds, _ = generate_scenario(ScenarioConfig.scenario1(n=10, n_i=4, seed=1))
    start = LmmParams(np.zeros(ds.p), 1.0, np.eye(ds.q))
    stack = LmmParams(np.zeros((2, ds.p)), np.ones(2), np.broadcast_to(np.eye(ds.q), (2, 2, 2)))
    with pytest.raises(ConfigurationError, match=r"^m_step: moments.params: beta must have "
                                                 r"shape \(9,\), got \(2, 9\)$"):
        m_step(ds, replace(_moments_at_start(ds), params=stack), 0.1)
    with pytest.raises(ConfigurationError,
                       match="^m_step: moments are not one member's E-step on this dataset"):
        m_step(ds, e_step(ds.subset_subjects(range(5)), start), 0.1)
    with pytest.raises(ConfigurationError, match=r"^m_step: moments.b_hat must have shape "
                                                 r"\(10, 2\), got \(2, 10, 2\)$"):
        m_step(ds, e_step(ds, stack), 0.1)


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
        ds = LongitudinalDataset([0], [y.size], y, X, Z)
        mom = e_step(ds, LmmParams(beta, sigma2, D))
        b_ref, cov_ref = conditional_moments_dense(y, X, Z, beta, sigma2, D)
        np.testing.assert_allclose(mom.b_hat[0], b_ref, atol=1e-10)
        np.testing.assert_allclose(subject_lambda(mom)[0], cov_ref, atol=1e-10)
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
    ds = LongitudinalDataset([0], [y.size], y, X, Z)
    params = LmmParams(beta, 1.0, D)
    mom = e_step(ds, params)
    b_ref, cov_ref = conditional_moments_dense(y, X, Z, beta, 1.0, D)
    np.testing.assert_allclose(mom.b_hat[0], b_ref, atol=1e-10)
    np.testing.assert_allclose(subject_lambda(mom)[0], cov_ref, atol=1e-10)
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
    rows = []
    for i in range(6):
        n_i = int(rng.integers(2, 6))
        X = rng.normal(size=(n_i, p))
        Z = rng.normal(size=(n_i, q))
        y = rng.normal(size=n_i)
        rows.append((y, X, Z))
    ds = stack_subjects(rows)
    params = LmmParams(beta, 1.3, D)
    mom = e_step(ds, params)
    for i, (y_i, X_i, Z_i) in enumerate(subject_rows(ds)):
        b_ref, cov_ref = conditional_moments_dense(y_i, X_i, Z_i, beta, 1.3, D)
        np.testing.assert_allclose(mom.b_hat[i], b_ref, atol=1e-10)
        np.testing.assert_allclose(subject_lambda(mom)[i], cov_ref, atol=1e-10)
    ref = dense_marginal_loglik(subject_rows(ds), beta, 1.3, D)
    np.testing.assert_allclose(observed_loglik(ds, params), ref, rtol=1e-10)


def test_e_step_rejects_invalid_params():
    ds = simulate_lmm(1, n=2)
    with pytest.raises(NumericalError):
        e_step(ds, LmmParams(np.zeros(3), -1.0, D_UNIT))
    with pytest.raises(NumericalError):
        e_step(ds, LmmParams(np.zeros(3), 1.0, np.array([[1.0, 0.5], [0.0, 1.0]])))


@pytest.mark.parametrize("params, message", [
    (LmmParams(np.zeros(3), -1.0, -np.eye(2)), "sigma2 must be positive"),
    (LmmParams(np.zeros(3), 1.0, -np.eye(2)), "D has eigenvalues below"),
    (LmmParams(np.zeros(3), 1.0, [[1.0, 5.0], [0.0, 1.0]]), "D is not symmetric"),
], ids=["negative-sigma2", "negative-D", "asymmetric-D"])
def test_fit_em_validates_a_params_start_as_e_step_does(params, message):
    # unchecked, the guard clamped or symmetrized the start and the fit
    # reported converged with no warning, and m_step returned a fit
    ds = simulate_lmm(1, n=4)
    for call in (lambda: e_step(ds, params), lambda: fit_em(ds, 0.0, init=params),
                 lambda: m_step(ds, replace(_moments_at_start(ds), params=params), 0.0)):
        with pytest.raises(NumericalError, match=message):
            call()


def test_a_fit_report_start_is_checked_unless_its_e_step_is_on_the_dataset():
    # unchecked, a hand-made report with sigma2 = -1 ran 350 iterations and
    # reported converged
    ds = simulate_lmm(1, n=4)
    made = FitReport(LmmParams(np.zeros(3), -1.0, D_UNIT), 1, True, np.zeros(1), 0.0, 0.0)
    with pytest.raises(NumericalError, match="^sigma2 must be positive"):
        fit_em(ds, 0.0, init=made)


def _scenario1_report():
    """Scenario 1, seed 3, and its fit at 0.1 per observation (22 iterations)."""
    ds, _ = generate_scenario(ScenarioConfig.scenario1(seed=3))
    return ds, fit_em(ds, 0.1, lambda_scale="per_obs")


@pytest.mark.parametrize("params, error, message", [
    (lambda rep: LmmParams(rep.params.beta, -1.0, rep.params.D), NumericalError,
     "^sigma2 must be positive"),
    (lambda rep: LmmParams(rep.params.beta[:3], rep.params.sigma2, rep.params.D),
     ConfigurationError, r"^fit_em: init: beta must have shape \(9,\), got \(3,\)$"),
], ids=["negative-sigma2", "short-beta"])
def test_a_report_whose_params_were_replaced_is_checked(params, error, message):
    # unchecked, the fit ran from the report's stale E-step: 10 iterations
    # for sigma2 = -1 and 8 for a beta of 3 entries, each reported converged
    ds, rep = _scenario1_report()
    with pytest.raises(error, match=message):
        fit_em(ds, 0.05, init=replace(rep, params=params(rep)), lambda_scale="per_obs")


def test_a_report_whose_params_were_replaced_starts_from_them(monkeypatch):
    # from the report's stale E-step the plain-EM fit ran 8 iterations, not 15
    ds, rep = _scenario1_report()
    params = LmmParams(5.0 * np.ones(ds.p), rep.params.sigma2, rep.params.D)
    from_report = fit_em(ds, 0.05, init=replace(rep, params=params), lambda_scale="per_obs")
    from_params = fit_em(ds, 0.05, init=params, lambda_scale="per_obs")
    assert from_report.iterations == from_params.iterations == 12
    assert from_report.penalized_loglik_trace.tobytes() == \
        from_params.penalized_loglik_trace.tobytes()
    assert from_report.params.beta.tobytes() == from_params.params.beta.tobytes()

    # the report itself, or with other fields replaced, still lends its E-step
    calls = []
    public_e_step = em_engine.e_step
    monkeypatch.setattr(em_engine, "e_step",
                        lambda *a, **kw: calls.append(None) or public_e_step(*a, **kw))
    cold = fit_em(ds, 0.05, init=rep.params, lambda_scale="per_obs")
    for init in (rep, replace(rep, iterations=0)):
        calls.clear()
        warm = fit_em(ds, 0.05, init=init, lambda_scale="per_obs")
        assert len(calls) == cold.iterations
        assert warm.penalized_loglik_trace.tobytes() == cold.penalized_loglik_trace.tobytes()


def test_every_report_holds_the_e_step_of_its_params():
    ds, rep = _scenario1_report()
    reps = [rep, fit_em(ds, 0.05, init=rep, lambda_scale="per_obs"),
            refit_support(ds, (0, 1)), *fit_em_supports(ds, [(0,), (0, 1, 4), (2,)])]
    for r in reps:
        assert r.moments.ds is ds and r.moments.params is r.params
        assert r.moments.loglik == r.final_loglik


@pytest.mark.parametrize("name, params", [
    ("beta", LmmParams([np.nan, 0.0, 0.0], 1.0, D_UNIT)),
    ("sigma2", LmmParams(np.zeros(3), np.nan, D_UNIT)),
    ("sigma2", LmmParams(np.zeros(3), np.inf, D_UNIT)),
    ("D", LmmParams(np.zeros(3), 1.0, [[1.0, np.nan], [np.nan, 1.0]])),
    ("D", LmmParams(np.zeros(3), 1.0, [[np.inf, 0.0], [0.0, 1.0]])),
], ids=["beta_nan", "sigma2_nan", "sigma2_inf", "D_nan", "D_inf"])
def test_non_finite_params_are_refused_naming_the_parameter(name, params):
    # the public E-step, fit_em's start and m_step share one check
    ds = simulate_lmm(1, n=4)
    for call in (lambda: e_step(ds, params), lambda: fit_em(ds, 0.0, init=params),
                 lambda: m_step(ds, replace(_moments_at_start(ds), params=params), 0.0)):
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
    rows = [(rng.normal(size=c), rng.normal(size=(c, p)), rng.normal(size=(c, q)))
            for c in counts]
    params = LmmParams(rng.normal(size=p), sigma2, 0.5 * (D + D.T))
    return stack_subjects(rows), params, lam


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_small_lmms())
def test_e_step_matches_dense_oracles_and_em_step_ascends(problem):
    ds, params, lam = problem
    mom = e_step(ds, params)
    for i, (y_i, X_i, Z_i) in enumerate(subject_rows(ds)):
        b_ref, cov_ref = conditional_moments_dense(y_i, X_i, Z_i, params.beta,
                                                   params.sigma2, params.D)
        np.testing.assert_allclose(mom.b_hat[i], b_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(subject_lambda(mom)[i], cov_ref, rtol=0, atol=1e-9)
    ref = dense_marginal_loglik(subject_rows(ds), params.beta, params.sigma2, params.D)
    assert mom.loglik == pytest.approx(ref, rel=0, abs=1e-9)

    before = mom.loglik - lam * penalty_value(params.beta)
    after = penalized_loglik(ds, m_step(ds, mom, lam), lam)
    assert after >= before - 1e-9 * (1.0 + abs(before))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_small_lmms(), st.integers(2, 4))
def test_e_step_on_a_stack_equals_one_call_per_member(problem, R):
    ds, params, _ = problem
    rng = np.random.default_rng(R)
    members = [LmmParams(rng.normal() * params.beta, rng.uniform(0.5, 2.0) * params.sigma2,
                         rng.uniform(0.0, 2.0) * params.D) for _ in range(R)]
    stack = LmmParams(*(np.stack([getattr(m, name) for m in members])
                        for name in ("beta", "sigma2", "D")))
    mom = e_step(ds, stack)
    for r, member in enumerate(members):
        one = e_step(ds, member)
        for name in ("b_hat", "Lambda", "y_tilde", "loglik"):
            got, want = _moment(mom, name)[r], _moment(one, name)
            bound = 1e-12 * max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert np.max(np.abs(got - want), initial=0.0) <= bound, name

    # one member whose K_i is not positive definite fails the whole stack
    bad = LmmParams(np.stack([params.beta] * 2), np.array([params.sigma2, -1.0]),
                    np.stack([params.D, np.zeros_like(params.D)]))
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        e_step(ds, bad, eig=np.linalg.eigh(bad.D))


def _visit_design(kind, seed=0, n=12, p=3, q=2):
    """Subjects with Z_i the first q columns of [1, t, t^2] at their visit times t.

    balanced: every subject at t = 1..4, so one Z'Z block; unbalanced: each
    subject at its own times, n blocks; missing: t = 1..4 with every third
    subject missing one of the four visits, five blocks.  For q = 1 Z_i'Z_i
    is the number of visits: four blocks unbalanced and two missing.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        t = np.arange(1.0, 5.0)
        if kind == "unbalanced":
            t = np.sort(rng.uniform(0.0, 5.0, size=1 + i % 4))
        elif kind == "missing" and i % 3 == 0:
            t = np.delete(t, i // 3 % 4)
        rows.append((rng.normal(size=t.size), rng.normal(size=(t.size, p)),
                     np.column_stack([np.ones(t.size), t, t * t])[:, :q]))
    return stack_subjects(rows)


def _stack(members):
    return LmmParams(*(np.stack([getattr(m, name) for m in members])
                       for name in ("beta", "sigma2", "D")))


def _random_params(rng, p=3, q=2):
    A = rng.normal(size=(q, q))
    return LmmParams(rng.normal(size=p), rng.uniform(0.5, 2.0), A @ A.T)


DESIGNS = [("balanced", 1), ("unbalanced", 12), ("missing", 5)]


def _assert_y_tilde_agrees_with_the_row_major_form(ds, mom):
    """Bit for bit at q <= 2.  For q >= 3 the row-major einsum's SIMD kernel
    may sum the q products in another order than ds.zt's column order, so
    the two agree to rounding."""
    want = y_tilde_by_rows(ds, mom.b_hat)
    if ds.q <= 2:
        assert np.array_equal(mom.y_tilde, want)
        return
    size = np.abs(ds.y) + np.einsum("nq,...nq->...n", np.abs(ds.Z),
                                    np.abs(mom.b_hat).repeat(ds.counts, axis=-2))
    assert np.all(np.abs(mom.y_tilde - want) <= 4 * ds.q * np.finfo(float).eps * size)


# (design, its number of distinct Z'Z blocks, q), where q = 1 has fewer
# blocks (_visit_design); the q = 2 cells keep the plain ids
Q1_BLOCKS = {"balanced": 1, "unbalanced": 4, "missing": 2}
ORACLE_CELLS = [(d, n if q > 1 else Q1_BLOCKS[d], q) for q in (2, 1, 3) for d, n in DESIGNS]


@pytest.mark.parametrize("design, n_blocks, q", ORACLE_CELLS,
                         ids=[d if q == 2 else f"{d}-q{q}" for d, _, q in ORACLE_CELLS])
@pytest.mark.parametrize("R", [1, 3])
def test_blockwise_e_step_matches_the_dense_oracle(design, n_blocks, q, R):
    # the float route runs where q <= 2 and R = 1 on the balanced design's
    # one block; every other cell runs the matrix route
    ds = _visit_design(design, q=q)
    blocks = ds.distinct_ztz
    assert blocks.counts.size == n_blocks and blocks.counts.sum() == ds.n
    np.testing.assert_array_equal(blocks.ztz[blocks.index], ds.block_moments[0])
    rng = np.random.default_rng(R)
    members = [_random_params(rng, q=q) for _ in range(R)]
    mom = e_step(ds, members[0] if R == 1 else _stack(members))
    _assert_y_tilde_agrees_with_the_row_major_form(ds, mom)
    for r, params in enumerate(members):
        one = mom if R == 1 else replace(mom, b_hat=mom.b_hat[r], loglik=mom.loglik[r],
                                         Lambda_blocks=mom.Lambda_blocks[r])
        resid = []
        for i, (y_i, X_i, Z_i) in enumerate(subject_rows(ds)):
            b_ref, cov_ref = conditional_moments_dense(y_i, X_i, Z_i, params.beta,
                                                       params.sigma2, params.D)
            np.testing.assert_allclose(one.b_hat[i], b_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(subject_lambda(one)[i], cov_ref, rtol=0, atol=1e-10)
            resid.append(y_i - Z_i @ b_ref)
        np.testing.assert_allclose(one.y_tilde, np.concatenate(resid), rtol=0, atol=1e-10)
        ref = dense_marginal_loglik(subject_rows(ds), params.beta, params.sigma2, params.D)
        assert one.loglik == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [3, 5])
def test_y_tilde_with_three_or_more_random_effects_agrees_with_the_row_major_form(q):
    rng = np.random.default_rng(q)
    ds = stack_subjects([(rng.normal(size=c), rng.normal(size=(c, 2)), rng.normal(size=(c, q)))
                         for c in rng.integers(1, 6, size=20)])
    mom = e_step(ds, _stack([_random_params(rng, p=2, q=q) for _ in range(3)]))
    _assert_y_tilde_agrees_with_the_row_major_form(ds, mom)


@pytest.mark.parametrize("design, n_blocks", DESIGNS, ids=[d for d, _ in DESIGNS])
def test_a_stack_with_one_indefinite_member_fails_only_that_member(design, n_blocks,
                                                                     monkeypatch):
    ds = _visit_design(design)
    rng = np.random.default_rng(4)
    good = [_random_params(rng) for _ in range(2)]
    bad = LmmParams(np.zeros(3), -1.0, np.zeros((2, 2)))  # K_i = -I
    stack = _stack([good[0], bad, good[1]])
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        e_step(ds, stack, eig=np.linalg.eigh(stack.D))
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        e_step(ds, bad, eig=np.linalg.eigh(bad.D))

    # the driver reruns the stack member by member, and only the indefinite
    # member leaves it; without the guard, which would repair its sigma2,
    # it reaches the E-step
    monkeypatch.setattr(em_engine, "_guard_params",
                        lambda params: (params, np.linalg.eigh(params.D)))

    def solve_beta(live, c, lam1, warm_start):
        return np.linalg.solve(ds.gram, c.T).T, [False] * len(live)

    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=5)
    out = em_engine._run_em(ds, 3, solve_beta, ctrl, start=stack)
    assert isinstance(out[1], NumericalError)
    for rep, params in zip((out[0], out[2]), good):
        lone, = em_engine._run_em(ds, 1, solve_beta, ctrl, start=params)
        assert rep.iterations == lone.iterations == ctrl.max_iter
        np.testing.assert_allclose(_fit_vector(rep), _fit_vector(lone), rtol=1e-12, atol=0)
        assert rep.final_loglik == pytest.approx(lone.final_loglik, rel=1e-12, abs=0.0)


def test_the_lapack_route_refuses_an_indefinite_block_with_a_positive_determinant():
    # det(K) > 0 does not make K positive definite: K = -I at even q, and
    # two indefinite 2 x 2 blocks on the diagonal (eigenvalues -1, -1, 3, 3)
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    K = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), A]])
    assert np.linalg.det(K) > 0.0
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        em_engine._spd_inv_logdet(np.stack([np.eye(4), K]))
    rng = np.random.default_rng(0)
    ds = stack_subjects([(rng.normal(size=5), rng.normal(size=(5, 2)), rng.normal(size=(5, 4)))
                         for i in range(6)])
    bad = LmmParams(np.zeros(ds.p), -1.0, np.zeros((4, 4)))  # K_i = -I, det(K_i) = 1
    with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
        e_step(ds, bad, eig=np.linalg.eigh(bad.D))

    # on positive definite blocks the log determinant is LAPACK's
    good = np.stack([np.eye(4) + K @ K, 2.0 * np.eye(4)])
    inv, logdet = em_engine._spd_inv_logdet(good)
    np.testing.assert_allclose(inv @ good, np.broadcast_to(np.eye(4), good.shape), atol=1e-14)
    np.testing.assert_allclose(logdet, np.linalg.slogdet(good)[1], rtol=1e-14)


def _assert_close_to(got, want, rtol):
    """max|got - want| within rtol of max|want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = rtol * max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= bound


@st.composite
def _kernel_cases(draw):
    """A q <= 2 design and one member's parameters: D of full rank, rank
    one, zero or with an eigenvalue at the guard's 1e-10 floor, and sigma2
    at its 1e-12 floor or of order one.

    The unbalanced q = 2 design has single-visit subjects, whose Z_i'Z_i
    is singular.  At sigma2 = 1e-12 their K_i has a condition number near
    1e12, and b_hat_i = S K_i^-1 S Z_i'r_i cancels terms that large: it
    carries 1e12 times the rounding of Z_i'r_i, which a lone member and a
    stack round differently.  That design keeps sigma2 of order one.
    """
    q = draw(st.sampled_from([1, 2]))
    design = draw(st.sampled_from(["balanced", "unbalanced", "missing"]))
    ds = _visit_design(design, seed=draw(st.integers(0, 3)), q=q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.1, 3.0, size=q)
    rank = draw(st.sampled_from(["full", "rank_one", "zero", "floor"]))
    if rank == "zero":
        w[:] = 0.0
    elif rank != "full":
        w[0] = 0.0 if rank == "rank_one" else 1e-10
    V = np.linalg.qr(rng.normal(size=(q, q)))[0]
    D = (V * w) @ V.T
    singular = q == 2 and design == "unbalanced"
    sigma2 = 1e-12 if draw(st.booleans()) and not singular else rng.uniform(0.2, 3.0)
    return ds, LmmParams(rng.normal(size=ds.p), sigma2, 0.5 * (D + D.T))


def _largest_cond_of_k(ds, params):
    """max_g cond(K_g), K_g = sigma2 I + S Z_g'Z_g S over the design's distinct blocks."""
    S = em_engine._psd_sqrt(*np.linalg.eigh(params.D))
    K = params.sigma2 * np.eye(ds.q) + S @ ds.distinct_ztz.ztz @ S
    return float(np.linalg.cond(K).max())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_kernel_cases())
def test_one_member_closed_forms_agree_with_the_matrix_route(case):
    # a lone member's q x q algebra runs on floats when its design has one
    # Z'Z block; the same member twice in a stack runs it on matrix
    # products and LAPACK.  Where K is ill-conditioned (sigma2 at its floor
    # and D rank-deficient on the balanced q = 2 design, cond(K) up to
    # 1e14) the two routes round S K^-1 S differently, by up to about
    # cond(K) eps, and each is about that far from the exact moments
    ds, params = case
    cond = _largest_cond_of_k(ds, params)
    rtol = 1e-13 if cond < 1e8 else 2.0 * cond * np.finfo(float).eps
    lone, stack = e_step(ds, params), e_step(ds, _stack([params, params]))
    for name in ("b_hat", "Lambda", "y_tilde", "loglik"):
        _assert_close_to(_moment(stack, name)[0], _moment(lone, name), rtol)

    def solve(c, lam1, warm_start):
        return np.linalg.solve(ds.gram, c.T).T

    one, xbeta_one = em_engine._m_step(ds, lone, 0.0, solve)
    two, xbeta_two = em_engine._m_step(ds, stack, 0.0, solve)
    for name in ("beta", "sigma2", "D"):
        _assert_close_to(getattr(two, name)[0], getattr(one, name), rtol)
    _assert_close_to(xbeta_two[0], xbeta_one, rtol)

    bad = LmmParams(params.beta, -1.0, np.zeros((ds.q, ds.q)))  # K_i = -I
    for member in (bad, _stack([bad, bad])):
        with pytest.raises(NumericalError, match="subject covariance is not positive definite"):
            e_step(ds, member, eig=np.linalg.eigh(member.D))


def test_a_penalized_stack_traces_each_member_as_its_lone_run():
    ds = _visit_design("missing")
    rng = np.random.default_rng(11)
    members = [_random_params(rng) for _ in range(2)]
    lam = 3.0

    def solve_beta(live, c, lam1, warm_start):
        """The lasso beta M-step of each live member."""
        out = [_solve_gram(c_r, l_r, 0.0, w_r, ds.gram_factor) for c_r, l_r, w_r in
               zip(c.reshape(-1, ds.p), np.ravel(lam1), warm_start.reshape(-1, ds.p))]
        return np.stack([b for b, _, _ in out]).reshape(c.shape), [cut for _, cut, _ in out]

    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=8)
    reps = em_engine._run_em(ds, 2, solve_beta, ctrl, lam, start=_stack(members))
    for rep, params in zip(reps, members):
        lone, = em_engine._run_em(ds, 1, solve_beta, ctrl, lam, start=params)
        assert rep.iterations == lone.iterations == ctrl.max_iter
        np.testing.assert_allclose(rep.penalized_loglik_trace, lone.penalized_loglik_trace,
                                   rtol=1e-12, atol=0)
        assert np.any(lone.params.beta == 0.0)  # the l1 term is active


_BROKEN = 1e3  # a beta entry no fit reaches here: the guard below breaks its member


def _support_solver(ds, supports, fail=None):
    """fit_em_supports' beta step over supports, as a solve_beta for _run_em;
    at its third solve (the M-step of iteration 2) member fail gets the beta
    _BROKEN."""
    factors = [(np.array(A), *penalized_ls._truncate(*ds.gram_factor(np.array(A))[:2], 0.0))
               for A in supports]
    solves = [0] * len(supports)

    def solve_beta(live, c, lam1, warm_start):
        xty = c.reshape(len(live), ds.p)
        beta = np.zeros(xty.shape)
        for r, k in enumerate(live):
            A, w_A, V_A = factors[k]
            beta[r, A] = V_A @ ((V_A.T @ xty[r, A]) / w_A)
            solves[k] += 1
            if k == fail and solves[k] == 3:
                beta[r] = _BROKEN
        return beta.reshape(c.shape), [factors[k][1].size < factors[k][0].size for k in live]

    return solve_beta


def test_stack_members_leave_at_their_own_iterations_as_their_lone_runs(monkeypatch):
    # on one Z'Z block with q = 2 (the float route), the refit of support
    # (1, 2) converges at iteration 10, that of (0, 1, 2) fails in its
    # E-step at iteration 2 and that of (0, 3), a column and its copy,
    # reaches the cap alone; its pooled-start solve and every M-step drop
    # an eigenpair, and its report notes that once
    base = _visit_design("balanced")
    ds = LongitudinalDataset(base.subject_ids, base.counts, base.y,
                             np.column_stack([base.X, base.X[:, 0]]), base.Z)
    assert ds.ztz_entries is not None
    guard = em_engine._guard_params

    def breaking_guard(params):
        """The guard, then sigma2 = -1 and D = 0 (K_i = -I) for a broken member."""
        params, eig = guard(params)
        broken = np.all(params.beta == _BROKEN, axis=-1)
        if not broken.any():
            return params, eig
        params = LmmParams(params.beta, np.where(broken, -1.0, params.sigma2),
                           np.where(broken[..., None, None], 0.0, params.D))
        return params, np.linalg.eigh(params.D)

    monkeypatch.setattr(em_engine, "_guard_params", breaking_guard)
    supports = [(0, 3), (0, 1, 2), (1, 2)]
    ctrl = EmControl(eps=1e-5, abs_eps=0.0, max_iter=12)
    out = em_engine._run_em(ds, 3, _support_solver(ds, supports, fail=1), ctrl)
    capped, failed, early = out
    assert (capped.iterations, capped.converged) == (12, False)
    assert (early.iterations, early.converged) == (10, True)
    assert capped.warnings == [em_engine._MIN_NORM_NOTE] and early.warnings == []
    assert isinstance(failed, NumericalError)
    assert str(failed) == "fit_em: iteration 2: subject covariance is not positive definite"
    for k, (support, rep) in enumerate(zip(supports, out)):
        lone, = em_engine._run_em(ds, 1, _support_solver(ds, [support], 0 if k == 1 else None),
                                  ctrl)
        if k == 1:
            assert str(lone) == str(rep)
            continue
        assert (rep.iterations, rep.converged, rep.warnings) == (
            lone.iterations, lone.converged, lone.warnings)
        np.testing.assert_allclose(rep.penalized_loglik_trace, lone.penalized_loglik_trace,
                                   rtol=1e-12, atol=0)


def test_an_extrapolation_whose_e_step_raises_keeps_the_plain_step(monkeypatch):
    # every E-step at an extrapolated iterate raises: each cycle takes the
    # plain iterate theta2 instead, so the fit is plain EM bit for bit and
    # does not fail
    ds = simulate_lmm(5, n=15, n_i=4)
    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=12)
    accelerated = fit_em(ds, 5.0, ctrl=ctrl)
    monkeypatch.setattr(em_engine, "_MAX_STEP", 1.0)  # no step extrapolates
    plain = fit_em(ds, 5.0, ctrl=ctrl)
    monkeypatch.undo()
    assert accelerated.penalized_loglik_trace[-1] > plain.penalized_loglik_trace[-1]

    trials = []
    public_e_step = em_engine.e_step

    def failing(ds, params, *, eig=None, xbeta=None):
        """Raise at an extrapolated iterate: in a lone fit from the pooled
        start, the one E-step that forms its own X beta."""
        if xbeta is None:
            trials.append(None)
            raise NumericalError("injected failure")
        return public_e_step(ds, params, eig=eig, xbeta=xbeta)

    monkeypatch.setattr(em_engine, "e_step", failing)
    refused = fit_em(ds, 5.0, ctrl=ctrl)
    assert trials and refused.iterations == ctrl.max_iter
    assert refused.penalized_loglik_trace.tobytes() == plain.penalized_loglik_trace.tobytes()
    for name in ("beta", "sigma2", "D"):
        assert np.array_equal(getattr(refused.params, name), getattr(plain.params, name))
    assert np.all(np.diff(refused.penalized_loglik_trace) >= 0.0)
    assert refused.moments.params is refused.params


def test_a_stack_member_whose_extrapolation_raises_takes_its_plain_iterate(monkeypatch):
    # both members move along one beta entry by 1, then 0.5: the step is -2
    # and the trials are 3.0; member 0's raises in its guard, member 1's is
    # taken, so the stack parts and member 0 takes theta2
    ds = simulate_lmm(5, n=15, n_i=4)

    def thetas(b):
        return _stack([LmmParams([b, 0.0, 0.0], 1.0, D_UNIT), LmmParams([0.0, b, 0.0], 1.0, D_UNIT)])

    guard = em_engine._guard_params

    def breaking_guard(params):
        """The guard, then sigma2 = -1 and D = 0 (K_i = -I) where beta[0] > 2.75."""
        params, eig = guard(params)
        broken = params.beta[..., 0] > 2.75
        if not broken.any():
            return params, eig
        params = LmmParams(params.beta, np.where(broken, -1.0, params.sigma2),
                           np.where(broken[..., None, None], 0.0, params.D))
        return params, np.linalg.eigh(params.D)

    monkeypatch.setattr(em_engine, "_guard_params", breaking_guard)
    moments, errors = em_engine._squarem_e_step(ds, thetas(1.0), thetas(2.0), thetas(2.5), None,
                                                [-np.inf, -np.inf], 0.0, 1.0)
    assert errors == {}
    np.testing.assert_array_equal(moments.params.beta, [[2.5, 0.0, 0.0], [0.0, 3.0, 0.0]])


def test_an_extrapolation_keeps_the_zeros_of_the_plain_iterate(monkeypatch):
    # a coefficient that the cycle's last M-step dropped stays at zero in the
    # extrapolated iterate, though theta0 held it; without that, the trial
    # would revive it by (1 + a)^2 times its theta0 value
    ds, _ = generate_scenario(ScenarioConfig.scenario3(seed=3))
    calls = []
    squarem = em_engine._squarem_e_step

    def recorded(ds, theta0, theta1, theta2, xbeta, lp1, lam, alpha):
        moments, errors = squarem(ds, theta0, theta1, theta2, xbeta, lp1, lam, alpha)
        calls.append((theta0.beta, theta2.beta, moments.params.beta))
        return moments, errors

    monkeypatch.setattr(em_engine, "_squarem_e_step", recorded)
    sweep(ds, default_grid(), lambda_scale="per_obs")
    lone = [(b0, b2, b) for b0, b2, b in calls if b.ndim == 1]  # the grid fits
    assert all(np.all(b[b2 == 0.0] == 0.0) for _, b2, b in lone)
    assert any(np.any((b2 == 0.0) & (b0 != 0.0)) and np.any(b != b2) for b0, b2, b in lone)


def _refusing(monkeypatch, squarem, refusals):
    """Run SQUAREM cycle c (counted from 1) with the bar of the stack positions
    in refusals.get(c, ()) raised to +inf, as if their extrapolated iterate
    lowered the penalized log-likelihood: they take the plain iterate."""
    cycles = []

    def refused(ds, theta0, theta1, theta2, xbeta, lp1, lam, alpha):
        cycles.append(None)
        lp1 = [np.inf if r in refusals.get(len(cycles), ()) else lp for r, lp in enumerate(lp1)]
        return squarem(ds, theta0, theta1, theta2, xbeta, lp1, lam, alpha)

    monkeypatch.setattr(em_engine, "_squarem_e_step", refused)


def test_stack_members_that_refuse_at_different_cycles_match_their_lone_runs(monkeypatch):
    # member 0 refuses its extrapolation in cycles 1 and 3, member 1 in cycle
    # 2 and member 2 never, so cycles 1-3 each part the stack
    ds = _visit_design("missing")
    supports = [(0,), (0, 1), (0, 1, 2)]
    refusals = {1: {0}, 2: {1}, 3: {0}}
    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=12)
    squarem = em_engine._squarem_e_step
    free = em_engine._run_em(ds, 3, _support_solver(ds, supports), ctrl)
    _refusing(monkeypatch, squarem, refusals)
    reps = em_engine._run_em(ds, 3, _support_solver(ds, supports), ctrl)
    for k, (support, rep) in enumerate(zip(supports, reps)):
        _refusing(monkeypatch, squarem, {c: {0} for c, pos in refusals.items() if k in pos})
        lone, = em_engine._run_em(ds, 1, _support_solver(ds, [support]), ctrl)
        assert (rep.iterations, rep.converged) == (lone.iterations, lone.converged)
        np.testing.assert_allclose(rep.penalized_loglik_trace, lone.penalized_loglik_trace,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.params.D, lone.params.D, rtol=1e-12, atol=0)
        assert np.all(np.diff(rep.penalized_loglik_trace) >= 0.0)
        assert rep.moments.params is rep.params
        refused_any = any(k in pos for pos in refusals.values())
        assert (rep.penalized_loglik_trace.tobytes()
                != free[k].penalized_loglik_trace.tobytes()) == refused_any


def test_criterion_2_fits_take_at_most_half_the_plain_em_iterations():
    # the 20 unpenalized fits of acceptance criterion 2 took 3,413 plain EM
    # iterations in total to reach eps 1e-12
    from test_acceptance import CRITERION2_SEEDS

    ctrl = EmControl(eps=1e-12, max_iter=30000)
    reps = [fit_em(simulate_lmm(seed, n=20, n_i=4, p=3), 0.0, ctrl=ctrl)
            for seed in CRITERION2_SEEDS]
    assert all(rep.converged for rep in reps)
    assert sum(rep.iterations for rep in reps) <= 3413 // 2


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def test_m_step_collapses_to_ols_without_random_information():
    rng = np.random.default_rng(5)
    ds = stack_subjects([(rng.normal(size=4), rng.normal(size=(4, 3)), np.zeros((4, 2)))
                         for i in range(8)])
    prev = LmmParams(np.zeros(3), 1.0, np.eye(2))
    mom = EStepMoments(np.zeros((8, 2)), np.zeros_like(ds.distinct_ztz.ztz), float("nan"), ds,
                       prev)
    params = m_step(ds, mom, 0.0)
    ols = np.linalg.solve(ds.X.T @ ds.X, ds.X.T @ ds.y)
    np.testing.assert_allclose(params.beta, ols, atol=1e-9)
    rss = float(np.sum((ds.y - ds.X @ ols) ** 2))
    assert params.sigma2 == pytest.approx(rss / ds.N, rel=1e-9)
    np.testing.assert_array_equal(params.D, np.zeros((2, 2)))


def test_m_step_d_update_arithmetic():
    ds = simulate_lmm(3, n=6, n_i=3)
    b_hat = np.tile(np.array([1.0, 0.0]), (6, 1))
    # every subject has the same Z'Z: Cov[b_i | y_i] is one block for all six
    assert ds.distinct_ztz.counts.tolist() == [6]
    mom = EStepMoments(b_hat, np.eye(2)[None], float("nan"), ds,
                       LmmParams(np.zeros(3), 1.0, np.eye(2)))
    params = m_step(ds, mom, 0.0)
    expected = np.array([[2.0, 0.0], [0.0, 1.0]])  # e1 e1' + I
    np.testing.assert_allclose(params.D, expected, atol=1e-12)


def test_single_em_step_does_not_decrease_penalized_loglik():
    ds = simulate_lmm(42, n=30, n_i=5, p=9,
                      beta=np.array([1, 1, 0, 0, 0, 0, 0, 0, 0.0]))
    lam = 5.0
    params = LmmParams(np.zeros(9), 2.0, np.eye(2))
    before = penalized_loglik(ds, params, lam)
    mom = e_step(ds, params)
    after_params = m_step(ds, mom, lam)
    after = penalized_loglik(ds, after_params, lam)
    assert after >= before - 1e-8


# ---------------------------------------------------------------------------
# Observed-data log-likelihood
# ---------------------------------------------------------------------------


def test_observed_loglik_standard_normal_point():
    ds = LongitudinalDataset([0], [1], np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    val = observed_loglik(ds, LmmParams(np.zeros(1), 1.0, np.eye(1)))
    assert val == pytest.approx(-0.5 * np.log(2.0 * np.pi), abs=1e-14)


def test_observed_loglik_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for seed in range(6):
        n_i = int(rng.integers(1, 6))
        ds = simulate_lmm(seed, n=7, n_i=n_i)
        params = LmmParams(rng.normal(size=3), float(rng.uniform(0.4, 3.0)),
                           D_UNIT * float(rng.uniform(0.5, 2.0)))
        ref = dense_marginal_loglik(subject_rows(ds), params.beta, params.sigma2,
                                    params.D)
        val = observed_loglik(ds, params)
        np.testing.assert_allclose(val, ref, rtol=1e-10)


def test_observed_loglik_sigma2_doubling_tracked_by_oracle():
    ds = simulate_lmm(8, n=10, n_i=3)
    beta = np.array([1.0, -1.0, 0.5])
    for s2 in (0.7, 1.4):
        ref = dense_marginal_loglik(subject_rows(ds), beta, s2, D_UNIT)
        np.testing.assert_allclose(observed_loglik(ds, LmmParams(beta, s2, D_UNIT)),
                                   ref, rtol=1e-10)


# ---------------------------------------------------------------------------
# Full EM fits
# ---------------------------------------------------------------------------


def test_fit_em_unpenalized_matches_direct_ml():
    ds = simulate_lmm(1)
    rep = fit_em(ds, 0.0, ctrl=EmControl(eps=1e-12, max_iter=20000))
    assert rep.converged
    beta_o, s2_o, D_o, ll_o = direct_ml_lmm(subject_rows(ds))
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
    triples = [(y_i, np.zeros((y_i.size, 0)), Z_i) for y_i, _, Z_i in subject_rows(ds)]
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
    lam = 10.0
    init = LmmParams(np.zeros(3), 1.0, np.outer([1.0, 0.5], [1.0, 0.5]))
    rep = fit_em(ds, lam, init=init, ctrl=EmControl(max_iter=40))
    e_step(ds, rep.params)  # passes the public E-step's parameter check
    assert np.linalg.eigvalsh(rep.params.D).min() >= 1e-10
    assert rep.final_loglik == pytest.approx(observed_loglik(ds, rep.params), rel=1e-12)
    last = rep.final_loglik - lam * penalty_value(rep.params.beta)
    assert rep.penalized_loglik_trace[-1] == last
    assert rep.worst_trace_decrease() <= 1e-8


def _e_step_failing_from(monkeypatch, call):
    """Make every e_step from the call-th one on raise NumericalError."""
    step, calls = em_engine.e_step, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) >= call:
            raise NumericalError("injected failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(em_engine, "e_step", failing)


def test_fit_em_names_the_iteration_of_an_e_step_error(monkeypatch):
    ds = simulate_lmm(6, n=10)
    _e_step_failing_from(monkeypatch, 2)
    with pytest.raises(NumericalError) as err:
        fit_em(ds, 0.1)
    assert str(err.value) == "fit_em: iteration 1: injected failure"
    assert str(err.value.__cause__) == "injected failure"


def test_refits_whose_every_e_step_raises_return_one_error_each(monkeypatch):
    # the stack's E-step raises, then each member's rerun does: every member
    # leaves with its own error, and refit_support raises its one
    ds = simulate_lmm(6, n=10)
    _e_step_failing_from(monkeypatch, 2)
    reps = fit_em_supports(ds, [(0,), (0, 1), ()])
    assert [type(rep) for rep in reps] == [NumericalError] * 3
    assert len({id(rep) for rep in reps}) == 3
    assert {str(rep) for rep in reps} == {"fit_em: iteration 1: injected failure"}
    with pytest.raises(NumericalError, match="^injected failure$"):
        refit_support(ds, (0,))


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
    for a, b in ((guarded.b_hat, public.b_hat),
                 (subject_lambda(guarded), subject_lambda(public)),
                 (guarded.y_tilde, public.y_tilde)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("R", [1, 3])
def test_each_iteration_inverts_one_block_per_member_and_forms_one_product_with_X(
        R, monkeypatch):
    # a balanced design: every subject has the same Z'Z, so each E-step
    # inverts one q x q block per member: from its entries, Python floats,
    # for one member, and as one (R, 1, q, q) array for a stack of R; the rows
    # of X are read by the M-step's X beta (the pooled start's for the first
    # E-step) and by an E-step at an extrapolated iterate, and nowhere else
    ds = simulate_lmm(5, n=15, n_i=4)
    assert ds.distinct_ztz.counts.tolist() == [ds.n]
    ds.gram, ds.xty, ds.block_moments  # the cached views, read before X is counted
    reads = []

    class CountedX(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            reads.append(ufunc.__name__)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    ds.X = ds.X.view(CountedX)
    inverted = []
    spd_inv_logdet = em_engine._spd_inv_logdet

    def counted_inverse(K):
        inverted.append(K.shape if isinstance(K, np.ndarray) else (len(K), type(K[0])))
        return spd_inv_logdet(K)

    monkeypatch.setattr(em_engine, "_spd_inv_logdet", counted_inverse)
    k = 6
    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=k)
    if R == 1:
        reps = [fit_em(ds, 5.0, ctrl=ctrl)]
    else:
        reps = fit_em_supports(ds, [(0,), (0, 1), (0, 1, 2)], ctrl=ctrl)
    assert [rep.iterations for rep in reps] == [k] * R
    block = (3, float) if R == 1 else (R, 1, 2, 2)  # q = 2: 3 entries or one 2 x 2 block
    # iterations 3 and 6 close SQUAREM cycles: an E-step at an extrapolated
    # iterate forms its own X beta, and a stack whose members part (some take
    # the extrapolation, some the plain iterate) takes one more E-step
    e_steps, own_xbeta = (k + 1, 1) if R == 1 else (k + 2, 2)
    assert inverted == [block] * e_steps
    assert reads == ["matmul"] * (k + 1 + own_xbeta)


def test_a_warm_start_from_a_report_reuses_its_last_e_step(monkeypatch):
    ds = simulate_lmm(6, n=15, n_i=4)
    first = fit_em(ds, 5.0)
    assert first.moments.ds is ds
    calls = []
    public_e_step = em_engine.e_step
    monkeypatch.setattr(em_engine, "e_step",
                        lambda *a, **kw: calls.append(None) or public_e_step(*a, **kw))
    from_params = fit_em(ds, 2.0, init=first.params)
    cold_calls = len(calls)
    from_report = fit_em(ds, 2.0, init=first)
    # the guard leaves first.params as they are, so its last E-step is the
    # one the fit from its params runs first
    assert np.linalg.eigvalsh(first.params.D).min() > 1e-10
    assert len(calls) - cold_calls == cold_calls - 1
    assert from_report.iterations == from_params.iterations
    assert from_report.penalized_loglik_trace.tolist() == \
        from_params.penalized_loglik_trace.tolist()
    np.testing.assert_array_equal(_fit_vector(from_report), _fit_vector(from_params))
    # a report of a fit on another dataset lends its params only
    other = ds._derive()
    calls.clear()
    fit_em(other, 2.0, init=first)
    assert len(calls) == cold_calls


def test_fit_em_on_noise_free_data_returns_symmetric_D():
    # y = X beta exactly: sigma2 and D collapse onto their floors, so the
    # guard clamps D's eigenvalues on every iteration
    rng = np.random.default_rng(0)
    Z = np.column_stack([np.ones(4), np.arange(1.0, 5.0)])
    rows = []
    for i in range(10):
        X = rng.normal(size=(4, 3))
        rows.append((X @ np.array([1.0, -1.0, 0.5]), X, Z))
    ds = stack_subjects(rows)
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


@pytest.mark.parametrize("max_iter", [2.5, True, "3", None], ids=["float", "bool", "str", "none"])
def test_em_control_refuses_a_max_iter_that_is_not_an_integer(max_iter):
    with pytest.raises(ConfigurationError, match="max_iter"):
        EmControl(max_iter=max_iter)
    assert EmControl(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("name", ["eps", "abs_eps"])
@pytest.mark.parametrize("value", ["1e-6", None, True], ids=["str", "none", "bool"])
def test_em_control_refuses_a_tolerance_that_is_not_a_real_number(name, value):
    with pytest.raises(ConfigurationError, match=name):
        EmControl(**{name: value})
    assert getattr(EmControl(**{name: np.float64(1e-8)}), name) == 1e-8
    assert getattr(EmControl(**{name: 0}), name) == 0


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

# (lam, alpha) pairs; the lasso and elastic-net levels leave the third
# coefficient at zero in the single M-step below
EXACT_PENALTIES = [(0.0, 1.0), (8.0, 0.0), (20.0, 1.0), (40.0, 0.5)]
EXACT_IDS = ["lambda0", "ridge", "lasso", "elastic_net"]
L1_PENALTIES = EXACT_PENALTIES[2:]


def _fit_vector(rep):
    p = rep.params
    return np.concatenate([p.beta, [p.sigma2], p.D.ravel()])


def _count_solve_pls(monkeypatch):
    """Calls through em_engine's binding of the public solve_pls, which the
    benchmark tracer wraps: the engine calls the solver's core directly."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_pls(*args, **kwargs)

    monkeypatch.setattr(em_engine, "solve_pls", counted)
    return calls


@pytest.mark.parametrize("lam, alpha", EXACT_PENALTIES, ids=EXACT_IDS)
def test_exact_m_step_fit_matches_coordinate_descent(lam, alpha, monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    calls = _count_solve_pls(monkeypatch)
    exact = fit_em(ds, lam, alpha, ctrl=FIXED_ITERS)
    assert calls == [] and exact.warnings == []
    cd_calls = []

    def cd_solve_gram(c, l1, shift, warm_start, factor):
        """The beta M-step by coordinate descent, warm-started like _solve_gram,
        on G = X'X, the columns factor gives for all of them."""
        cd_calls.append(None)
        G = factor(np.arange(c.size))[2]
        beta, _ = lasso_by_coordinate_descent_gram(G, c, l1, shift, warm_start)
        return beta, False, 1

    # the reference fit: every beta M-step, the pooled start included, by
    # coordinate descent
    monkeypatch.setattr(em_engine, "_solve_gram", cd_solve_gram)
    cd = fit_em(ds, lam, alpha, ctrl=FIXED_ITERS)
    assert len(cd_calls) == FIXED_ITERS.max_iter + 1
    np.testing.assert_allclose(_fit_vector(exact), _fit_vector(cd), rtol=0, atol=1e-10)
    assert exact.final_loglik == pytest.approx(cd.final_loglik, abs=1e-9)


@pytest.mark.parametrize("lam, alpha", EXACT_PENALTIES, ids=EXACT_IDS)
def test_exact_m_step_without_factor_matches_solve_pls(lam, alpha, monkeypatch):
    ds = simulate_lmm(9, n=12, n_i=3)
    params = LmmParams(np.array([0.4, -0.3, 0.0]), 1.7, D_UNIT)
    mom = e_step(ds, params)
    calls = _count_solve_pls(monkeypatch)
    new = m_step(ds, mom, lam, alpha)
    assert calls == []
    # the M-step and the public solver are one solver, on right-hand sides
    # that differ by rounding: the M-step's X'y - sum_i (Z_i'X_i)' b_hat_i
    # and solve_pls's X'y_tilde
    lam1 = 2.0 * lam * params.sigma2
    ref = solve_pls(ds.X, mom.y_tilde, lam1, alpha, warm_start=params.beta)
    np.testing.assert_array_equal(new.beta == 0.0, ref.beta == 0.0)
    np.testing.assert_allclose(new.beta, ref.beta, rtol=0,
                               atol=1e-13 * np.max(np.abs(ref.beta)))
    assert kkt_check(ds.X, mom.y_tilde, new.beta, lam1, alpha) <= 1e-10


@pytest.mark.parametrize("warm_start", [[0.4, -0.3, 0.2], [0.4, 0.0, 0.0],
                                        [0.4, 0.3, 0.0]],
                         ids=["extra_column", "missing_column", "wrong_sign"])
@pytest.mark.parametrize("lam, alpha", L1_PENALTIES, ids=EXACT_IDS[2:])
def test_exact_m_step_pivots_to_the_optimum(lam, alpha, warm_start, monkeypatch):
    # the E-step of the test above, whose M-step optimum has support {0, 1}:
    # the active-set loop drops the extra column, adds the missing one or
    # flips the wrong sign
    ds = simulate_lmm(9, n=12, n_i=3)
    mom = e_step(ds, LmmParams(np.array([0.4, -0.3, 0.0]), 1.7, D_UNIT))
    params = LmmParams(np.array(warm_start), 1.7, D_UNIT)
    calls = _count_solve_pls(monkeypatch)
    new = m_step(ds, replace(mom, params=params), lam, alpha)
    assert calls == []
    lam1 = 2.0 * lam * params.sigma2
    ref, _ = lasso_best_by_enumeration(ds.X, mom.y_tilde, lam1 * alpha, lam1 * (1.0 - alpha))
    np.testing.assert_allclose(new.beta, ref, rtol=0, atol=1e-12)
    assert kkt_check(ds.X, mom.y_tilde, new.beta, lam1, alpha) <= 1e-10


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


def _solve_beta_on(X, y, lam, alpha, warm_start):
    """The EM's beta M-step on (X, y): _solve_gram on the dataset's X'X, X'y and
    cached factor, given X'y as the M-step gives it X'y_tilde."""
    ds = LongitudinalDataset([0], [y.size], y, X, np.ones((y.size, 1)))
    beta, _, _ = _solve_gram(ds.xty, lam * alpha, lam * (1.0 - alpha), warm_start,
                             ds.gram_factor)
    return beta


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lasso_problems())
def test_solve_beta_matches_enumeration_oracle(problem):
    X, y, lam, warm_start = problem
    beta = _solve_beta_on(X, y, lam, 1.0, warm_start)
    _, best = lasso_best_by_enumeration(X, y, lam)
    resid = y - X @ beta
    objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, beta, lam) <= 1e-7


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lasso_problems(), st.sampled_from([0.2, 0.5, 0.9]))
def test_elastic_net_solve_beta_matches_coordinate_descent_oracle(problem, alpha):
    X, y, lam, warm_start = problem
    beta = _solve_beta_on(X, y, lam, alpha, warm_start)
    ref, converged = lasso_by_coordinate_descent(X, y, lam, alpha, warm_start)
    assert converged
    np.testing.assert_allclose(beta, ref, rtol=0, atol=1e-10)
    assert kkt_check(X, y, beta, lam, alpha) <= 1e-7


@st.composite
def _singular_problems(draw):
    """A design whose columns are linearly dependent, the mixing weight of a
    penalty with an l1 term, its level and a warm start.

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
    lam = draw(st.floats(0.01, 1.2)) * lambda_max(X, y, alpha)
    warm_start = {"zero": np.zeros(p), "full": rng.normal(size=p),
                  "random": rng.normal(size=p) * (rng.uniform(size=p) < 0.5),
                  "near_zero": rng.normal(size=p) * np.append(np.ones(p - 1), 1e-16)}[
        draw(st.sampled_from(["zero", "full", "random", "near_zero"]))]
    return X, y, alpha, lam, warm_start


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_singular_problems())
def test_solve_beta_on_singular_designs_matches_enumeration_oracle(problem):
    # supports whose X_A'X_A is singular are left by null steps
    X, y, alpha, lam, warm_start = problem
    beta = _solve_beta_on(X, y, lam, alpha, warm_start)
    l1, shift = lam * alpha, lam * (1.0 - alpha)
    _, best = lasso_best_by_enumeration(X, y, l1, shift)
    resid = y - X @ beta
    objective = float(resid @ resid) + l1 * float(np.abs(beta).sum()) + shift * float(beta @ beta)
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, beta, lam, alpha) <= 1e-8


@st.composite
def _elastic_net_problems(draw):
    """A small design, the mixing weight of an l2-carrying penalty, its level
    and a warm start.

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
    lam = draw(st.floats(0.01, 1.2)) * lambda_max(X, y)
    warm = draw(st.sampled_from(["optimum_support", "random"]))
    if warm == "optimum_support":
        beta_opt, _ = lasso_best_by_enumeration(X, y, lam * alpha, lam * (1.0 - alpha))
        warm_start = beta_opt * rng.uniform(0.5, 1.5, size=p)
    else:
        warm_start = rng.normal(size=p) * (rng.uniform(size=p) < 0.5)
    return X, y, alpha, lam, warm_start


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_elastic_net_problems())
def test_solve_beta_with_l2_term_matches_enumeration_oracle(problem):
    X, y, alpha, lam, warm_start = problem
    beta = _solve_beta_on(X, y, lam, alpha, warm_start)
    l1, shift = lam * alpha, lam * (1.0 - alpha)
    _, best = lasso_best_by_enumeration(X, y, l1, shift)
    resid = y - X @ beta
    objective = float(resid @ resid) + l1 * float(np.abs(beta).sum()) + shift * float(beta @ beta)
    assert objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert kkt_check(X, y, beta, lam, alpha) <= 1e-7


def _with_duplicate_column(ds):
    return LongitudinalDataset(ds.subject_ids, ds.counts, ds.y,
                               np.column_stack([ds.X, ds.X[:, 0]]), ds.Z)


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
    X = base.X
    ds = LongitudinalDataset(base.subject_ids, base.counts, base.y, np.column_stack(
        [X, X[:, 0] + 1e-7 * np.sin(7.0 * X[:, 1] + X[:, 2])]), base.Z)
    calls = _count_solve_pls(monkeypatch)
    rep = refit_support(ds, (0, 1, 2, 3))
    ref = refit_support(base, (0, 1, 2))
    assert calls == []
    assert rep.converged and rep.warnings == [em_engine._MIN_NORM_NOTE]
    assert rep.final_loglik == pytest.approx(ref.final_loglik, rel=1e-11, abs=0.0)


def test_refit_stack_notes_only_its_singular_member():
    ds = _with_duplicate_column(simulate_lmm(13, n=20, n_i=4))
    supports = [(0, 1), (0, 1, 2, 3), (1, 2)]
    reps = fit_em_supports(ds, supports)
    assert [rep.warnings for rep in reps] == [[], [em_engine._MIN_NORM_NOTE], []]
    for support, rep in zip(supports, reps):
        lone = refit_support(ds, support)
        np.testing.assert_allclose(rep.params.beta, lone.params.beta, rtol=1e-12, atol=0)
        _assert_same_refit(ds, rep, ds, lone, rtol=1e-12)
        assert rep.warnings == lone.warnings
    assert fit_em_supports(ds, []) == []


@pytest.mark.parametrize("refit, supports", [
    ("refit_support", (0, 0)),
    ("refit_support", (1.7,)),
    ("fit_em_supports", [(-1,)]),
    ("fit_em_supports", [(99,)]),
    ("fit_em_supports", [(0, 1), (2, 2)]),
    ("fit_em_supports", [(0,), 3]),
    ("fit_em_supports", [(True,)]),
], ids=["repeated", "float", "negative", "past-p", "repeated-in-second", "not-a-support",
        "bool"])
def test_bad_support_is_refused_before_any_em_iteration(monkeypatch, refit, supports):
    # unchecked, (0, 0) wrote the minimum-norm split of the doubled column
    # into one slot, 1.7 refitted column 1, -1 refitted column p - 1 and 99
    # raised a bare IndexError; True refitted column 1
    ds, _ = generate_scenario(ScenarioConfig.scenario1(seed=1))
    runs = []
    run_em = em_engine._run_em
    monkeypatch.setattr(em_engine, "_run_em", lambda *a, **kw: runs.append(1) or run_em(*a, **kw))
    call = refit_support if refit == "refit_support" else fit_em_supports
    with pytest.raises(ConfigurationError, match="fit_em_supports: support"):
        call(ds, supports)
    assert runs == []


@pytest.mark.parametrize("trace, worst", [
    ([-3.0], 0.0), ([-3.0, -2.0], 0.0), ([-2.0, -3.5, -3.0], 1.5), ([-2.0, np.nan, -3.0], 0.0),
], ids=["one-entry", "ascending", "one-drop", "nan"])
def test_worst_trace_decrease(trace, worst):
    rep = FitReport(LmmParams(np.zeros(1), 1.0, np.eye(1)), len(trace) - 1, True,
                    np.array(trace), trace[-1], 0.0)
    assert rep.worst_trace_decrease() == worst


def test_supports_are_sorted_before_the_fit():
    ds = simulate_lmm(19, n=30, n_i=5)
    shuffled, = fit_em_supports(ds, [np.array([2, 0])])
    ref, = fit_em_supports(ds, [(0, 2)])
    np.testing.assert_array_equal(shuffled.params.beta, ref.params.beta)
    assert shuffled.penalized_loglik_trace.tolist() == ref.penalized_loglik_trace.tolist()


def test_ridge_on_duplicated_column_is_solved_exactly(monkeypatch):
    # X'X is singular, X'X + shift I is not: no M-step drops an eigenpair
    ds = _with_duplicate_column(simulate_lmm(13, n=20, n_i=4))
    calls = _count_solve_pls(monkeypatch)
    rep = fit_em(ds, 0.05, 0.0, lambda_scale="per_obs")
    assert rep.converged
    assert calls == [] and rep.warnings == []


@pytest.mark.parametrize("scale", [1.0, 4.0])
@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["lasso", "elastic_net"])
def test_cold_start_at_or_above_lambda_max_is_solved_exactly(scale, alpha, monkeypatch):
    # the pooled start's zero warm start settles it by the empty-support KKT check
    ds = simulate_lmm(3, n=25, n_i=4)
    lam = scale * lambda_max(ds.X, ds.y, alpha)
    calls = _count_solve_pls(monkeypatch)
    rep = fit_em(ds, lam, alpha)
    assert calls == []
    np.testing.assert_array_equal(rep.params.beta, 0.0)


def test_refit_trace_never_decreases_on_exact_path():
    ds = simulate_lmm(19, n=30, n_i=5)
    for support in ((0,), (0, 2), (0, 1, 2)):
        rep = refit_support(ds, support)
        assert rep.converged and rep.warnings == []
        assert rep.worst_trace_decrease() == 0.0


def _record_factor_requests(monkeypatch):
    """(dataset eighs, requests): the (module, function) of every np.linalg.eigh
    call, and the (dataset, columns, eighs it ran) of every gram_factor request."""
    eigh = np.linalg.eigh
    callers = []

    def counted(a, *args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return eigh(a, *args, **kwargs)

    requests = []  # keeps each dataset alive
    gram_factor = LongitudinalDataset.gram_factor

    def recorded(self, cols):
        before = len(callers)
        out = gram_factor(self, cols)
        requests.append((self, tuple(int(j) for j in cols), len(callers) - before))
        return out

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(LongitudinalDataset, "gram_factor", recorded)
    return callers, requests


def test_sweep_factors_a_support_only_when_it_changes(monkeypatch):
    ds, _ = generate_scenario(ScenarioConfig.scenario3(seed=3))
    callers, requests = _record_factor_requests(monkeypatch)
    sweep(ds, default_grid(), lambda_scale="per_obs")

    # the dataset holds one factor: a request for the columns of the one
    # before it (an M-step whose warm support is the last one factored)
    # runs no eigh, and any other request runs one
    previous = None
    for d, cols, eighs in requests:
        assert d is ds and eighs == (0 if cols == previous else 1)
        previous = cols
    from_dataset = [c for c in callers if c[0] == "lmmlasso.dataset"]
    assert len(requests) > 3 * len(from_dataset)
    # every other eigh in the package is of the q x q covariance D
    assert {f for m, f in callers if m != "lmmlasso.dataset"} <= {
        "_guard_params", "_checked_params"}


def test_sweep_checks_parameters_only_to_score_each_refit(monkeypatch):
    # every grid fit after the first starts from the report of the last one
    # on ds, a guarded iterate, so only the scoring observed_loglik, once
    # per distinct refit support, runs the check
    ds, _ = generate_scenario(ScenarioConfig.scenario1(n=10, n_i=4, seed=1))
    checked = []
    checked_params = em_engine._checked_params

    def counted(params, ds, what, lone=False):
        checked.append(what)
        return checked_params(params, ds, what, lone)

    monkeypatch.setattr(em_engine, "_checked_params", counted)
    path = sweep(ds, default_grid(), lambda_scale="per_obs")
    assert path.errors == [None] * path.grid.size
    supports = {tuple(np.flatnonzero(fit.params.beta)) for fit in path.fits}
    assert len(supports) > 1
    assert checked == ["e_step: params"] * len(supports)


def test_sweep_repeats_no_per_fit_bookkeeping(monkeypatch):
    # counted on a default-grid sweep: each grid fit's report was copied
    # (dataclasses.replace) to drop its moments, ctrl=None built an
    # EmControl in every fit, and every fit scanned Z's columns (ds.zt)
    # for one that is zero in every row
    ds, _ = generate_scenario(ScenarioConfig.scenario1(seed=1))
    reports, controls, zt_reads, m_steps = [], [], [], []

    class CountedReport(FitReport):
        def __init__(self, *args, **kwargs):
            reports.append(None)
            super().__init__(*args, **kwargs)

    class CountedControl(EmControl):
        def __init__(self, *args, **kwargs):
            controls.append(None)
            super().__init__(*args, **kwargs)

    zt = vars(LongitudinalDataset)["zt"]
    m_step_of = em_engine._m_step

    def read_zt(d):
        zt_reads.append(None)
        return zt.__get__(d, LongitudinalDataset)

    def counted_m_step(*args):
        m_steps.append(None)
        return m_step_of(*args)

    monkeypatch.setattr(em_engine, "FitReport", CountedReport)
    monkeypatch.setattr(em_engine, "EmControl", CountedControl)
    monkeypatch.setattr(LongitudinalDataset, "zt", property(read_zt))
    monkeypatch.setattr(em_engine, "_m_step", counted_m_step)
    path = sweep(ds, lambda_scale="per_obs")
    assert path.errors == [None] * 100
    refits = {id(refit) for refit in path.refit_fits}
    assert len(refits) > 1
    # one report per fit: 100 grid fits and one refit per distinct support
    assert len(reports) == 100 + len(refits)
    assert controls == []
    # each M-step reads ds.zt for y_tilde; the design scan reads it once
    assert len(zt_reads) == len(m_steps) + 1


def test_a_design_refusal_belongs_to_its_dataset():
    ds, _ = generate_scenario(ScenarioConfig.scenario1(n=6, n_i=4, seed=1))
    one = ds.subset_subjects([0])
    for _ in range(2):  # refused again from the cached verdict
        with pytest.raises(DataError, match="a fit needs at least 2 subjects; the data have 1"):
            fit_em(one, 0.1)
    zero_slope = ds._derive(Z=np.column_stack([ds.Z[:, 0], np.zeros(ds.N)]))
    for _ in range(2):
        with pytest.raises(DataError, match="random-effect column 'z2' is zero in every row"):
            fit_em_supports(zero_slope, [(0,)])
    # a derived dataset is judged on its own design: a fitted dataset's
    # one-subject subset is refused, a refused one's two-subject resample fits,
    # and standardize keeps the verdict of the design it copies
    assert fit_em(ds, 0.1).iterations > 0
    with pytest.raises(DataError, match="at least 2 subjects"):
        fit_em(ds.subset_subjects([1]), 0.1)
    assert fit_em(one.subset_subjects([0, 0]), 0.1).iterations > 0
    assert fit_em(standardize(ds), 0.1).iterations > 0
    with pytest.raises(DataError, match="'z2' is zero in every row"):
        fit_em(standardize(zero_slope), 0.1)


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


@pytest.mark.parametrize("lam", [0.0, 20.0], ids=["lambda0", "lasso"])
def test_cached_factor_is_checked_for_definiteness_on_every_use(lam, monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    ctrl = EmControl(eps=0.0, abs_eps=0.0, max_iter=20)
    calls = _count_solve_pls(monkeypatch)
    exact = fit_em(ds, lam, ctrl=ctrl)
    assert exact.warnings == [] and calls == []
    if lam == 0.0:
        support = np.flatnonzero(exact.params.beta)
        factor = ds.gram_factor(support)
        # the held factor is reused, with no eigh, but tested for
        # definiteness on every use
        monkeypatch.setattr(penalized_ls, "_GRAM_COND_LIMIT", 1.0)
        _, requests = _record_factor_requests(monkeypatch)
        forced = fit_em(ds, lam, ctrl=ctrl)
        assert len(requests) == ctrl.max_iter + 1
        assert all(eighs == 0 for _, _, eighs in requests)
        assert ds.gram_factor(support) is factor
        notes = sum("not numerically positive definite" in w for w in forced.warnings)
        # every eigenpair dropped: the minimum-norm solution is zero
        assert calls == [] and notes == 1
        np.testing.assert_array_equal(forced.params.beta, 0.0)
    else:
        # the warm start holds column 0 and its copy with opposite signs: the
        # held factor of that support, taken with no new eigh, drops an
        # eigenpair when the first M-step uses it, and the null step moves
        # onto the point without the copy, so the fit follows the one on the
        # design without it
        dup = _with_duplicate_column(ds)
        support = (0, 1, 2, 3)
        assert np.all(exact.params.beta != 0.0)
        assert dup.gram_factor(support)[0].size == len(support)
        init = replace(exact.params, beta=np.append(exact.params.beta + [0.5, 0.0, 0.0], -0.5))
        _, requests = _record_factor_requests(monkeypatch)
        rep = fit_em(dup, lam, init=init, ctrl=ctrl)
        ref = fit_em(ds, lam, init=exact.params, ctrl=ctrl)
        assert requests[0][1:] == (support, 0) and calls == []
        _assert_same_refit(dup, rep, ds, ref, rtol=1e-12)
        assert rep.worst_trace_decrease() <= 1e-8


def test_active_set_pass_cap_raises_and_sweep_records_it(monkeypatch):
    ds = simulate_lmm(3, n=25, n_i=4)
    lmax = lambda_max(ds.X, ds.y)
    assert fit_em(ds, 0.5 * lmax).converged
    # from a zero warm start the loop needs one pass to add a column and
    # another to prove the optimum; at or above lambda_max one pass settles
    # it.  The cap is _MAX_PIVOTS + 2p passes: here 1
    monkeypatch.setattr(penalized_ls, "_MAX_PIVOTS", 1 - 2 * ds.p)
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
    assert np.count_nonzero(rep.params.beta) > penalized_ls._MAX_PIVOTS

import numpy as np
import pytest

from lmmlasso.exceptions import ConfigurationError, DataError
from lmmlasso.penalized_ls import (
    PenaltySpec,
    kkt_check,
    lambda_max,
    solve_pls,
)

from oracles import lasso_best_by_enumeration

# Frozen from the sign-support enumeration oracle on the seeded instance
# built by _oracle_instance() below.
ORACLE_BETA = np.array([1.4679431654801676, -1.7932605289171886, 0.0, 0.0,
                        0.7015721233301645])
ORACLE_OBJ = 15.62143072532841


def _oracle_instance():
    rng = np.random.default_rng(20240517)
    X = rng.normal(size=(20, 5))
    beta_true = np.array([1.5, -2.0, 0.0, 0.0, 0.75])
    y = X @ beta_true + rng.normal(scale=0.5, size=20)
    return X, y


def test_penalty_spec_validation():
    for alpha in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            PenaltySpec(alpha=alpha, lam=1.0)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="lam must be finite"):
            PenaltySpec(alpha=1.0, lam=lam)
    for alpha in (0.0, 1.0):
        with pytest.raises(ConfigurationError, match="elastic_net requires"):
            PenaltySpec.elastic_net(alpha, 1.0)
    assert PenaltySpec.elastic_net(0.3, 2.0) == PenaltySpec(0.3, 2.0)
    assert PenaltySpec.lasso(2.0) == PenaltySpec(1.0, 2.0) == PenaltySpec(lam=2.0)
    assert PenaltySpec.ridge(2.0) == PenaltySpec(0.0, 2.0)


def test_lambda_zero_recovers_ols():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    sol = solve_pls(X, y, PenaltySpec.lasso(0.0))
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(sol.beta, ols, atol=1e-8)
    assert kkt_check(X, y, PenaltySpec.lasso(0.0), sol.beta) <= 1e-8


def test_lambda_at_or_above_lambda_max_gives_exact_zero():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 5))
    X -= X.mean(axis=0)
    y = rng.normal(size=30)
    y -= y.mean()
    lmax = lambda_max(X, y)
    for lam in (lmax, 1.3 * lmax, 10.0 * lmax):
        sol = solve_pls(X, y, PenaltySpec.lasso(lam))
        assert np.all(sol.beta == 0.0)
        assert kkt_check(X, y, PenaltySpec.lasso(lam), sol.beta) == 0.0


def test_matches_signsupport_oracle_frozen_instance():
    X, y = _oracle_instance()
    sol = solve_pls(X, y, PenaltySpec.lasso(3.0))
    np.testing.assert_allclose(sol.beta, ORACLE_BETA, atol=1e-6)
    assert abs(sol.objective - ORACLE_OBJ) <= 1e-8
    assert sol.kkt_residual <= 1e-8
    assert kkt_check(X, y, PenaltySpec.lasso(3.0), sol.beta) <= 1e-8
    # the frozen numbers still reproduce from the live oracle
    beta_ref, obj_ref = lasso_best_by_enumeration(X, y, 3.0)
    np.testing.assert_allclose(beta_ref, ORACLE_BETA, atol=1e-12)
    assert abs(obj_ref - ORACLE_OBJ) <= 1e-10


def test_kkt_residual_of_ols_is_tiny():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    assert kkt_check(X, y, PenaltySpec.lasso(0.0), ols) <= 1e-10


def test_warm_start_matches_cold_start_when_strictly_convex():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 8))
    y = X @ rng.normal(size=8) + rng.normal(size=60)
    pen = PenaltySpec.elastic_net(0.6, 4.0)
    cold = solve_pls(X, y, pen)
    warm = solve_pls(X, y, pen, warm_start=rng.normal(size=8))
    np.testing.assert_allclose(cold.beta, warm.beta, atol=1e-9)


def test_optimal_objective_nondecreasing_in_lambda():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(30, 6))
    y = X @ rng.normal(size=6) + rng.normal(size=30)
    lams = [0.0, 0.5, 2.0, 8.0, 32.0, 128.0]
    objs = [solve_pls(X, y, PenaltySpec.lasso(lam)).objective
            for lam in lams]
    assert np.all(np.diff(objs) >= -1e-10)


def test_scaling_homogeneity_lasso():
    X, y = _oracle_instance()
    base = solve_pls(X, y, PenaltySpec.lasso(3.0))
    for c in (0.5, 2.0, 7.3):
        scaled = solve_pls(X, c * y, PenaltySpec.lasso(3.0 * c))
        np.testing.assert_allclose(scaled.beta, c * base.beta, atol=1e-8)


def test_zero_column_gets_zero_beta():
    # warnings are errors in this suite, so the solve also warns of nothing
    rng = np.random.default_rng(31)
    X = rng.normal(size=(20, 4))
    X[:, 2] = 0.0
    y = rng.normal(size=20)
    sol = solve_pls(X, y, PenaltySpec.lasso(1.0))
    assert sol.beta[2] == 0.0


def test_ridge_closed_form():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    lam = 3.5
    sol = solve_pls(X, y, PenaltySpec.ridge(lam))
    ref = np.linalg.solve(X.T @ X + lam * np.eye(5), X.T @ y)
    np.testing.assert_allclose(sol.beta, ref, atol=1e-9)


@pytest.mark.parametrize("where", ["X", "y", "warm_start"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_a_data_error(where, bad):
    # without the check a NaN in X or y gave beta = 0 as optimal, and a NaN
    # warm start [nan, 0, 0, 0] after one pass
    rng = np.random.default_rng(43)
    args = {"X": rng.normal(size=(20, 4)), "y": rng.normal(size=20),
            "warm_start": rng.normal(size=4)}
    args[where][(0, 1) if where == "X" else 0] = bad
    with pytest.raises(DataError, match=f"solve_pls: {where} holds a NaN or inf"):
        solve_pls(args["X"], args["y"], PenaltySpec.lasso(1.0), warm_start=args["warm_start"])


def test_empty_design_returns_empty_beta():
    y = np.array([1.0, -2.0, 0.5])
    sol = solve_pls(np.zeros((3, 0)), y, PenaltySpec.lasso(1.0))
    assert sol.beta.shape == (0,)
    assert sol.objective == pytest.approx(float(y @ y))

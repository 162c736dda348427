import numpy as np
import pytest

from lmmlasso.dataset import LongitudinalDataset
from lmmlasso.exceptions import ConfigurationError, DataError, NumericalError
from lmmlasso.penalized_ls import _solve_gram, kkt_check, lambda_max, penalty_value, solve_pls

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


def test_penalty_validation():
    X, y = _oracle_instance()
    beta = np.zeros(5)
    for alpha in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            solve_pls(X, y, 1.0, alpha)
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            kkt_check(X, y, beta, 1.0, alpha)
        with pytest.raises(ConfigurationError, match="alpha must be in"):
            penalty_value(beta, alpha)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="lam must be finite"):
            solve_pls(X, y, lam)
        with pytest.raises(ConfigurationError, match="lam must be finite"):
            kkt_check(X, y, beta, lam)


def test_lambda_zero_recovers_ols():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 6))
    y = rng.normal(size=40)
    sol = solve_pls(X, y, 0.0)
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    np.testing.assert_allclose(sol.beta, ols, atol=1e-8)
    assert kkt_check(X, y, sol.beta, 0.0) <= 1e-8


def test_lambda_at_or_above_lambda_max_gives_exact_zero():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 5))
    X -= X.mean(axis=0)
    y = rng.normal(size=30)
    y -= y.mean()
    lmax = lambda_max(X, y)
    for lam in (lmax, 1.3 * lmax, 10.0 * lmax):
        sol = solve_pls(X, y, lam)
        assert np.all(sol.beta == 0.0)
        assert kkt_check(X, y, sol.beta, lam) == 0.0


def test_matches_signsupport_oracle_frozen_instance():
    X, y = _oracle_instance()
    sol = solve_pls(X, y, 3.0)
    np.testing.assert_allclose(sol.beta, ORACLE_BETA, atol=1e-6)
    assert abs(sol.objective - ORACLE_OBJ) <= 1e-8
    assert sol.kkt_residual <= 1e-8
    assert kkt_check(X, y, sol.beta, 3.0) <= 1e-8
    # the frozen numbers still reproduce from the live oracle
    beta_ref, obj_ref = lasso_best_by_enumeration(X, y, 3.0)
    np.testing.assert_allclose(beta_ref, ORACLE_BETA, atol=1e-12)
    assert abs(obj_ref - ORACLE_OBJ) <= 1e-10


def test_kkt_residual_of_ols_is_tiny():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    ols = np.linalg.solve(X.T @ X, X.T @ y)
    assert kkt_check(X, y, ols, 0.0) <= 1e-10


def test_warm_start_matches_cold_start_when_strictly_convex():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 8))
    y = X @ rng.normal(size=8) + rng.normal(size=60)
    cold = solve_pls(X, y, 4.0, 0.6)
    warm = solve_pls(X, y, 4.0, 0.6, warm_start=rng.normal(size=8))
    np.testing.assert_allclose(cold.beta, warm.beta, atol=1e-9)


def test_optimal_objective_nondecreasing_in_lambda():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(30, 6))
    y = X @ rng.normal(size=6) + rng.normal(size=30)
    lams = [0.0, 0.5, 2.0, 8.0, 32.0, 128.0]
    objs = [solve_pls(X, y, lam).objective
            for lam in lams]
    assert np.all(np.diff(objs) >= -1e-10)


def test_scaling_homogeneity_lasso():
    X, y = _oracle_instance()
    base = solve_pls(X, y, 3.0)
    for c in (0.5, 2.0, 7.3):
        scaled = solve_pls(X, c * y, 3.0 * c)
        np.testing.assert_allclose(scaled.beta, c * base.beta, atol=1e-8)


def test_zero_column_gets_zero_beta():
    # warnings are errors in this suite, so the solve also warns of nothing
    rng = np.random.default_rng(31)
    X = rng.normal(size=(20, 4))
    X[:, 2] = 0.0
    y = rng.normal(size=20)
    sol = solve_pls(X, y, 1.0)
    assert sol.beta[2] == 0.0


def test_ridge_closed_form():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(30, 5))
    y = rng.normal(size=30)
    lam = 3.5
    sol = solve_pls(X, y, lam, 0.0)
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
    with pytest.raises(DataError, match=f"solve_pls: {where} must be finite, got a NaN or inf"):
        solve_pls(args["X"], args["y"], 1.0, warm_start=args["warm_start"])


def test_empty_design_returns_empty_beta():
    y = np.array([1.0, -2.0, 0.5])
    sol = solve_pls(np.zeros((3, 0)), y, 1.0)
    assert sol.beta.shape == (0,)
    assert sol.objective == pytest.approx(float(y @ y))


def test_null_step_rounding_allowance_scales_with_the_objectives_terms():
    # column 3 is column 0 + column 1, and the warm start holds it at a
    # rounding-size entry: the first null step, of length 1.9e-16, raised the
    # objective (0.47, from terms of about 5) by 8.9e-16, above an allowance
    # of 8 eps times the objective (8.4e-16), and the solve raised
    # NumericalError
    rng = np.random.default_rng(562962)
    X = rng.normal(size=(7, 3))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = X @ rng.normal(size=4) + rng.normal(size=7)
    warm_start = np.array([1.2423938623236133, -0.1329105905498345, 0.17067359623995088,
                           -6.440637227164273e-17])
    lam = 0.25 * lambda_max(X, y)
    sol = solve_pls(X, y, lam, warm_start=warm_start)
    _, best = lasso_best_by_enumeration(X, y, lam)
    assert sol.objective == pytest.approx(best, rel=1e-9, abs=0.0)
    assert sol.kkt_residual <= 1e-8


@pytest.mark.parametrize("where, message", [
    ("beta-nan", "beta must be finite, got a NaN or inf"),
    ("beta-inf", "beta must be finite, got a NaN or inf"),
    ("X-1d", r"X must have shape \(\*, \*\)"), ("y-column", "y must have shape"),
])
def test_kkt_check_refuses_bad_arrays_as_solve_pls_does(where, message):
    # unchecked: a NaN beta returned nan, an inf one nan with a
    # RuntimeWarning, a 1-d X raised IndexError and a (3, 1) y numpy's
    # ValueError
    rng = np.random.default_rng(47)
    X, y, beta = rng.normal(size=(3, 2)), rng.normal(size=3), np.array([0.5, 0.0])
    if where == "beta-nan":
        beta[0] = np.nan
    elif where == "beta-inf":
        beta[0] = np.inf
    elif where == "X-1d":
        X = X[:, 0]
    else:
        y = y[:, None]
    with pytest.raises(DataError, match=f"^kkt_check: {message}"):
        kkt_check(X, y, beta, 1.0)


def _solved(c, l1, shift, warm_start, factor):
    """_solve_gram's (beta bytes, cut flag, passes), or its NumericalError's text."""
    try:
        beta, cut, passes = _solve_gram(c, l1, shift, warm_start, factor)
    except NumericalError as e:
        return str(e)
    return beta.tobytes(), cut, passes


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("duplicate", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_the_cached_factor_slot_changes_no_solve(seed, duplicate, alpha, monkeypatch):
    # every solve on ds.gram_factor, whose one slot holds (w, V, G[:, A]) of
    # the last support, equals the solve on a factor rebuilt on every call:
    # from random warm starts (wrong signs flip, missing columns pivot in),
    # from each solve's own result (the slot's warm case), and on a design
    # whose last column repeats column 0 (a singular G_AA: cut factors and
    # null steps at alpha 1; shift > 0 at alpha 0.5)
    rng = np.random.default_rng([seed, int(duplicate)])
    n, n_i, p = 10, 4, 7
    X = rng.normal(size=(n * n_i, p))
    if duplicate:
        X[:, -1] = X[:, 0]
    y = X[:, :3] @ np.array([1.5, -2.0, 1.0]) + rng.normal(size=n * n_i)
    ds = LongitudinalDataset(np.arange(n), np.full(n, n_i), y, X, np.ones((n * n_i, 1)))
    G = ds.gram
    eighs = []
    eigh = np.linalg.eigh

    def counted(a):
        eighs.append(a.shape)
        return eigh(a)

    def fresh(cols):
        return (*eigh(G[np.ix_(cols, cols)]), G[:, cols])

    monkeypatch.setattr(np.linalg, "eigh", counted)
    lam_max = float(np.max(np.abs(2.0 * ds.xty)))
    outcomes = []
    for _ in range(12):
        c = ds.xty + rng.normal(scale=0.5, size=p)  # as the EM's right-hand side moves
        lam = lam_max * rng.uniform(0.02, 0.6)
        l1, shift = lam * alpha, lam * (1.0 - alpha)
        support = rng.random(p) < 0.5
        warm = np.where(support, rng.choice([-1.0, 1.0], p) * rng.uniform(0.1, 2.0, p), 0.0)
        for start in (warm, None):  # None: from the last solve's own beta
            if start is None:
                if isinstance(outcomes[-1], str):
                    continue
                start = np.frombuffer(outcomes[-1][0])
            expected = _solved(c, l1, shift, start, fresh)
            assert _solved(c, l1, shift, start, ds.gram_factor) == expected
            outcomes.append(expected)
            if isinstance(expected, str):
                continue
            # a repeat request for the solution's support runs no eigh, and the
            # same solve after the slot moved to another support and back is
            # unchanged
            A = np.frombuffer(expected[0]).nonzero()[0]
            factor = ds.gram_factor(A)
            before = len(eighs)
            assert ds.gram_factor(A.tolist()) is factor and len(eighs) == before
            ds.gram_factor(np.arange(p)[::-1])
            assert _solved(c, l1, shift, start, ds.gram_factor) == expected
    solved = [o for o in outcomes if not isinstance(o, str)]
    assert any(passes > 1 for _, _, passes in solved)  # pivots or sign flips ran
    if duplicate and alpha == 1.0:
        assert any(cut for _, cut, _ in solved)

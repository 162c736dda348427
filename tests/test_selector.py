import numpy as np
import pytest

import lmmlasso.selector as selector_mod
from lmmlasso import em_engine
import lmmlasso.simkit as simkit
from lmmlasso.dataset import LongitudinalDataset, standardize
from lmmlasso.em_engine import EmControl, fit_em, observed_loglik
from lmmlasso.exceptions import ConfigurationError, NumericalError
from lmmlasso.penalized_ls import lambda_max
from lmmlasso.selector import (
    auto_log_grid,
    default_grid,
    refit_support,
    select,
    sweep,
)

from lmmlasso.simkit import ScenarioConfig, kfold_cv, run_monte_carlo

from oracles import dense_marginal_loglik, stack_subjects, subject_rows

D_UNIT = np.array([[1.0, 0.25], [0.25, 1.0]])


def scenario1_like(seed, n=30, n_i=5, p=9):
    """Paper-style design: X ~ N(6,1) centered, Z = [1, 1..n_i], two true effects."""
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    beta[:2] = 1.0
    L = np.linalg.cholesky(D_UNIT)
    X_all = rng.normal(6.0, 1.0, size=(n * n_i, p))
    X_all -= X_all.mean(axis=0)
    rows = []
    for i in range(n):
        X = X_all[i * n_i:(i + 1) * n_i]
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        b = L @ rng.normal(size=2)
        y = X @ beta + Z @ b + rng.normal(size=n_i)
        rows.append((y, X, Z))
    return stack_subjects(rows)


def small_dataset(seed=4, n=8, n_i=3, p=2):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        X = rng.normal(size=(n_i, p))
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        b = 0.5 * rng.normal(size=2)
        y = X @ np.array([1.0, 0.0][:p]) + Z @ b + rng.normal(size=n_i)
        rows.append((y, X, Z))
    return stack_subjects(rows)


def assert_scores_match_dense_oracle(ds, path):
    """Each entry's BIC/AIC equals the dense-covariance loglik at its refit."""
    rows = subject_rows(ds)
    for i, refit in enumerate(path.refit_fits):
        prm = refit.params
        ll = dense_marginal_loglik(rows, prm.beta, prm.sigma2, prm.D)
        assert path.bic[i] == pytest.approx(-2.0 * ll + np.log(ds.n) * path.df[i],
                                            rel=1e-10)
        assert path.aic[i] == pytest.approx(-2.0 * ll + 2.0 * path.df[i], rel=1e-10)


def test_bic_df_counting():
    ds = small_dataset()
    path = sweep(ds, [0.0, 1e6])  # huge raw penalty: all-zero beta
    assert path.nnz.tolist() == [0, 2]
    assert path.df.tolist() == [0 + 3 + 1, 2 + 3 + 1]
    assert_scores_match_dense_oracle(ds, path)


def test_bic_against_dense_loglik_oracle():
    ds = small_dataset(seed=9)
    path = select(ds, [0.0, 5.0, 1e6], ctrl=EmControl(eps=1e-10, max_iter=5000),
                  criterion="aic")
    assert path.df[-1] == ds.p + 3 + 1
    assert len(set(path.nnz.tolist())) == 3
    assert_scores_match_dense_oracle(ds, path)
    assert path.selected_index == int(np.argmin(path.aic))
    assert path.selected_refit is path.refit_fits[path.selected_index]


def test_default_grid_matches_convention():
    g = default_grid()
    assert g.size == 100
    assert g[0] == 0.001 and g[-1] == 0.5
    np.testing.assert_allclose(np.diff(g), (0.5 - 0.001) / 99, atol=1e-15)


def test_auto_log_grid_anchored_at_lambda_max():
    ds = small_dataset(seed=2)
    g = auto_log_grid(ds, num=10, ratio=1e-2)
    assert g.size == 10
    assert g[-1] == pytest.approx(float(np.max(np.abs(2 * ds.X.T @ ds.y))))
    assert g[0] == pytest.approx(g[-1] * 1e-2)


def test_auto_log_grid_anchors_the_elastic_net_at_its_lambda_max():
    # the elastic net zeroes every coefficient only from max_j |2 x_j'y| / alpha
    ds = small_dataset(seed=2)
    g = auto_log_grid(ds, num=10, ratio=1e-2, alpha=0.5)
    assert g[-1] == pytest.approx(float(np.max(np.abs(2 * ds.X.T @ ds.y))) / 0.5)
    assert g[0] == pytest.approx(g[-1] * 1e-2)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 2.0, 0.0, -0.5])
def test_lambda_max_and_auto_log_grid_refuse_an_alpha_outside_0_1(alpha):
    # unchecked, NaN gave a grid of NaNs, inf "no signal" and 2.0 a grid
    # anchored at half the lasso's anchor; the penalty check refuses an
    # alpha outside [0, 1], and lambda_max the ridge's 0 itself
    ds = small_dataset(seed=2)
    message = r"alpha in \(0, 1\]" if alpha == 0.0 else r"alpha must be in \[0, 1\]"
    for call in (lambda: lambda_max(ds.X, ds.y, alpha),
                 lambda: auto_log_grid(ds, num=10, ratio=1e-2, alpha=alpha)):
        with pytest.raises(ConfigurationError, match=message):
            call()


def test_sweep_single_value_grid():
    ds = small_dataset()
    path = sweep(ds, [0.07], lambda_scale="per_obs")
    assert path.grid.size == 1
    assert path.selected_index == 0
    assert path.selected_lambda == 0.07


def test_sweep_accepts_zero_grid_and_selects_full_support():
    ds = small_dataset()
    path = select(ds, [0.0])
    assert path.selected_lambda == 0.0
    assert path.selected_support == (0, 1)
    np.testing.assert_allclose(path.selected_refit.params.beta,
                               path.selected_fit.params.beta, atol=1e-6)


def test_a_design_without_fixed_effects_selects_the_empty_support():
    # at p = 0 the refit pass reshaped its right-hand sides with
    # c.reshape(-1, 0), which numpy refuses with a bare ValueError
    ds = small_dataset(p=0)
    path = select(ds, [0.1, 0.0])
    assert path.errors == [None, None] and path.nnz.tolist() == [0, 0]
    assert path.selected_index == 0  # one support, one score: the larger penalty
    assert path.selected_support == () and path.to_dict()["support"] == []
    direct = fit_em(ds, 0.0)
    np.testing.assert_allclose(path.selected_refit.params.D, direct.params.D, rtol=1e-10)
    assert path.selected_refit.params.sigma2 == pytest.approx(direct.params.sigma2,
                                                              rel=1e-10)
    folds = kfold_cv(ds, 2, grid=[0.1, 0.0])
    assert [f.support for f in folds] == [(), ()]


def test_argmin_prefers_larger_lambda_on_ties(monkeypatch):
    # a failed entry is skipped, and of the tied entries left the earliest,
    # the larger penalty, is selected
    ds = small_dataset(seed=6)
    fit_em_calls = []

    def first_fit_fails(*args, **kwargs):
        fit_em_calls.append(1)
        if len(fit_em_calls) == 1:
            raise NumericalError("forced failure")
        return fit_em(*args, **kwargs)

    monkeypatch.setattr(selector_mod, "fit_em", first_fit_fails)
    path = sweep(ds, [0.2, 0.2, 0.2], lambda_scale="per_obs")
    assert path.errors == ["forced failure", None, None]
    assert path.bic[1] == path.bic[2]
    assert path.selected_index == 1


def test_sweep_tie_break_with_duplicate_grid_values():
    ds = small_dataset(seed=6)
    path = sweep(ds, [0.2, 0.2], lambda_scale="per_obs")
    assert path.bic[0] == path.bic[1]
    assert path.selected_index == 0


def test_warm_and_cold_sweeps_agree():
    ds = scenario1_like(31, n=20, n_i=4)
    grid = np.linspace(0.01, 0.4, 15)
    warm = sweep(ds, grid, lambda_scale="per_obs")
    bic = np.empty(grid.size)
    for i, lam in enumerate(warm.grid):
        cold = fit_em(ds, float(lam), lambda_scale="per_obs")
        support = np.flatnonzero(cold.params.beta)
        np.testing.assert_array_equal(np.flatnonzero(warm.fits[i].params.beta), support)
        refit = refit_support(ds, support)
        df = support.size + 3 + 1
        bic[i] = -2.0 * observed_loglik(ds, refit.params) + np.log(ds.n) * df
    assert warm.selected_index == np.argmin(bic)  # the first minimum


def test_support_empty_at_large_grid_top():
    ds = small_dataset(seed=12)
    # top of the grid far above any achievable threshold
    path = sweep(ds, [1e-4, 10.0], lambda_scale="per_obs")
    assert path.nnz[0] == 0  # grid stored descending


def test_bic_has_interior_minimum_on_scenario1_replicate():
    ds = scenario1_like(7)
    path = sweep(ds, default_grid(40), lambda_scale="per_obs")
    assert 0 < path.selected_index < path.grid.size - 1
    sel = path.selected_fit.params.beta
    assert np.all(sel[:2] != 0.0)
    assert np.count_nonzero(sel[2:]) <= 3


def test_bic_recomputation_is_exact_on_every_path_entry():
    ds = small_dataset(seed=14)
    path = sweep(ds, np.linspace(0.02, 0.3, 8), lambda_scale="per_obs")
    for i, fit in enumerate(path.fits):
        ll = observed_loglik(ds, path.refit_fits[i].params)
        df = int(np.count_nonzero(fit.params.beta)) + 3 + 1
        assert path.bic[i] == -2.0 * ll + np.log(ds.n) * df
        assert path.df[i] == df
        support = set(np.flatnonzero(fit.params.beta).tolist())
        off = [j for j in range(ds.p) if j not in support]
        assert np.all(path.refit_fits[i].params.beta[off] == 0.0)


def test_sweep_records_individual_failures_and_skips_them(monkeypatch):
    ds = small_dataset(seed=3)
    real_fit_em = selector_mod.fit_em

    def flaky(ds_, lam, *args, **kwargs):
        if abs(lam - 0.2) < 1e-12:
            raise NumericalError("synthetic failure")
        return real_fit_em(ds_, lam, *args, **kwargs)

    monkeypatch.setattr(selector_mod, "fit_em", flaky)
    path = sweep(ds, [0.1, 0.2, 0.3], lambda_scale="per_obs")
    assert path.fits[1] is None
    assert "synthetic failure" in path.errors[1]
    assert path.selected_index in (0, 2)


def test_sweep_raises_when_every_fit_fails(monkeypatch):
    ds = small_dataset(seed=3)

    def broken(*args, **kwargs):
        raise NumericalError("no luck")

    monkeypatch.setattr(selector_mod, "fit_em", broken)
    with pytest.raises(NumericalError, match="every fit"):
        sweep(ds, [0.1, 0.2], lambda_scale="per_obs")


def test_sweep_rejects_bad_grids():
    ds = small_dataset()
    with pytest.raises(ConfigurationError):
        sweep(ds, [])
    with pytest.raises(ConfigurationError):
        sweep(ds, [-0.1, 0.2])


def test_sweep_with_elastic_net_alpha():
    ds = small_dataset(seed=8)
    path = sweep(ds, [0.05, 0.15], alpha=0.5, lambda_scale="per_obs")
    assert path.grid.size == 2
    assert np.isfinite(path.bic).all()
    with pytest.raises(ConfigurationError):
        sweep(ds, [0.1], alpha="ridge")


def test_refit_full_support_equals_unpenalized_fit():
    ds = small_dataset(seed=21)
    rep = refit_support(ds, range(ds.p))
    direct = fit_em(ds, 0.0)
    np.testing.assert_allclose(rep.params.beta, direct.params.beta, atol=1e-12)
    assert rep.final_loglik == pytest.approx(direct.final_loglik, abs=1e-9)


def test_refit_empty_support_gives_null_beta():
    ds = small_dataset(seed=22)
    rep = refit_support(ds, ())
    assert rep.params.beta.shape == (ds.p,)
    assert np.all(rep.params.beta == 0.0)
    assert rep.params.sigma2 > 0


def test_refit_true_support_recovers_unit_effects():
    ds = scenario1_like(101)
    rep = refit_support(ds, (0, 1), ctrl=EmControl(eps=1e-10, max_iter=5000))
    # GLS standard errors at the true parameters
    info = np.zeros((2, 2))
    for _, X_i, Z_i in subject_rows(ds):
        V = Z_i @ D_UNIT @ Z_i.T + np.eye(len(Z_i))
        Xs = X_i[:, :2]
        info += Xs.T @ np.linalg.inv(V) @ Xs
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    assert abs(rep.params.beta[0] - 1.0) < 3 * se[0]
    assert abs(rep.params.beta[1] - 1.0) < 3 * se[1]
    assert np.all(rep.params.beta[2:] == 0.0)


def test_selection_reports_its_refit_on_the_original_scale_for_standardized_data():
    raw = scenario1_like(55, n=12, n_i=4, p=3)
    ds = standardize(raw)
    grid = np.linspace(0.02, 0.3, 6)
    path = select(ds, grid, lambda_scale="per_obs")
    rec, refit = ds.standardization, path.selected_refit
    assert path.standardization is rec
    orig = path.to_dict()["refit_original_scale"]
    assert orig == rec.original_scale(refit.params)
    expected = refit.params.beta * rec.y_scale / rec.x_scale
    np.testing.assert_allclose(orig["beta"], expected, atol=1e-12)
    assert orig["sigma2"] == pytest.approx(refit.params.sigma2 * rec.y_scale ** 2)
    # a path on data in their own units has nothing to map back
    path = select(raw, grid, lambda_scale="per_obs")
    assert path.standardization is None
    assert "refit_original_scale" not in path.to_dict()


def test_original_scale_refit_matches_a_fit_on_the_raw_data():
    # X columns and y are centered beforehand, so standardizing only rescales
    # them and the refit mapped back must be the raw data's own ML fit.  Both
    # fits stop on a 1e-12 relative change of the log-likelihood, which pins
    # the parameters only to about its square root, hence the 1e-4 tolerance
    # (a wrong scale factor would be off by O(1)).
    base = scenario1_like(55, n=12, n_i=4, p=3)
    raw = LongitudinalDataset(base.subject_ids, base.counts, base.y - base.y.mean(), base.X,
                              base.Z)
    ctrl = EmControl(eps=1e-12, max_iter=30000)
    support = [0, 2]
    direct = fit_em(raw.select_columns(support), 0.0, ctrl=ctrl)
    std = standardize(raw)
    rep = refit_support(std, support, ctrl=ctrl)
    assert direct.converged and rep.converged
    beta = np.zeros(raw.p)
    beta[support] = direct.params.beta
    orig = std.standardization.original_scale(rep.params)
    np.testing.assert_allclose(orig["beta"], beta, rtol=1e-4, atol=1e-6)
    assert orig["intercept"] == pytest.approx(0.0, abs=1e-12)
    assert orig["sigma2"] == pytest.approx(direct.params.sigma2, rel=1e-4)
    np.testing.assert_allclose(orig["D"], direct.params.D, rtol=1e-4, atol=1e-6)


def test_selection_result_shape_and_serialization():
    ds = small_dataset(seed=33)
    path = select(ds, np.linspace(0.02, 0.3, 6), lambda_scale="per_obs")
    assert set(np.flatnonzero(path.selected_fit.params.beta)) == set(path.selected_support)
    off = [j for j in range(ds.p) if j not in path.selected_support]
    assert np.all(path.selected_refit.params.beta[off] == 0.0)
    d = path.to_dict()
    assert d["selected_lambda"] == path.selected_lambda
    rows = list(path.csv_rows())
    assert len(rows) == 6 and len(rows[0]) == 6


def _monte_carlo(n_jobs):
    return lambda ds, **kw: run_monte_carlo(ScenarioConfig.scenario1(n=6, n_i=3), 2,
                                            n_jobs=n_jobs, **kw)


_SELECTION_RUNS = {"sweep": sweep, "select": select,
                   "kfold_cv": lambda ds, **kw: kfold_cv(ds, 2, **kw),
                   "monte_carlo_1": _monte_carlo(1), "monte_carlo_2": _monte_carlo(2)}
_BAD_SELECTION = {"lambda_scale": dict(lambda_scale="perobs"),
                  "criterion": dict(criterion="bic2"),
                  "empty_grid": dict(grid=[]),
                  "negative_grid": dict(grid=[0.1, -0.1]),
                  "nan_grid": dict(grid=[0.1, np.nan]),
                  "scalar_grid": dict(grid=0.1)}
_BAD_LOG_GRID = {"lambda_scale": dict(lambda_scale="perobs"),
                 "ratio_0": dict(ratio=0.0), "ratio_-1": dict(ratio=-1.0),
                 "ratio_nan": dict(ratio=np.nan), "num_0": dict(num=0),
                 "num_-3": dict(num=-3)}
_BAD_SETTINGS = {f"{name}-{case}": (run, {"grid": [0.1, 0.2], **bad})
                 for name, run in _SELECTION_RUNS.items()
                 for case, bad in _BAD_SELECTION.items()}
# run_monte_carlo always sweeps the lasso, so only these take alpha
_BAD_PENALTY = {"ridge": dict(alpha=0.0), "string": dict(alpha="lasso")}
_BAD_SETTINGS.update({f"{name}-{case}": (_SELECTION_RUNS[name], {"grid": [0.1, 0.2], **bad})
                      for name in ("sweep", "select", "kfold_cv")
                      for case, bad in _BAD_PENALTY.items()})
_BAD_SETTINGS.update({f"auto_log_grid-{case}": (auto_log_grid, bad)
                      for case, bad in _BAD_LOG_GRID.items()})


@pytest.mark.parametrize("case", _BAD_SETTINGS)
def test_bad_selection_setting_fails_before_any_fit(monkeypatch, case):
    run, settings = _BAD_SETTINGS[case]
    started = []

    def no_fit(*args, **kwargs):
        started.append("fit_em")
        raise AssertionError("a fit ran")

    class NoPool:
        def __init__(self, *args, **kwargs):
            started.append("ProcessPoolExecutor")
            raise AssertionError("a worker pool was built")

    monkeypatch.setattr(selector_mod, "fit_em", no_fit)
    monkeypatch.setattr(simkit, "ProcessPoolExecutor", NoPool)
    with pytest.raises(ConfigurationError):
        run(small_dataset(), **settings)
    assert started == []


def _scenario3(seed):
    return simkit.generate_scenario(ScenarioConfig.scenario3(seed=seed))[0]


def _chol_shaped_study(seed, n=200, visits=5):
    """Standardized study of the cholesterol shape of the CLI tests: sex,
    age, time, products with centred age, three decoys; age, time and
    sex x time act."""
    rng = np.random.default_rng(seed)
    t = (2.0 * np.arange(visits) - 5.0) / 10.0
    rows = []
    for i in range(n):
        sex, age = float(rng.integers(0, 2)), rng.uniform(31, 62)
        b = 0.2 * rng.normal(size=2)
        z = rng.normal(size=2)
        age_c = age - 46.5
        X = np.column_stack([np.full(visits, sex), np.full(visits, age), t,
                             np.full(visits, sex * age_c), sex * t, age_c * t,
                             sex * age_c * t, np.full(visits, float(rng.uniform() < 0.5)),
                             np.full(visits, z[0]),
                             np.full(visits, 0.5 * z[0] + np.sqrt(0.75) * z[1])])
        Z = np.column_stack([np.ones(visits), t])
        y = 0.02 * age + 0.3 * t + 0.25 * sex * t + Z @ b + 0.15 * rng.normal(size=visits)
        rows.append((y, X, Z))
    return standardize(stack_subjects(rows), categorical=(0, 7))


def _path_supports(path):
    return [tuple(int(j) for j in np.flatnonzero(f.params.beta)) if f is not None else None
            for f in path.fits]


def _assert_close(actual, expected, what):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    bound = 1e-12 * max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert np.max(np.abs(actual - expected), initial=0.0) <= bound, what


def test_refit_supports_match_restricted_fits():
    # the lock-step EM on the parent dataset against fit_em on the restricted
    # dataset: the same iterations, and floats that differ only in the order
    # of summation; the second ctrl stops every member at the cap
    studies = [_scenario3(seed) for seed in (0, 1, 2)]
    studies.append(_chol_shaped_study(5))
    for ds in studies:
        path = sweep(ds, default_grid(40), lambda_scale="per_obs")
        supports = list(dict.fromkeys(s for s in _path_supports(path) if s is not None))
        supports += [(), tuple(range(ds.p))]
        for ctrl in (None, EmControl(eps=0, abs_eps=0, max_iter=7)):
            reps = selector_mod.fit_em_supports(ds, supports, ctrl=ctrl)
            for support, rep in zip(supports, reps):
                ref = fit_em(ds.select_columns(support), 0.0, ctrl=ctrl)
                assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
                assert rep.penalized_loglik_trace.size == ref.penalized_loglik_trace.size
                beta = np.zeros(ds.p)
                beta[list(support)] = ref.params.beta
                _assert_close(rep.params.beta, beta, "beta")
                _assert_close(rep.params.sigma2, ref.params.sigma2, "sigma2")
                _assert_close(rep.params.D, ref.params.D, "D")
                _assert_close(rep.final_loglik, ref.final_loglik, "final_loglik")
                _assert_close(rep.penalized_loglik_trace, ref.penalized_loglik_trace, "trace")
                rec = ds.standardization
                if rec is None:
                    continue
                beta_orig = beta * rec.y_scale / rec.x_scale
                orig = rec.original_scale(rep.params)
                _assert_close(orig["beta"], beta_orig, "original beta")
                _assert_close(orig["intercept"], rec.y_center - beta_orig @ rec.x_center,
                              "original intercept")
                _assert_close(orig["sigma2"], ref.params.sigma2 * rec.y_scale ** 2,
                              "original sigma2")
                _assert_close(orig["D"], ref.params.D * rec.y_scale ** 2, "original D")


def _fail_in_refits(monkeypatch, target, call, where):
    """Make the lock-step refit of support target raise on its call-th pass
    through where, "_guard_params" or "e_step"; grid fits are untouched."""
    refitting, calls = [], []
    lockstep, step = selector_mod.fit_em_supports, getattr(em_engine, where)

    def flagged(*args, **kwargs):
        refitting.append(True)
        try:
            return lockstep(*args, **kwargs)
        finally:
            refitting.pop()

    def failing(*args, **kwargs):
        beta = (args[0] if where == "_guard_params" else args[1]).beta
        if refitting and any(tuple(np.flatnonzero(b)) == target for b in np.atleast_2d(beta)):
            calls.append(None)
            if len(calls) >= call:
                raise NumericalError("injected failure")
        return step(*args, **kwargs)

    monkeypatch.setattr(selector_mod, "fit_em_supports", flagged)
    monkeypatch.setattr(em_engine, where, failing)


def test_failed_refit_fails_only_its_entries_and_the_warm_starts_go_on(monkeypatch):
    ds = _scenario3(3)
    grid = default_grid(40)
    clean = sweep(ds, grid, lambda_scale="per_obs")
    supports = _path_supports(clean)
    shared = [s for s in dict.fromkeys(supports) if supports.count(s) > 1
              and s != supports[clean.selected_index]]
    target = shared[len(shared) // 2]
    _fail_in_refits(monkeypatch, target, 3, "_guard_params")
    path = sweep(ds, grid, lambda_scale="per_obs")
    hit = [s == target for s in supports]
    assert [e is not None for e in path.errors] == hit
    assert {path.errors[i] for i in np.flatnonzero(hit)} == {
        "fit_em: iteration 2: injected failure"}
    assert path.selected_index == clean.selected_index
    for i, fit in enumerate(path.fits):
        if hit[i]:
            assert fit is None and path.refit_fits[i] is None
            continue
        # the grid fit after a failed entry still starts from that entry's fit
        np.testing.assert_array_equal(fit.params.beta, clean.fits[i].params.beta)
        assert fit.params.sigma2 == clean.fits[i].params.sigma2
        np.testing.assert_array_equal(fit.params.D, clean.fits[i].params.D)
        assert fit.iterations == clean.fits[i].iterations
        # the refits left in the stack are summed in another order
        _assert_close(path.bic[i], clean.bic[i], "bic")
        _assert_close(path.aic[i], clean.aic[i], "aic")
        assert path.refit_fits[i].iterations == clean.refit_fits[i].iterations


def test_refit_supports_isolates_a_failing_e_step(monkeypatch):
    ds = _scenario3(1)
    supports = [(0,), (0, 1, 2), (0, 1, 2, 3, 4), ()]
    clean = selector_mod.fit_em_supports(ds, supports)
    _fail_in_refits(monkeypatch, (0, 1, 2), 4, "e_step")
    reps = selector_mod.fit_em_supports(ds, supports)
    assert isinstance(reps[1], NumericalError)
    assert str(reps[1]) == "fit_em: iteration 3: injected failure"
    for k in (0, 2, 3):
        assert reps[k].iterations == clean[k].iterations
        _assert_close(reps[k].params.beta, clean[k].params.beta, "beta")
        _assert_close(reps[k].final_loglik, clean[k].final_loglik, "final_loglik")


def test_a_path_keeps_no_e_step_moments():
    # each refit held its last E-step (b_hat, the Lambda blocks and the
    # dataset) while the grid fits held none
    path = sweep(_scenario3(1), default_grid(20), lambda_scale="per_obs")
    assert all(e is None for e in path.errors)
    assert [f.moments for f in path.fits + path.refit_fits] == [None] * 40


@pytest.mark.parametrize("seed", [0, 1])
def test_a_grid_fit_from_the_previous_e_step_equals_one_from_its_params(seed):
    # reusing the previous fit's last E-step saves one E-step and changes nothing
    ds = _scenario3(seed)
    path = sweep(ds, default_grid(20), lambda_scale="per_obs")
    for i in range(1, path.grid.size):
        fit = fit_em(ds, float(path.grid[i]), init=path.fits[i - 1].params,
                     lambda_scale="per_obs")
        assert fit.iterations == path.fits[i].iterations
        assert fit.params.beta.tobytes() == path.fits[i].params.beta.tobytes()
        assert fit.penalized_loglik_trace.tobytes() == \
            path.fits[i].penalized_loglik_trace.tobytes()


def test_scenario3_sweep_runs_no_coordinate_descent(monkeypatch):
    # a work-count guard: every beta M-step of a full-rank design, the pooled
    # start included, calls the solver's core directly, not the public
    # solve_pls that the benchmark tracer wraps (38 calls here when a
    # rejected warm support went to coordinate descent)
    ds = _scenario3(3)
    assert (ds.n, ds.N, ds.p) == (30, 150, 50)
    calls = []
    solve_pls = em_engine.solve_pls

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_pls(*args, **kwargs)

    monkeypatch.setattr(em_engine, "solve_pls", counted)
    path = sweep(ds, default_grid(), lambda_scale="per_obs")
    assert all(e is None for e in path.errors)
    assert calls == []

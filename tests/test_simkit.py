from dataclasses import replace

import numpy as np
import pytest

import lmmlasso.selector as selector_mod
import lmmlasso.simkit as simkit
from lmmlasso.exceptions import ConfigurationError
from lmmlasso.simkit import (
    D_HIGH,
    D_LOW,
    ScenarioConfig,
    generate_scenario,
    kfold_cv,
    run_monte_carlo,
    write_cv_csv,
    write_mc_detail_csv,
    write_mc_summary_csv,
)

TINY_GRID = np.array([0.02, 0.06, 0.1, 0.2])


def test_scenario_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig.scenario3(p=50, p_star=60)
    with pytest.raises(ConfigurationError):
        ScenarioConfig.scenario1(D_true=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(ConfigurationError):
        ScenarioConfig(scenario=4, n=10, n_i=5, p=9, p_star=2, D_true=D_LOW,
                       sigma2_true=1.0, covariate_mean=6.0, seed=0)


@pytest.mark.parametrize("field, value", [
    ("sigma2_true", np.nan), ("sigma2_true", np.inf), ("covariate_mean", np.nan),
    ("D_true", np.array([[1.0, np.nan], [np.nan, 1.0]])), ("D_true", np.diag([np.inf, 1.0])),
    ("beta_true", np.r_[np.nan, np.zeros(8)]),
], ids=["sigma2_nan", "sigma2_inf", "mean_nan", "D_nan", "D_inf", "beta_nan"])
def test_scenario_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        ScenarioConfig.scenario1(n=10, n_i=4, **{field: value})


def test_scenario1_shapes_and_design():
    cfg = ScenarioConfig.scenario1(n=30, n_i=5, seed=1)
    np.testing.assert_array_equal(cfg.D_true, [[1.0, 0.25], [0.25, 1.0]])
    np.testing.assert_array_equal(cfg.beta_true, [1, 1, 0, 0, 0, 0, 0, 0, 0])
    ds, truth = generate_scenario(cfg)
    assert (ds.n, ds.N, ds.p, ds.q) == (30, 150, 9, 2)
    blk = ds.blocks[3]
    np.testing.assert_array_equal(blk.Z[:, 0], np.ones(5))
    np.testing.assert_array_equal(blk.Z[:, 1], [1, 2, 3, 4, 5])
    np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.y.mean(), 0.0, atol=1e-12)
    assert truth["beta_true"] is not cfg.beta_true


def test_scenario3_high_variance_matrix():
    cfg = ScenarioConfig.scenario3(n=10, n_i=5, p=50, p_star=5, D_true=D_HIGH, seed=2)
    np.testing.assert_array_equal(cfg.D_true, [[9.0, 4.8], [4.8, 4.0]])
    ds, _ = generate_scenario(cfg)
    assert ds.p == 50
    assert np.count_nonzero(cfg.beta_true) == 5


def test_scenario2_bernoulli_column_left_alone():
    cfg = ScenarioConfig.scenario2(n=40, n_i=5, seed=3)
    ds, _ = generate_scenario(cfg)
    col0 = ds.X[:, 0]
    assert set(np.unique(col0)) == {0.0, 1.0}
    np.testing.assert_allclose(ds.X[:, 1:].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.X[:, 1:].std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_degenerate_noiseless_generator():
    cfg = ScenarioConfig.scenario1(n=5, n_i=4, seed=4, sigma2_true=0.0,
                                   D_true=np.zeros((2, 2)),
                                   beta_true=np.zeros(9))
    ds, truth = generate_scenario(cfg)
    np.testing.assert_array_equal(ds.y, np.zeros(20))
    np.testing.assert_array_equal(truth["b"], np.zeros((5, 2)))


def test_generator_moments_match_targets():
    cfg = ScenarioConfig.scenario1(n=20000, n_i=5, seed=5, p=2)
    ds, truth = generate_scenario(cfg)
    N = ds.N
    se_mean = 1.0 / np.sqrt(N)
    assert np.all(np.abs(truth["x_center"] - 6.0) < 3 * se_mean)
    # centered columns keep the unit variance of the generator
    se_var = np.sqrt(2.0 / N)
    assert np.all(np.abs(ds.X.var(axis=0, ddof=1) - 1.0) < 3 * se_var)
    # sample covariance of the drawn random effects tracks D_true
    b = truth["b"]
    cov = np.cov(b.T)
    n = cfg.n
    for i in range(2):
        for j in range(2):
            se = np.sqrt((D_LOW[i, i] * D_LOW[j, j] + D_LOW[i, j] ** 2) / n)
            assert abs(cov[i, j] - D_LOW[i, j]) < 3 * se


def test_seeded_determinism_of_datasets_and_summaries():
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=7)
    ds1, _ = generate_scenario(cfg)
    ds2, _ = generate_scenario(cfg)
    np.testing.assert_array_equal(ds1.X, ds2.X)
    np.testing.assert_array_equal(ds1.y, ds2.y)
    s1 = run_monte_carlo(cfg, 3, grid=TINY_GRID)
    s2 = run_monte_carlo(cfg, 3, grid=TINY_GRID)
    np.testing.assert_array_equal(s1.zero_proportion, s2.zero_proportion)
    assert s1.rmse == s2.rmse
    for a, b in zip(s1.detail, s2.detail):
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
        assert a.selected_lambda == b.selected_lambda


def test_parallel_and_serial_runs_are_identical():
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=11)
    serial = run_monte_carlo(cfg, 4, grid=TINY_GRID, n_jobs=1)
    parallel = run_monte_carlo(cfg, 4, grid=TINY_GRID, n_jobs=2)
    np.testing.assert_array_equal(serial.zero_proportion, parallel.zero_proportion)
    assert serial.rmse == parallel.rmse
    for a, b in zip(serial.detail, parallel.detail):
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)


def test_null_truth_flags_sensitivity_and_keeps_specificity():
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=13, p_star=0)
    s = run_monte_carlo(cfg, 2, grid=np.array([0.5]))
    assert s.sensitivity is None
    assert s.specificity == 1.0
    assert np.all(s.zero_proportion == 1.0)


def test_grid_zero_gives_full_sensitivity():
    cfg = ScenarioConfig.scenario1(n=12, n_i=4, seed=17)
    s = run_monte_carlo(cfg, 2, grid=np.array([0.0]))
    assert s.sensitivity == 1.0
    assert s.specificity == 0.0  # unpenalized fit keeps every column


def test_monte_carlo_summary_fields_in_range():
    cfg = ScenarioConfig.scenario1(n=12, n_i=4, seed=19)
    s = run_monte_carlo(cfg, 3, grid=TINY_GRID)
    assert np.all((0 <= s.zero_proportion) & (s.zero_proportion <= 1))
    assert 0 <= s.sensitivity <= 1 and 0 <= s.specificity <= 1
    assert s.failures == 0 and s.replicates == 3
    assert s.monotonicity_violations == 0


def _toy_ds(n=5, n_i=3, seed=23):
    cfg = ScenarioConfig.scenario1(n=n, n_i=n_i, seed=seed, p=3,
                                   beta_true=np.array([1.0, 1.0, 0.0]))
    return generate_scenario(cfg)[0]


def test_kfold_leave_one_subject_out():
    ds = _toy_ds()
    res = kfold_cv(ds, k=5, grid=TINY_GRID, seed=1)
    assert len(res) == 5
    seen = [s for r in res for s in r.test_subjects]
    assert sorted(seen) == list(range(5))
    assert all(len(r.test_subjects) == 1 for r in res)


def test_kfold_partition_is_exact():
    ds = _toy_ds(n=11)
    res = kfold_cv(ds, k=4, grid=TINY_GRID, seed=2)
    seen = [s for r in res for s in r.test_subjects]
    assert len(seen) == 11 and len(set(seen)) == 11


def test_kfold_rejects_bad_k():
    ds = _toy_ds(n=5)
    with pytest.raises(ConfigurationError):
        kfold_cv(ds, k=6, grid=TINY_GRID)
    with pytest.raises(ConfigurationError):
        kfold_cv(ds, k=1, grid=TINY_GRID)


def test_kfold_noiseless_data_predicts_exactly():
    cfg = ScenarioConfig.scenario1(n=8, n_i=4, seed=29, p=3, p_star=3,
                                   sigma2_true=0.0, D_true=np.zeros((2, 2)),
                                   beta_true=np.array([1.0, -0.5, 0.25]))
    ds, _ = generate_scenario(cfg)
    res = kfold_cv(ds, k=4, grid=np.array([0.0, 0.01, 0.1]), seed=3)
    assert max(r.mse_per_obs for r in res) < 1e-8


def test_kfold_selector_beats_null_baseline():
    # scenario-3 style shrunk down; the baseline predicts zero everywhere
    cfg = ScenarioConfig.scenario3(n=12, n_i=4, p=12, p_star=3, seed=31)
    ds, _ = generate_scenario(cfg)
    res = kfold_cv(ds, k=3, grid=TINY_GRID, seed=4)
    null_sse = {}
    for r in res:
        ids = set(r.test_subjects)
        null_sse[r.fold] = sum(float(b.y @ b.y) for b in ds.blocks
                               if b.subject_id in ids)
    assert np.mean([r.sse for r in res]) < np.mean(list(null_sse.values()))


def test_csv_writers_round_trip(tmp_path):
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=37)
    s = run_monte_carlo(cfg, 2, grid=TINY_GRID)
    summary_path = tmp_path / "summary.csv"
    write_mc_summary_csv(s, cfg, summary_path)
    lines = summary_path.read_text().strip().split("\n")
    assert lines[0] == "quantity,value"
    quantities = [ln.split(",")[0] for ln in lines[1:]]
    assert quantities.count("rmse") == 1
    assert sum(q.startswith("zero_proportion_beta") for q in quantities) == cfg.p
    rmse_cell = dict(ln.split(",") for ln in lines[1:])["rmse"]
    assert float(rmse_cell) == s.rmse  # 17 significant digits round-trips

    detail_path = tmp_path / "detail.csv"
    write_mc_detail_csv(s, detail_path)
    assert len(detail_path.read_text().strip().split("\n")) == 3

    ds = _toy_ds()
    cv_path = tmp_path / "cv.csv"
    write_cv_csv(kfold_cv(ds, k=5, grid=TINY_GRID, seed=5), cv_path)
    assert len(cv_path.read_text().strip().split("\n")) == 6


def test_worker_count_is_capped_at_the_replicate_count(monkeypatch):
    started = []

    class InlinePool:
        """Records the worker count asked for and runs the tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(simkit, "ProcessPoolExecutor", InlinePool)
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=11)
    capped = run_monte_carlo(cfg, 2, grid=TINY_GRID, n_jobs=64)
    assert started == [2]
    serial = run_monte_carlo(cfg, 2, grid=TINY_GRID, n_jobs=1)
    assert started == [2]  # the serial run starts no pool
    np.testing.assert_array_equal(capped.zero_proportion, serial.zero_proportion)
    assert capped.rmse == serial.rmse
    run_monte_carlo(cfg, 1, grid=TINY_GRID, n_jobs=8)
    assert started == [2]  # one replicate runs in this process


@pytest.mark.parametrize("n_jobs", [0, -3])
def test_non_positive_worker_count_is_rejected(n_jobs):
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=11)
    with pytest.raises(ConfigurationError, match="n_jobs"):
        run_monte_carlo(cfg, 2, grid=TINY_GRID, n_jobs=n_jobs)


@pytest.mark.parametrize("n_i", [1, 0])
def test_scenario_config_rejects_fewer_than_two_time_points(n_i):
    # Z = [1, time] has rank 1 when every subject has one time point
    with pytest.raises(ConfigurationError, match="n_i >= 2"):
        ScenarioConfig.scenario1(n=10, n_i=n_i)


@pytest.mark.parametrize("scenario", sorted(simkit.SCENARIO_DESIGNS))
def test_scenario_aliases_take_the_design_table_defaults(scenario):
    cfg = getattr(ScenarioConfig, f"scenario{scenario}")(seed=3)
    assert repr(cfg) == repr(ScenarioConfig(scenario, seed=3))
    assert (cfg.scenario, cfg.p, cfg.p_star) == (scenario, *simkit.SCENARIO_DESIGNS[scenario])
    assert (cfg.n, cfg.n_i, cfg.sigma2_true, cfg.covariate_mean) == (30, 5, 1.0, 6.0)
    np.testing.assert_array_equal(cfg.D_true, simkit.D_PRESETS["low"])
    assert not cfg.D_true.flags.writeable


def test_ascent_count_counts_each_shared_refit_once(monkeypatch):
    refits = []
    refit_supports = selector_mod.refit_supports

    def decreasing_refits(ds, supports, ctrl=None):
        reps = [replace(rep, penalized_loglik_trace=np.array([0.0, -1.0]))
                for rep in refit_supports(ds, supports, ctrl=ctrl)]
        refits.extend(reps)
        return reps

    monkeypatch.setattr(selector_mod, "refit_supports", decreasing_refits)
    grid = np.linspace(0.01, 0.5, 10)
    cfg = ScenarioConfig.scenario1(n=10, n_i=4, seed=11)
    summary = run_monte_carlo(cfg, 1, grid=grid)
    assert 0 < len(refits) < grid.size  # some entries share a refit
    assert summary.monotonicity_violations == len(refits)
    assert summary.worst_trace_decrease == 1.0

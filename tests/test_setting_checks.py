"""Every integer and real-number setting the library takes is checked by
exceptions._checked_int or exceptions._checked_real: a value of the wrong
kind or out of range is a ConfigurationError naming the setting."""

import numpy as np
import pytest

from lmmlasso.dataset import remove_linear_combos, standardize
from lmmlasso.em_engine import EmControl, fit_em, fit_em_supports
from lmmlasso.exceptions import ConfigurationError
from lmmlasso.penalized_ls import PenaltySpec
from lmmlasso.selector import auto_log_grid, default_grid
from lmmlasso.simkit import ScenarioConfig, generate_scenario, kfold_cv, run_monte_carlo

GRID = np.array([0.1])


@pytest.fixture(scope="module")
def ds():
    return generate_scenario(ScenarioConfig.scenario1(n=6, n_i=4, seed=1))[0]


# setting: (call on a value and the dataset (p = 9, n = 6), the name its error
# must match, a value out of range)
INTEGER_SETTINGS = {
    "categorical": (lambda v, ds: standardize(ds, categorical=[v]), "categorical column index", 9),
    "subset_subjects": (lambda v, ds: ds.subset_subjects([v]), "subject index", 6),
    "support": (lambda v, ds: fit_em_supports(ds, [(v,)]), "fit_em_supports: support", 9),
    "max_iter": (lambda v, ds: EmControl(max_iter=v), "max_iter", 0),
    "scenario": (lambda v, ds: ScenarioConfig(v), "^scenario", 4),
    "n": (lambda v, ds: ScenarioConfig.scenario1(n=v), r"^n\b", 0),
    "n_i": (lambda v, ds: ScenarioConfig.scenario1(n_i=v), "^n_i", 1),
    "p": (lambda v, ds: ScenarioConfig.scenario1(p=v, p_star=0), r"^p\b", 0),
    "p_star": (lambda v, ds: ScenarioConfig.scenario1(p_star=v), "^p_star", 10),
    "seed": (lambda v, ds: ScenarioConfig.scenario1(seed=v), "^seed", -1),
    "replicates": (lambda v, ds: run_monte_carlo(ScenarioConfig.scenario1(n=6, n_i=4), v,
                                                 grid=GRID), "replicates", 0),
    "n_jobs": (lambda v, ds: run_monte_carlo(ScenarioConfig.scenario1(n=6, n_i=4), 1,
                                             grid=GRID, n_jobs=v), "n_jobs", 0),
    "k": (lambda v, ds: kfold_cv(ds, v, grid=GRID), r"kfold_cv: k\b", 7),
    "kfold_seed": (lambda v, ds: kfold_cv(ds, 2, grid=GRID, seed=v), "kfold_cv: seed", -1),
    "default_grid_num": (lambda v, ds: default_grid(v), "grid length", 0),
    "auto_log_grid_num": (lambda v, ds: auto_log_grid(ds, num=v), "auto_log_grid: num", 0),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "out-of-range"])
@pytest.mark.parametrize("setting", list(INTEGER_SETTINGS))
def test_integer_setting_refuses_a_value_that_is_not_a_valid_integer(ds, setting, kind):
    # unchecked: k=2.5 ran 2 folds, n_jobs=1.5 ran, ScenarioConfig(True) ran
    # as scenario 1, True as a support index refitted column 1, p_star=1.5
    # and num="3" raised bare TypeErrors and a negative seed numpy's ValueError
    call, name, out_of_range = INTEGER_SETTINGS[setting]
    value = {"float": 2.5, "bool": True, "str": "3", "out-of-range": out_of_range}[kind]
    with pytest.raises(ConfigurationError, match=name):
        call(value, ds)


def test_integer_settings_take_numpy_integers():
    cfg = ScenarioConfig(np.int64(3), n=np.int64(6), n_i=np.int64(4), p=np.int64(7),
                         p_star=np.int64(2), seed=np.int64(5))
    assert repr(cfg) == repr(ScenarioConfig(3, n=6, n_i=4, p=7, p_star=2, seed=5))
    assert all(type(v) is int for v in (cfg.scenario, cfg.n, cfg.n_i, cfg.p, cfg.p_star,
                                        cfg.seed))
    assert default_grid(np.int64(3)).tolist() == default_grid(3).tolist()


# setting: (call on a value and the dataset, the name its error must match)
REAL_SETTINGS = {
    "alpha": (lambda v, ds: PenaltySpec(v, 1.0), "alpha"),
    "lam": (lambda v, ds: PenaltySpec(1.0, v), "lam"),
    "fit_em_lam": (lambda v, ds: fit_em(ds, v), "lam"),
    "ratio": (lambda v, ds: auto_log_grid(ds, ratio=v), "ratio"),
    "rank_tol": (lambda v, ds: remove_linear_combos(ds, rank_tol=v), "rank_tol"),
}


@pytest.mark.parametrize("value", ["0.1", True, None], ids=["str", "bool", "none"])
@pytest.mark.parametrize("setting", list(REAL_SETTINGS))
def test_real_setting_refuses_a_value_that_is_not_a_real_number(ds, setting, value):
    # unchecked: "0.1" and None raised bare TypeErrors, fit_em(ds, True)
    # fitted at lam 1.0 and rank_tol=True dropped every column
    call, name = REAL_SETTINGS[setting]
    with pytest.raises(ConfigurationError, match=name):
        call(value, ds)


def test_real_settings_take_integers_and_numpy_floats(ds):
    assert PenaltySpec(1, 0) == PenaltySpec(1.0, 0.0)
    assert PenaltySpec(np.float64(0.5), np.float64(2.0)).lam == 2.0
    assert remove_linear_combos(ds, rank_tol=np.float64(1e-7))[1].dropped == ()
    np.testing.assert_array_equal(auto_log_grid(ds, num=3, ratio=np.float64(0.01)),
                                  auto_log_grid(ds, num=3, ratio=0.01))

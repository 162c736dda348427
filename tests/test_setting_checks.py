"""Every integer and real-number setting the library takes is checked by
exceptions._checked_int or exceptions._checked_real: a value of the wrong
kind or out of range is a ConfigurationError naming the setting."""

import numpy as np
import pytest

from lmmlasso.cli import _config_value
from lmmlasso.dataset import (ColumnRoles, LongitudinalDataset, StandardizationRecord,
                              ingest_long_csv, remove_linear_combos, standardize)
from dataclasses import replace

from lmmlasso.em_engine import (EmControl, LmmParams, e_step, fit_em, fit_em_supports, m_step,
                                observed_loglik)
from lmmlasso.exceptions import ConfigurationError, DataError
from lmmlasso.penalized_ls import effective_lambda, kkt_check, lambda_max, penalty_value, solve_pls
from lmmlasso.selector import auto_log_grid, default_grid, refit_support, select, sweep
from lmmlasso.simkit import ScenarioConfig, generate_scenario, kfold_cv, run_monte_carlo

GRID = np.array([0.1])
BETA = np.zeros(9)
START = LmmParams(np.zeros(9), 1.0, np.eye(2))  # p = 9, q = 2, as the dataset


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
    "solve_pls_lam": (lambda v, ds: solve_pls(ds.X, ds.y, v), "lam"),
    "kkt_check_lam": (lambda v, ds: kkt_check(ds.X, ds.y, BETA, v), "lam"),
    "fit_em_lam": (lambda v, ds: fit_em(ds, v), "lam"),
    "ratio": (lambda v, ds: auto_log_grid(ds, ratio=v), "ratio"),
    "rank_tol": (lambda v, ds: remove_linear_combos(ds, rank_tol=v), "rank_tol"),
    "solve_pls_alpha": (lambda v, ds: solve_pls(ds.X, ds.y, 1.0, v), "alpha"),
    "kkt_check_alpha": (lambda v, ds: kkt_check(ds.X, ds.y, BETA, 1.0, v), "alpha"),
    "penalty_value_alpha": (lambda v, ds: penalty_value(BETA, v), "alpha"),
    "lambda_max_alpha": (lambda v, ds: lambda_max(ds.X, ds.y, v), "alpha"),
    "fit_em_alpha": (lambda v, ds: fit_em(ds, 0.1, v), "alpha"),
    "m_step_alpha": (lambda v, ds: m_step(ds, e_step(ds, START), 0.1, v), "alpha"),
    "sweep_alpha": (lambda v, ds: sweep(ds, GRID, v), "alpha"),
    "select_alpha": (lambda v, ds: select(ds, GRID, v), "alpha"),
    "kfold_cv_alpha": (lambda v, ds: kfold_cv(ds, 2, GRID, v), "alpha"),
    "sweep_grid": (lambda v, ds: sweep(ds, [v]), "grid entry"),
    "select_grid": (lambda v, ds: select(ds, [0.2, v]), "grid entry"),
    "kfold_cv_grid": (lambda v, ds: kfold_cv(ds, 2, [v]), "grid entry"),
    "run_monte_carlo_grid": (lambda v, ds: run_monte_carlo(
        ScenarioConfig.scenario1(n=6, n_i=4), 1, grid=[v]), "grid entry"),
    "sigma2_true": (lambda v, ds: ScenarioConfig.scenario1(sigma2_true=v), "sigma2_true"),
    "covariate_mean": (lambda v, ds: ScenarioConfig.scenario1(covariate_mean=v),
                       "covariate_mean"),
    "eps": (lambda v, ds: EmControl(eps=v), "EmControl: eps"),
    "abs_eps": (lambda v, ds: EmControl(abs_eps=v), "EmControl: abs_eps"),
    "default_grid_low": (lambda v, ds: default_grid(5, v, 0.5), "default_grid: low"),
    "default_grid_high": (lambda v, ds: default_grid(5, 0.1, v), "default_grid: high"),
    "effective_lambda_lam": (lambda v, ds: effective_lambda(v, "raw", ds.N), "lam"),
    "config_grid_entry": (lambda v, ds: _config_value("grid", [v]),
                          "config key 'grid': a list entry"),
}


@pytest.mark.parametrize("value", ["0.1", True, None, 10**400, float("nan")],
                         ids=["str", "bool", "none", "huge-int", "nan"])
@pytest.mark.parametrize("setting", list(REAL_SETTINGS))
def test_real_setting_refuses_a_value_that_is_not_a_real_number(ds, setting, value):
    # unchecked: "0.1" and None raised bare TypeErrors, fit_em(ds, True)
    # fitted at lam 1.0 and rank_tol=True dropped every column; a grid
    # entry "0.1" or True ran at 0.1 or 1.0, sigma2_true=True ran at 1.0,
    # and an alpha of None fitted the lasso.  Tested by each caller apart,
    # 10**400 raised bare OverflowErrors (lam, a grid entry, ratio,
    # rank_tol) and TypeErrors (sigma2_true, covariate_mean), and
    # EmControl(eps=10**400) stopped every fit at its first iteration
    call, name = REAL_SETTINGS[setting]
    with pytest.raises(ConfigurationError, match=name):
        call(value, ds)


@pytest.mark.parametrize("field, value", [
    ("D_true", "low"), ("D_true", [[True, False], [False, True]]),
    ("beta_true", ["1"] * 9), ("beta_true", [True] * 9),
], ids=["D_true-str", "D_true-bool", "beta_true-str", "beta_true-bool"])
def test_array_setting_refuses_entries_that_are_not_real_numbers(field, value):
    # unchecked: D_true="low" raised a bare ValueError, and string and bool
    # entries were cast to floats
    with pytest.raises(ConfigurationError, match=f"^{field} must hold real numbers"):
        ScenarioConfig.scenario1(**{field: value})


def _with_y(ds, y):
    return LongitudinalDataset(ds.subject_ids, ds.counts, y, ds.X, ds.Z)


def _zero_slope(ds):
    """ds with its random slope column z2 zero in every row."""
    return ds._derive(Z=np.column_stack([ds.Z[:, 0], np.zeros(ds.N)]))


_ZERO_SLOPE = "random-effect column 'z2' is zero in every row"


def _one_row_each(ds):
    """ds's rows, each as a subject of its own."""
    return LongitudinalDataset(np.arange(ds.N), np.ones(ds.N, dtype=int), ds.y, ds.X, ds.Z)


_ONE_SUBJECT = "a fit needs at least 2 subjects; the data have 1"
_ONE_ROW_EACH = "a fit needs more rows than subjects; the data have 24 rows for 24 subjects"
_RAW_OVERFLOW = "raw penalty level lam * 2 * n_obs must be finite and >= 0, got inf"


# argument: (call on the dataset, its ConfigurationError's message)
WRONG_TYPES = {
    "fit_em-init-array": (lambda ds: fit_em(ds, 0.1, init=np.zeros(9)),
                          "fit_em: init must be an LmmParams or a FitReport, got ndarray"),
    "fit_em-init-dict": (lambda ds: fit_em(ds, 0.1, init={"beta": BETA, "sigma2": 1.0,
                                                          "D": np.eye(2)}),
                         "fit_em: init must be an LmmParams or a FitReport, got dict"),
    "fit_em-report-params-tuple": (
        lambda ds: fit_em(ds, 0.1, init=replace(fit_em(ds, 0.2), params=(BETA, 1.0, np.eye(2)))),
        "fit_em: init must be an LmmParams, got tuple"),
    "e_step-params-tuple": (lambda ds: e_step(ds, (BETA, 1.0, np.eye(2))),
                            "e_step: params must be an LmmParams, got tuple"),
    "observed_loglik-params-none": (lambda ds: observed_loglik(ds, None),
                                    "e_step: params must be an LmmParams, got NoneType"),
    "m_step-moments-none": (lambda ds: m_step(ds, None, 0.1),
                            "m_step: moments must be an EStepMoments, got NoneType"),
    "m_step-moments-tuple": (lambda ds: m_step(ds, tuple(vars(e_step(ds, START)).values()), 0.1),
                             "m_step: moments must be an EStepMoments, got tuple"),
    "m_step-moments-params-tuple": (
        lambda ds: m_step(ds, replace(e_step(ds, START), params=(BETA, 1.0, np.eye(2))), 0.1),
        "m_step: moments.params must be an LmmParams, got tuple"),
    "sweep-criterion-list": (lambda ds: sweep(ds, GRID, criterion=["bic"]),
                             "unknown criterion ['bic']"),
    "sweep-lambda_scale-array": (lambda ds: sweep(ds, GRID, lambda_scale=np.array(["raw", "raw"])),
                                 "unknown lambda_scale array(['raw', 'raw'], dtype='<U3')"),
    "default_grid-low-str": (lambda ds: default_grid(5, "x", 0.5),
                             "default_grid: low must be a real number, got 'x'"),
    "default_grid-high-nan": (lambda ds: default_grid(5, 0.1, float("nan")),
                              "default_grid: high must be finite, got nan"),
    "default_grid-low-inf": (lambda ds: default_grid(5, -np.inf, 0.5),
                             "default_grid: low must be finite, got -inf"),
    "default_grid-high-huge-int": (lambda ds: default_grid(5, 0.1, 10**400),
                                   f"default_grid: high must be finite, got {10**400!r}"),
    "effective_lambda-lam-str": (lambda ds: effective_lambda("x", "raw", 5),
                                 "penalty level lam must be a real number, got 'x'"),
    "effective_lambda-lam-huge-int": (
        lambda ds: effective_lambda(10**400, "raw", 5),
        f"penalty level lam must be finite and >= 0, got {10**400!r}"),
    "fit_em-ctrl-str": (lambda ds: fit_em(ds, 0.1, ctrl="x"), "ctrl must be an EmControl, got str"),
    "fit_em-ctrl-zero": (lambda ds: fit_em(ds, 0.1, ctrl=0), "ctrl must be an EmControl, got int"),
    "fit_em_supports-ctrl-str": (lambda ds: fit_em_supports(ds, [(0,)], ctrl="x"),
                                 "ctrl must be an EmControl, got str"),
    "sweep-ctrl-str": (lambda ds: sweep(ds, GRID, ctrl="x"), "ctrl must be an EmControl, got str"),
    "kfold_cv-ctrl-str": (lambda ds: kfold_cv(ds, 2, GRID, ctrl="x"),
                          "ctrl must be an EmControl, got str"),
    "run_monte_carlo-ctrl-str": (lambda ds: run_monte_carlo(ScenarioConfig.scenario1(n=6, n_i=4), 1,
                                                            grid=GRID, ctrl="x"),
                                 "ctrl must be an EmControl, got str"),
    "fit_em-ds-none": (lambda ds: fit_em(None, 0.1),
                       "fit_em: ds must be a LongitudinalDataset, got NoneType"),
    "sweep-ds-str": (lambda ds: sweep("x", GRID),
                     "sweep: ds must be a LongitudinalDataset, got str"),
    "select-ds-array": (lambda ds: select(ds.X, GRID),
                        "sweep: ds must be a LongitudinalDataset, got ndarray"),
    "e_step-ds-array": (lambda ds: e_step(ds.X, START),
                        "e_step: ds must be a LongitudinalDataset, got ndarray"),
    "observed_loglik-ds-none": (lambda ds: observed_loglik(None, START),
                                "e_step: ds must be a LongitudinalDataset, got NoneType"),
    "fit_em_supports-ds-str": (lambda ds: fit_em_supports("x", [(0,)]),
                               "fit_em_supports: ds must be a LongitudinalDataset, got str"),
    "refit_support-ds-array": (lambda ds: refit_support(ds.X, (0,)),
                               "fit_em_supports: ds must be a LongitudinalDataset, got ndarray"),
    "auto_log_grid-ds-none": (lambda ds: auto_log_grid(None),
                              "auto_log_grid: ds must be a LongitudinalDataset, got NoneType"),
    "standardize-ds-str": (lambda ds: standardize("x"),
                           "standardize: ds must be a LongitudinalDataset, got str"),
    "remove_linear_combos-ds-array": (
        lambda ds: remove_linear_combos(ds.X),
        "remove_linear_combos: ds must be a LongitudinalDataset, got ndarray"),
    "kfold_cv-ds-none": (lambda ds: kfold_cv(None, 2, GRID),
                         "kfold_cv: ds must be a LongitudinalDataset, got NoneType"),
    "generate_scenario-cfg-none": (lambda ds: generate_scenario(None),
                                   "generate_scenario: cfg must be a ScenarioConfig, got NoneType"),
    "generate_scenario-cfg-str": (lambda ds: generate_scenario("x", np.random.default_rng(0)),
                                  "generate_scenario: cfg must be a ScenarioConfig, got str"),
    "generate_scenario-rng-int": (
        lambda ds: generate_scenario(ScenarioConfig.scenario1(n=6, n_i=4), 1),
        "generate_scenario: rng must be a numpy Generator, got int"),
    "run_monte_carlo-cfg-none": (lambda ds: run_monte_carlo(None, 1, grid=GRID),
                                 "run_monte_carlo: cfg must be a ScenarioConfig, got NoneType"),
    "fit_em_supports-supports-none": (
        lambda ds: fit_em_supports(ds, None),
        "fit_em_supports: supports must be an iterable, got None"),
    "fit_em_supports-supports-negative": (
        lambda ds: fit_em_supports(ds, -1),
        "fit_em_supports: supports must be an iterable, got -1"),
    "standardize-scale_y-array": (lambda ds: standardize(ds, scale_y=np.zeros(9)),
                                  "standardize: scale_y must be a bool, got ndarray"),
    "LongitudinalDataset-x_names-negative": (lambda ds: ds._derive(x_names=-1),
                                             "x_names must be an iterable of names, got -1"),
    "LongitudinalDataset-z_names-nan": (lambda ds: ds._derive(z_names=float("nan")),
                                        "z_names must be an iterable of names, got nan"),
    # a string is not a list of names or indices
    "LongitudinalDataset-x_names-str": (lambda ds: ds._derive(x_names="abcdefghi"),
                                        "x_names must be an iterable of names, got 'abcdefghi'"),
    "LongitudinalDataset-z_names-str": (lambda ds: ds._derive(z_names="ab"),
                                        "z_names must be an iterable of names, got 'ab'"),
    "fit_em_supports-supports-str": (lambda ds: fit_em_supports(ds, "01"),
                                     "fit_em_supports: supports must be an iterable, got '01'"),
    "fit_em_supports-support-str": (
        lambda ds: fit_em_supports(ds, ["01"]),
        "fit_em_supports: support '01': column index list must be an iterable of integers, "
        "got '01'"),
    "subset_subjects-indices-str": (
        lambda ds: ds.subset_subjects("01"),
        "subset_subjects: subject index list must be an iterable of integers, got '01'"),
    "standardize-categorical-str": (
        lambda ds: standardize(ds, categorical="0"),
        "standardize: categorical column index list must be an iterable of integers, got '0'"),
    "sweep-grid-str": (lambda ds: sweep(ds, "0.1"),
                       "sweep: grid must be a list or 1-d array, got '0.1'"),
    "LmmParams-beta-str": (lambda ds: LmmParams("x", 1.0, np.eye(2)),
                           "LmmParams: beta must hold real numbers, got dtype <U1"),
    "LmmParams-sigma2-str": (lambda ds: LmmParams(BETA, "x", np.eye(2)),
                             "LmmParams: sigma2 must hold real numbers, got dtype <U1"),
    # bytes iterate as their codes: x_names b"abc" was stored as [97, 98, 99]
    # and a support, index list or categorical of bytes was read as indices
    "LongitudinalDataset-x_names-bytes": (lambda ds: ds._derive(x_names=b"abcdefghi"),
                                          "x_names must be an iterable of names, got b'abcdefghi'"),
    "LongitudinalDataset-z_names-bytes": (lambda ds: ds._derive(z_names=b"ab"),
                                          "z_names must be an iterable of names, got b'ab'"),
    # a name that is not a string was stored: select named columns None
    "LongitudinalDataset-x_names-none": (lambda ds: ds._derive(x_names=[None] * 9),
                                         "x_names must hold names (str), got NoneType"),
    "LongitudinalDataset-z_names-int": (lambda ds: ds._derive(z_names=[1, 2]),
                                        "z_names must hold names (str), got int"),
    "fit_em_supports-supports-bytes": (
        lambda ds: fit_em_supports(ds, b"\x00\x01"),
        "fit_em_supports: supports must be an iterable, got b'\\x00\\x01'"),
    "fit_em_supports-support-bytes": (
        lambda ds: fit_em_supports(ds, [b"\x00\x01"]),
        "fit_em_supports: support b'\\x00\\x01': column index list must be an iterable of "
        "integers, got b'\\x00\\x01'"),
    "subset_subjects-indices-bytes": (
        lambda ds: ds.subset_subjects(b"\x00\x01"),
        "subset_subjects: subject index list must be an iterable of integers, got b'\\x00\\x01'"),
    "standardize-categorical-bytes": (
        lambda ds: standardize(ds, categorical=b"\x00"),
        "standardize: categorical column index list must be an iterable of integers, "
        "got b'\\x00'"),
    # unchecked, a role of another type raised a bare TypeError or ValueError,
    # and a bare string of random names was taken as its characters: ingest
    # then looked up the column ','
    "ColumnRoles-fixed-int": (lambda ds: ColumnRoles("id", "y", 5, ("1",)),
                              "ColumnRoles: fixed must be an iterable of column names, got 5"),
    "ColumnRoles-random-str": (lambda ds: ColumnRoles("id", "y", ("a",), "1,t"),
                               "ColumnRoles: random must be an iterable of column names, "
                               "got '1,t'"),
    "ColumnRoles-fixed-name-int": (lambda ds: ColumnRoles("id", "y", ("a", 5), ("1",)),
                                   "ColumnRoles: fixed column must be a column name, got int"),
    "ColumnRoles-subject-array": (lambda ds: ColumnRoles(np.zeros(2), "y", ("a",), ("1",)),
                                  "ColumnRoles: subject must be a column name, got ndarray"),
    "ColumnRoles-response-array": (lambda ds: ColumnRoles("id", np.zeros(2), ("a",), ("1",)),
                                   "ColumnRoles: response must be a column name, got ndarray"),
    "ColumnRoles-from_mapping-list": (lambda ds: ColumnRoles.from_mapping(["id", "y"]),
                                      "column-role mapping must be a mapping, got list"),
    "ColumnRoles-from_mapping-fixed-int": (
        lambda ds: ColumnRoles.from_mapping({"subject": "id", "response": "y", "fixed": 5,
                                             "random": "1"}),
        "ColumnRoles: fixed must be an iterable of column names, got 5"),
    "ColumnRoles-from_mapping-random-none": (
        lambda ds: ColumnRoles.from_mapping({"subject": "id", "response": "y", "fixed": "a",
                                             "random": None}),
        "ColumnRoles: random must be an iterable of column names, got None"),
    # unchecked, each raised a bare ValueError or TypeError
    "StandardizationRecord-x_center-str": (
        lambda ds: StandardizationRecord("x", np.ones(9), 0.0, 1.0),
        "StandardizationRecord: x_center must hold real numbers, got dtype <U1"),
    "StandardizationRecord-x_scale-dict": (
        lambda ds: StandardizationRecord(np.zeros(9), {}, 0.0, 1.0),
        "StandardizationRecord: x_scale must hold real numbers, got dict"),
    "StandardizationRecord-x_center-object": (
        lambda ds: StandardizationRecord(object(), np.ones(9), 0.0, 1.0),
        "StandardizationRecord: x_center must hold real numbers, got object"),
    "StandardizationRecord-y_scale-str": (
        lambda ds: StandardizationRecord(np.zeros(9), np.ones(9), 0.0, "x"),
        "StandardizationRecord: y_scale must be a real number, got 'x'"),
    # unchecked, a path of another type raised a bare TypeError (-1 a
    # ValueError), roles of another type an AttributeError and an n_obs of
    # another type a TypeError
    "ingest_long_csv-path-none": (
        lambda ds: ingest_long_csv(None, ColumnRoles("id", "y", ("a",), ("1",))),
        "ingest_long_csv: path must be a str or os.PathLike, got NoneType"),
    "ingest_long_csv-path-negative": (
        lambda ds: ingest_long_csv(-1, ColumnRoles("id", "y", ("a",), ("1",))),
        "ingest_long_csv: path must be a str or os.PathLike, got int"),
    "ingest_long_csv-roles-dict": (
        lambda ds: ingest_long_csv("data.csv", {"subject": "id"}),
        "ingest_long_csv: roles must be a ColumnRoles, got dict"),
    "effective_lambda-n_obs-none": (lambda ds: effective_lambda(0.1, "per_obs", None),
                                    "n_obs must be an integer, got None"),
}


@pytest.mark.parametrize("argument", list(WRONG_TYPES))
def test_an_argument_of_the_wrong_type_is_a_configuration_error(ds, argument):
    # unchecked: each start, params or moments of another type raised a bare
    # AttributeError, a list criterion "unhashable type", an array
    # lambda_scale numpy's "truth value ... is ambiguous", default_grid's "x"
    # numpy's DTypePromotionError, and a NaN or inf bound returned NaNs;
    # effective_lambda's "x" raised a ValueError and its 10**400 an
    # OverflowError, a ctrl "x" an AttributeError, and a ctrl 0 ran as
    # EmControl(); a ds, cfg or rng of another type raised a bare
    # AttributeError where it was first read; a supports of None or -1 raised
    # a bare TypeError (so did x_names or z_names), an array scale_y numpy's "truth value ... is
    # ambiguous" and LmmParams' "x" a bare ValueError; a string x_names of p
    # letters was taken as p names, a string of indices as its digits, and a
    # string grid was refused as "grid entry must be a real number, got '0'"
    call, message = WRONG_TYPES[argument]
    with pytest.raises(ConfigurationError) as err:
        call(ds)
    assert str(err.value) == message


# argument: (call on the dataset, its DataError's message)
WRONG_ARRAYS = {
    "lambda_max-X-str": (lambda ds: lambda_max("abc", ds.y),
                         "lambda_max: X must hold real numbers, got dtype <U3"),
    "lambda_max-y-none": (lambda ds: lambda_max(ds.X, None),
                          "lambda_max: y must have shape (24,), got ()"),
    "lambda_max-X-1d": (lambda ds: lambda_max(ds.y, ds.y),
                        "lambda_max: X must have shape (*, *), got (24,)"),
    "solve_pls-X-str-cell": (lambda ds: solve_pls([["a"]], [1.0], 0.1),
                             "solve_pls: X must hold real numbers, got dtype <U1"),
    "penalty_value-beta-0d": (lambda ds: penalty_value(np.float64(1.0)),
                              "penalty_value: beta must have shape (*,), got ()"),
    "penalty_value-beta-str": (lambda ds: penalty_value("x"),
                               "penalty_value: beta must hold real numbers, got dtype <U1"),
    "solve_pls-X-bool": (lambda ds: solve_pls(ds.X > 6.0, ds.y, 0.1),
                         "solve_pls: X must hold real numbers, got dtype bool"),
    "LongitudinalDataset-X-bool": (lambda ds: ds._derive(X=ds.X > 6.0),
                                   "X must hold real numbers, got dtype bool"),
    "LongitudinalDataset-y-bool": (lambda ds: _with_y(ds, ds.y > 0.0),
                                   "y must hold real numbers, got dtype bool"),
}
# argument: (call on a value and the dataset, the name in its error); a dict
# or an object() in place of each array is refused as not an array of reals
_ARRAY_ARGUMENTS = {
    "solve_pls-X": (lambda v, ds: solve_pls(v, ds.y, 0.1), "solve_pls: X"),
    "solve_pls-y": (lambda v, ds: solve_pls(ds.X, v, 0.1), "solve_pls: y"),
    "solve_pls-warm_start": (lambda v, ds: solve_pls(ds.X, ds.y, 0.1, warm_start=v),
                             "solve_pls: warm_start"),
    "kkt_check-beta": (lambda v, ds: kkt_check(ds.X, ds.y, v, 0.1), "kkt_check: beta"),
    "lambda_max-y": (lambda v, ds: lambda_max(ds.X, v), "lambda_max: y"),
    "penalty_value-beta": (lambda v, ds: penalty_value(v), "penalty_value: beta"),
    "LongitudinalDataset-y": (lambda v, ds: _with_y(ds, v), "y"),
    "LongitudinalDataset-X": (lambda v, ds: ds._derive(X=v), "X"),
}
WRONG_ARRAYS.update({
    f"{argument}-{type(value).__name__}": (lambda ds, call=call, value=value: call(value, ds),
                                           f"{what} must hold real numbers, got "
                                           f"{type(value).__name__}")
    for argument, (call, what) in _ARRAY_ARGUMENTS.items() for value in ({}, object())})


@pytest.mark.parametrize("argument", list(WRONG_ARRAYS))
def test_an_array_argument_of_the_wrong_kind_is_a_data_error(ds, argument):
    # unchecked: lambda_max's "abc" raised a ValueError, its None y numpy's
    # matmul ValueError and its 1-D X an IndexError, solve_pls's string cell
    # a ValueError, and the penalty of a 0-d beta was 1.0; a dict or an
    # object() raised a bare TypeError and penalty_value's "x" a ValueError,
    # and bool arrays were cast to 0/1
    call, message = WRONG_ARRAYS[argument]
    with pytest.raises(DataError) as err:
        call(ds)
    assert str(err.value) == message


# setting: (call on the dataset, the error it raises, its message)
DOMAIN_REFUSALS = {
    "D_true-3x3": (lambda ds: ScenarioConfig.scenario1(D_true=np.eye(3)),
                   ConfigurationError, "D_true must have shape (2, 2), got (3, 3)"),
    "sigma2_true-negative": (lambda ds: ScenarioConfig.scenario1(sigma2_true=-1),
                             ConfigurationError, "sigma2_true must be finite and >= 0, got -1"),
    "beta_true-length": (lambda ds: ScenarioConfig.scenario1(beta_true=np.ones(3)),
                         ConfigurationError, "beta_true must have shape (9,), got (3,)"),
    "standardize-constant-response": (lambda ds: standardize(_with_y(ds, np.ones(ds.N))),
                                      DataError, "response has zero variance"),
    "standardize-twice": (lambda ds: standardize(standardize(ds)),
                          ConfigurationError, "dataset is already standardized"),
    "auto_log_grid-zero-response": (lambda ds: auto_log_grid(_with_y(ds, np.zeros(ds.N))),
                                    ConfigurationError,
                                    "auto_log_grid: design has no signal (lambda_max = 0)"),
    "auto_log_grid-no-columns": (lambda ds: auto_log_grid(ds.select_columns([])),
                                 ConfigurationError,
                                 "auto_log_grid: design has no signal (lambda_max = 0)"),
    # unchecked, nothing moved D[1, 1] from its start: fit_em reported
    # convergence with D[1, 1] = 1 and sweep selected without a note
    "fit_em-zero-random-column": (lambda ds: fit_em(_zero_slope(ds), 0.05),
                                  DataError, _ZERO_SLOPE),
    "fit_em_supports-zero-random-column": (
        lambda ds: fit_em_supports(_zero_slope(ds), [(0,), (0, 1)]), DataError, _ZERO_SLOPE),
    "sweep-zero-random-column": (lambda ds: sweep(_zero_slope(ds), GRID),
                                 DataError, _ZERO_SLOPE),
    "kfold_cv-zero-random-column": (lambda ds: kfold_cv(_zero_slope(ds), 2, grid=GRID),
                                    DataError, _ZERO_SLOPE),
    # unchecked, one subject's fit reported converged after 2 iterations, and
    # one row per subject (var(y_i) = z_i'D z_i + sigma2 does not separate D
    # from sigma2) ran to the iteration cap with no note
    "fit_em-one-subject": (lambda ds: fit_em(ds.subset_subjects([0]), 0.0),
                           DataError, _ONE_SUBJECT),
    "fit_em-one-row-each": (lambda ds: fit_em(_one_row_each(ds), 0.0),
                            DataError, _ONE_ROW_EACH),
    "fit_em_supports-one-row-each": (lambda ds: fit_em_supports(_one_row_each(ds), [(0,)]),
                                     DataError, _ONE_ROW_EACH),
    "sweep-one-subject": (lambda ds: sweep(ds.subset_subjects([0]), GRID),
                          DataError, _ONE_SUBJECT),
    "kfold_cv-one-subject-training-fold": (
        lambda ds: kfold_cv(ds.subset_subjects([0, 1]), 2, grid=GRID), DataError, _ONE_SUBJECT),
    # unchecked, a finite per_obs level whose raw level overflows ran: the fit
    # returned after 500 iterations, not converged, with beta zero and a NaN
    # trace, and the sweep ran on
    "effective_lambda-raw-overflow": (lambda ds: effective_lambda(1e308, "per_obs", ds.N),
                                      ConfigurationError, _RAW_OVERFLOW),
    "fit_em-raw-overflow": (lambda ds: fit_em(ds, 1e308, lambda_scale="per_obs"),
                            ConfigurationError, _RAW_OVERFLOW),
    "sweep-raw-overflow": (lambda ds: sweep(ds, [1e308, 0.1], lambda_scale="per_obs"),
                           ConfigurationError, _RAW_OVERFLOW),
    "roles-without-response": (lambda ds: ColumnRoles.from_mapping(
        {"subject": "id", "fixed": "a", "random": "1"}),
        ConfigurationError, "column-role mapping is missing 'response'"),
}


# argument and its link, one off: (call on the dataset (n = 6, N = 24, p = 9,
# q = 2), the error it raises, its message)
LINKED_SIZES = {
    "x_names-short": (lambda ds: ds._derive(x_names=ds.x_names[:-1]),
                      DataError, "x_names must have shape (9,), got (8,)"),
    "x_names-long": (lambda ds: ds._derive(x_names=[*ds.x_names, "x10"]),
                     DataError, "x_names must have shape (9,), got (10,)"),
    # unchecked, the short list hid the all-zero column from design_refusal,
    # and fit_em reported converged with D[1, 1] = 1 unmoved
    "z_names-short": (lambda ds: _zero_slope(ds)._derive(z_names=["z1"]),
                      DataError, "z_names must have shape (2,), got (1,)"),
    "z_names-long": (lambda ds: ds._derive(z_names=["z1", "z2", "z3"]),
                     DataError, "z_names must have shape (2,), got (3,)"),
    "y-rows": (lambda ds: ds._derive(y=ds.y[:-1]), DataError, "y must have shape (24,), got (23,)"),
    "X-rows": (lambda ds: ds._derive(X=ds.X[:-1]),
               DataError, "X must have shape (24, *), got (23, 9)"),
    "Z-rows": (lambda ds: ds._derive(Z=ds.Z[:-1]),
               DataError, "Z must have shape (24, *), got (23, 2)"),
    "subject_ids": (lambda ds: ds._derive(subject_ids=ds.subject_ids[:-1]),
                    DataError, "subject_ids must have shape (6,), got (5,)"),
    "init-beta": (lambda ds: fit_em(ds, 0.1, init=LmmParams(np.zeros(10), 1.0, np.eye(2))),
                  ConfigurationError, "fit_em: init: beta must have shape (9,), got (10,)"),
    "init-sigma2": (lambda ds: fit_em(ds, 0.1, init=LmmParams(BETA, np.ones(2), np.eye(2))),
                    ConfigurationError, "fit_em: init: sigma2 must have shape (), got (2,)"),
    "init-D": (lambda ds: fit_em(ds, 0.1, init=LmmParams(BETA, 1.0, np.eye(3))),
               ConfigurationError, "fit_em: init: D must have shape (2, 2), got (3, 3)"),
    "supports": (lambda ds: fit_em_supports(ds, [(0, 9)]), ConfigurationError,
                 "fit_em_supports: support (0, 9): column index in [0, 9) required, got 9"),
    "categorical": (lambda ds: standardize(ds, categorical=[9]), ConfigurationError,
                    "standardize: categorical column index in [0, 9) required, got 9"),
    "D_true": (lambda ds: ScenarioConfig.scenario1(D_true=np.eye(3)),
               ConfigurationError, "D_true must have shape (2, 2), got (3, 3)"),
    "beta_true": (lambda ds: ScenarioConfig.scenario1(beta_true=np.ones(10)),
                  ConfigurationError, "beta_true must have shape (9,), got (10,)"),
    "StandardizationRecord-x_scale": (
        lambda ds: StandardizationRecord(np.zeros(9), np.ones(8), 0.0, 1.0),
        ConfigurationError, "StandardizationRecord: x_scale must have shape (9,), got (8,)"),
}


@pytest.mark.parametrize("argument", list(LINKED_SIZES))
def test_a_size_one_off_its_link_is_refused_naming_the_argument(ds, argument):
    call, error, message = LINKED_SIZES[argument]
    with pytest.raises(error) as err:
        call(ds)
    assert str(err.value) == message


@pytest.mark.parametrize("setting", list(DOMAIN_REFUSALS))
def test_a_setting_outside_its_domain_is_refused(ds, setting):
    call, error, message = DOMAIN_REFUSALS[setting]
    with pytest.raises(error) as err:
        call(ds)
    assert str(err.value) == message


@pytest.mark.parametrize("setting", [s for s in REAL_SETTINGS if s.endswith("_alpha")])
def test_alpha_refuses_a_penalty_spec(ds, setting):
    # a record of the pair (alpha, lam) where the mixing weight alone belongs
    call, name = REAL_SETTINGS[setting]
    with pytest.raises(ConfigurationError, match=name):
        call((1.0, 7.0), ds)


def test_real_settings_take_integers_and_numpy_floats(ds):
    np.testing.assert_array_equal(solve_pls(ds.X, ds.y, 2, 1).beta,
                                  solve_pls(ds.X, ds.y, 2.0, 1.0).beta)
    np.testing.assert_array_equal(solve_pls(ds.X, ds.y, np.float64(2.0), np.float64(0.5)).beta,
                                  solve_pls(ds.X, ds.y, 2.0, 0.5).beta)
    assert remove_linear_combos(ds, rank_tol=np.float64(1e-7))[1].dropped == ()
    np.testing.assert_array_equal(auto_log_grid(ds, num=3, ratio=np.float64(0.01)),
                                  auto_log_grid(ds, num=3, ratio=0.01))

"""Every public callable answers a hostile argument with a typed error.

The package's public callables are its re-exports (tests/test_exports.py),
less the exception classes.  Each is called on small valid arguments (the
cases fixture, which names every parameter), then with each argument
replaced in turn by each of HOSTILE; every call must return or raise an
LmmLassoError, never a bare Python or numpy error.  A public callable
without an entry in cases fails, so that a new one cannot go unprobed.
"""

import inspect
import math
import types

import numpy as np
import pytest

import lmmlasso
from lmmlasso import (ColumnRoles, EmControl, LmmParams, ScenarioConfig, e_step,
                      generate_scenario)
from lmmlasso.exceptions import LmmLassoError

HOSTILE = {"None": None, "str": "x", "list": [], "dict": {}, "zeros": np.zeros(9),
           "object": object(), "nan": math.nan, "minus-one": -1, "tuple": (1, 2, 3)}

PUBLIC = sorted(n for n, v in vars(lmmlasso).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)
                and not (isinstance(v, type) and issubclass(v, LmmLassoError)))

CTRL = EmControl(max_iter=3)
GRID = [0.1]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """name: the keyword arguments of one small valid call of the public callable."""
    cfg = ScenarioConfig(1, n=6, n_i=4)
    ds = generate_scenario(cfg, np.random.default_rng(1))[0]  # N = 24, p = 9, q = 2
    start = LmmParams(np.zeros(ds.p), 1.0, np.eye(ds.q))
    moments = e_step(ds, start)
    fit = lmmlasso.fit_em(ds, 0.1, ctrl=CTRL)
    path = tmp_path_factory.mktemp("hostile") / "long.csv"
    path.write_text("id,y,a,t\n1,1.0,0.5,1\n1,2.0,1.5,2\n2,0.5,2.0,1\n2,1.5,0.0,2\n")
    blocks = ds.distinct_ztz
    return {
        "ColumnReductionReport": dict(kept=(0,), dropped=(1,), dependency_sets={1: [0]}),
        "ColumnRoles": dict(subject="id", response="y", fixed=("a",), random=("1", "t")),
        "DistinctBlocks": dict(ztz=blocks.ztz, index=blocks.index, counts=blocks.counts),
        "EStepMoments": dict(b_hat=moments.b_hat, Lambda_blocks=moments.Lambda_blocks,
                             loglik=moments.loglik, ds=ds, params=start),
        "EmControl": dict(eps=1e-6, max_iter=3, abs_eps=1e-10),
        "FitReport": dict(params=fit.params, iterations=fit.iterations, converged=fit.converged,
                          penalized_loglik_trace=fit.penalized_loglik_trace,
                          final_loglik=fit.final_loglik, lam=0.1, lambda_scale="raw",
                          warnings=[], moments=None),
        "FoldResult": dict(fold=0, test_subjects=(0,), n_test_obs=4, sse=1.0, mse_per_obs=0.25,
                           selected_lambda=0.1, support=(0,)),
        "LmmParams": dict(beta=np.zeros(ds.p), sigma2=1.0, D=np.eye(ds.q)),
        "LongitudinalDataset": dict(subject_ids=ds.subject_ids, counts=ds.counts, y=ds.y,
                                    X=ds.X, Z=ds.Z, x_names=ds.x_names, y_name="y",
                                    z_names=ds.z_names, standardization=None),
        "McSummary": dict(zero_proportion=np.zeros(ds.p), rmse=1.0, sensitivity=1.0,
                          specificity=1.0, replicates=1, failures=0, rmse_replicate_mean=1.0,
                          rmse_penalized=1.0, monotonicity_violations=0,
                          worst_trace_decrease=0.0, detail=[]),
        "PlsSolution": dict(beta=np.zeros(ds.p), objective=1.0, iterations=1, kkt_residual=0.0),
        "RegularizationPath": dict(grid=np.array(GRID), fits=[fit], bic=np.zeros(1),
                                   aic=np.zeros(1), df=np.zeros(1), nnz=np.zeros(1),
                                   selected_index=0, refit_fits=[fit], errors=[None],
                                   lambda_scale="raw", criterion="bic", standardization=None),
        "ScenarioConfig": dict(scenario=1, n=6, n_i=4, p=9, p_star=2, D_true=np.eye(2),
                               sigma2_true=1.0, covariate_mean=6.0, seed=0,
                               beta_true=np.ones(9)),
        "StandardizationRecord": dict(x_center=np.zeros(ds.p), x_scale=np.ones(ds.p),
                                      y_center=0.0, y_scale=1.0),
        "auto_log_grid": dict(ds=ds, num=3, ratio=0.01, lambda_scale="raw", alpha=1.0),
        "default_grid": dict(num=3, low=0.001, high=0.5),
        "e_step": dict(ds=ds, params=start),
        "effective_lambda": dict(lam=0.1, lambda_scale="per_obs", n_obs=24),
        "fit_em": dict(ds=ds, lam=0.1, alpha=1.0, init=None, ctrl=CTRL, lambda_scale="raw"),
        "fit_em_supports": dict(ds=ds, supports=[(0,), (0, 1)], ctrl=CTRL),
        "generate_scenario": dict(cfg=cfg, rng=np.random.default_rng(0)),
        "ingest_long_csv": dict(path=path, roles=ColumnRoles("id", "y", ("a",), ("1", "t"))),
        "kfold_cv": dict(ds=ds, k=2, grid=GRID, alpha=1.0, ctrl=CTRL, lambda_scale="per_obs",
                         criterion="bic", seed=0),
        "kkt_check": dict(X=ds.X, y=ds.y, beta=np.zeros(ds.p), lam=0.1, alpha=1.0),
        "lambda_max": dict(X=ds.X, y=ds.y, alpha=1.0),
        "m_step": dict(ds=ds, moments=moments, lam=0.1, alpha=1.0),
        "observed_loglik": dict(ds=ds, params=start),
        "penalty_value": dict(beta=np.zeros(ds.p), alpha=1.0),
        "refit_support": dict(ds=ds, support=(0,), ctrl=CTRL),
        "remove_linear_combos": dict(ds=ds, rank_tol=1e-7),
        "run_monte_carlo": dict(cfg=cfg, replicates=1, grid=GRID, ctrl=CTRL,
                                lambda_scale="per_obs", criterion="bic", n_jobs=1),
        "select": dict(ds=ds, grid=GRID, alpha=1.0, ctrl=CTRL, lambda_scale="raw",
                       criterion="bic"),
        "solve_pls": dict(X=ds.X, y=ds.y, lam=0.1, alpha=1.0, warm_start=None),
        "standardize": dict(ds=ds, categorical=(), scale_y=True),
        "sweep": dict(ds=ds, grid=GRID, alpha=1.0, ctrl=CTRL, lambda_scale="raw",
                      criterion="bic"),
    }


@pytest.mark.parametrize("name", PUBLIC)
def test_a_public_callable_answers_hostile_arguments_with_a_typed_error(cases, name):
    assert name in cases, f"{name} has no valid-argument entry"
    call, kwargs = getattr(lmmlasso, name), cases[name]
    assert set(kwargs) == set(inspect.signature(call).parameters)
    call(**kwargs)
    bare = []
    for argument in kwargs:
        for label, value in HOSTILE.items():
            try:
                call(**{**kwargs, argument: value})
            except LmmLassoError:
                pass
            except Exception as err:  # noqa: BLE001 - any other error is the finding
                bare.append(f"{argument}={label}: {type(err).__name__}: {err}")
    assert bare == []

"""Monte Carlo scenarios, selection metrics, and subject-grouped cross-validation.

Three generator scenarios mirror the benchmark designs this package is
evaluated on: nine Gaussian covariates with two unit effects (scenario 1),
the same with a leading Bernoulli covariate (scenario 2), and a
fifty-covariate high-dimensional design (scenario 3).  Random effects are
a subject intercept and slope over the within-subject time index
1..n_i.  Replicates draw from independent child streams of a single seed,
so results are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import LongitudinalDataset, _taken
from .em_engine import EmControl, _psd_sqrt
from .exceptions import (ConfigurationError, LmmLassoError, _checked_array, _checked_int,
                         _checked_real, _checked_type)
from .fileio import write_csv
from .penalized_ls import PER_OBS
from .selector import _selection_settings, select, sweep

__all__ = [
    "D_PRESETS",
    "SCENARIO_DESIGNS",
    "ScenarioConfig",
    "McSummary",
    "ReplicateRecord",
    "FoldResult",
    "generate_scenario",
    "run_monte_carlo",
    "kfold_cv",
    "write_mc_summary_csv",
    "write_mc_detail_csv",
    "write_cv_csv",
]

# the random-effect covariance presets, and each scenario's default (p, p_star)
D_PRESETS = {"low": np.array([[1.0, 0.25], [0.25, 1.0]]),
             "high": np.array([[9.0, 4.8], [4.8, 4.0]])}
D_LOW, D_HIGH = D_PRESETS["low"], D_PRESETS["high"]
SCENARIO_DESIGNS = {1: (9, 2), 2: (9, 2), 3: (50, 5)}

_TRACE_SLACK = 1e-8  # ascent tolerance when counting trace violations


@dataclass(frozen=True)
class ScenarioConfig:
    """Settings for one Monte Carlo scenario; a None takes the default noted."""

    scenario: int
    n: int = 30
    n_i: int = 5
    p: int = None               # SCENARIO_DESIGNS[scenario]
    p_star: int = None          # SCENARIO_DESIGNS[scenario]
    D_true: np.ndarray = None   # D_LOW
    sigma2_true: float = 1.0
    covariate_mean: float = 6.0
    seed: int = 0
    beta_true: np.ndarray = None  # ones on the first p_star coefficients

    def __post_init__(self):
        scenario = _checked_int(self.scenario, "scenario", 1, len(SCENARIO_DESIGNS) + 1)
        p_default, p_star_default = SCENARIO_DESIGNS[scenario]
        p = _checked_int(p_default if self.p is None else self.p, "p", 1)
        note = "" if self.p_star is not None else (f" (scenario {scenario}'s default; "
                                                   "set p_star, --p-star on the CLI, to change it)")
        p_star = p_star_default if self.p_star is None else self.p_star
        checked = dict(scenario=scenario, p=p, n=_checked_int(self.n, "n", 1),
                       # Z = [1, time] has rank 1 with one time point per subject
                       n_i=_checked_int(self.n_i, "n_i", 2),
                       p_star=_checked_int(p_star, f"p_star{note}", 0, p + 1),
                       seed=_checked_int(self.seed, "seed"),
                       sigma2_true=_checked_real(self.sigma2_true, "sigma2_true", 0),
                       covariate_mean=_checked_real(self.covariate_mean, "covariate_mean"))
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        D = D_LOW if self.D_true is None else self.D_true
        beta = (np.arange(self.p) < self.p_star) * 1.0 if self.beta_true is None else self.beta_true
        for name, value, shape in (("D_true", D, (2, 2)), ("beta_true", beta, (self.p,))):
            a = _checked_array(value, name, shape, ConfigurationError)
            object.__setattr__(self, name, _taken(a))
        D = self.D_true
        if np.abs(D - D.T).max() > 1e-12:
            raise ConfigurationError("D_true must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(D).min() < -1e-12:
            raise ConfigurationError("D_true must be positive semidefinite")

    scenario1 = classmethod(lambda cls, **kw: cls(1, **kw))
    scenario2 = classmethod(lambda cls, **kw: cls(2, **kw))
    scenario3 = classmethod(lambda cls, **kw: cls(3, **kw))


def generate_scenario(cfg: ScenarioConfig, rng: np.random.Generator | None = None):
    """Draw one dataset from the scenario's generative model.

    Covariates are N(mean, 1) (scenario 2 replaces the first column by a
    Bernoulli(0.5) drawn by inverse CDF from uniforms); random effects use
    the symmetric PSD factor of D_true.  After the response is generated,
    covariate columns are centered (scenarios 1 and 3) or, for scenario
    2's Gaussian columns, standardized; the response is centered at its
    grand mean, dropping the constant that the intercept-free model cannot
    represent.

    Returns (dataset, truth) where truth records beta_true, the drawn
    random effects, and the generator settings.  A cfg that is not a
    ScenarioConfig, or an rng that is neither None nor a numpy Generator,
    is a ConfigurationError.
    """
    _checked_type(cfg, ScenarioConfig, "generate_scenario: cfg must be a ScenarioConfig")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    _checked_type(rng, np.random.Generator, "generate_scenario: rng must be a numpy Generator")
    n, n_i, p = cfg.n, cfg.n_i, cfg.p
    N = n * n_i

    X = rng.normal(cfg.covariate_mean, 1.0, size=(N, p))
    if cfg.scenario == 2:
        X[:, 0] = (rng.uniform(size=N) < 0.5).astype(float)

    S = _psd_sqrt(*np.linalg.eigh(cfg.D_true))
    b = rng.normal(size=(n, 2)) @ S  # S symmetric, so rows are S @ z_i
    eps = rng.normal(scale=np.sqrt(cfg.sigma2_true), size=N)

    Z = np.tile(np.column_stack([np.ones(n_i), np.arange(1.0, n_i + 1.0)]), (n, 1))
    Zb = (np.repeat(b, n_i, axis=0) * Z).sum(axis=1)
    y = X @ cfg.beta_true + Zb + eps

    x_center = X.mean(axis=0)
    if cfg.scenario == 2:
        cols = X[:, 1:] - x_center[1:]
        sd = cols.std(axis=0, ddof=1)
        sd[sd == 0.0] = 1.0
        X[:, 1:] = cols / sd
    else:
        X = X - x_center
    y = y - y.mean()

    truth = {"beta_true": cfg.beta_true.copy(), "b": b, "x_center": x_center,
             "config": cfg}
    return LongitudinalDataset(np.arange(n), np.full(n, n_i), y, X, Z), truth


@dataclass
class ReplicateRecord:
    """Outcome of one Monte Carlo replicate.

    beta_hat holds the penalized estimates at the selected penalty level
    (these define the zero pattern); sq_err is the squared error of the
    unpenalized refit of that support, the headline error metric.
    """

    index: int
    failed: bool
    error: str = ""
    selected_lambda: float = np.nan
    beta_hat: np.ndarray = None
    nnz: int = 0
    converged: bool = False
    sq_err: float = np.nan            # refit estimates vs truth
    sq_err_penalized: float = np.nan  # shrunk estimates vs truth
    sensitivity: float = np.nan
    specificity: float = np.nan
    worst_trace_decrease: float = 0.0
    trace_violations: int = 0


@dataclass
class McSummary:
    """Aggregated Monte Carlo metrics.

    rmse is sqrt(mean over replicates of ||beta_refit - beta||^2), the
    aggregate form over the procedure's final (refit) estimates;
    rmse_replicate_mean applies the alternative aggregation
    mean(||err|| / sqrt(p)) to the same errors, and rmse_penalized is
    the aggregate over the shrunk estimates at the selected level.
    sensitivity / specificity are None when undefined (no true nonzeros /
    no true zeros).
    """

    zero_proportion: np.ndarray
    rmse: float
    sensitivity: float | None
    specificity: float | None
    replicates: int
    failures: int = 0
    rmse_replicate_mean: float = np.nan
    rmse_penalized: float = np.nan
    monotonicity_violations: int = 0
    worst_trace_decrease: float = 0.0
    detail: list = field(default_factory=list)


def _run_replicate(args) -> ReplicateRecord:
    (cfg, index, child_seed, grid, ctrl, lambda_scale, criterion) = args
    rng = np.random.default_rng(child_seed)
    try:
        ds, truth = generate_scenario(cfg, rng)
        path = sweep(ds, grid, ctrl=ctrl, lambda_scale=lambda_scale,
                     criterion=criterion)
    except LmmLassoError as e:
        return ReplicateRecord(index=index, failed=True, error=str(e))

    beta_true = truth["beta_true"]
    beta_hat = path.selected_fit.params.beta
    err_refit = path.selected_refit.params.beta - beta_true
    err_pen = beta_hat - beta_true
    nz_hat = beta_hat != 0.0
    p_star = int(np.count_nonzero(beta_true))
    p = beta_true.size
    sens = float(np.count_nonzero(nz_hat[beta_true != 0.0])) / p_star if p_star else np.nan
    spec = (float(np.count_nonzero(~nz_hat[beta_true == 0.0])) / (p - p_star)
            if p - p_star else np.nan)
    # entries with one support share their refit object; count each fit once
    fits_seen = {id(f): f for f in path.fits + path.refit_fits if f is not None}
    decreases = [f.worst_trace_decrease() for f in fits_seen.values()]
    worst = max(decreases, default=0.0)
    return ReplicateRecord(
        index=index,
        failed=False,
        selected_lambda=path.selected_lambda,
        beta_hat=beta_hat.copy(),
        nnz=int(np.count_nonzero(beta_hat)),
        converged=bool(path.selected_fit.converged),
        sq_err=float(err_refit @ err_refit),
        sq_err_penalized=float(err_pen @ err_pen),
        sensitivity=sens,
        specificity=spec,
        worst_trace_decrease=worst,
        trace_violations=int(sum(d > _TRACE_SLACK for d in decreases)),
    )


def run_monte_carlo(cfg: ScenarioConfig, replicates: int, grid=None,
                    ctrl: EmControl | None = None, lambda_scale: str = PER_OBS,
                    criterion: str = "bic", n_jobs: int = 1) -> McSummary:
    """Run seeded replicates of generate -> sweep -> select and aggregate.

    Child seeds are spawned from cfg.seed per replicate, and records are
    aggregated in replicate order, so the summary is identical for any
    n_jobs.  Failed replicates are counted and excluded from the metrics.
    At most one worker process per replicate is started.
    """
    _checked_type(cfg, ScenarioConfig, "run_monte_carlo: cfg must be a ScenarioConfig")
    replicates = _checked_int(replicates, "replicates", 1)
    n_jobs = min(_checked_int(n_jobs, "n_jobs", 1), replicates)
    grid = _selection_settings(grid, lambda_scale, criterion, ctrl=ctrl)
    children = np.random.SeedSequence(cfg.seed).spawn(replicates)
    tasks = [(cfg, r, children[r], grid, ctrl, lambda_scale, criterion)
             for r in range(replicates)]
    if n_jobs <= 1:
        records = [_run_replicate(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(_run_replicate, tasks, chunksize=1))

    ok = [r for r in records if not r.failed]
    p = cfg.p
    if ok:
        betas = np.vstack([r.beta_hat for r in ok])
        zero_prop = (betas == 0.0).mean(axis=0)
        sq = np.array([r.sq_err for r in ok])
        rmse = float(np.sqrt(sq.mean()))
        rmse_mean = float(np.mean(np.sqrt(sq) / np.sqrt(p)))
        rmse_pen = float(np.sqrt(np.mean([r.sq_err_penalized for r in ok])))
    else:
        zero_prop = np.full(p, np.nan)
        rmse = rmse_mean = rmse_pen = np.nan

    p_star = int(np.count_nonzero(cfg.beta_true))
    sens = (float(np.mean([r.sensitivity for r in ok]))
            if ok and p_star > 0 else None)
    spec = (float(np.mean([r.specificity for r in ok]))
            if ok and p - p_star > 0 else None)

    return McSummary(
        zero_proportion=zero_prop,
        rmse=rmse,
        sensitivity=sens,
        specificity=spec,
        replicates=replicates,
        failures=len(records) - len(ok),
        rmse_replicate_mean=rmse_mean,
        rmse_penalized=rmse_pen,
        monotonicity_violations=int(sum(r.trace_violations for r in ok)),
        worst_trace_decrease=max((r.worst_trace_decrease for r in ok), default=0.0),
        detail=records,
    )


@dataclass
class FoldResult:
    """Held-out prediction error for one cross-validation fold."""

    fold: int
    test_subjects: tuple
    n_test_obs: int
    sse: float           # (y - yhat)'(y - yhat), summed over the fold
    mse_per_obs: float
    selected_lambda: float
    support: tuple


def kfold_cv(ds: LongitudinalDataset, k: int, grid=None, alpha: float = 1.0,
             ctrl: EmControl | None = None, lambda_scale: str = PER_OBS,
             criterion: str = "bic", seed: int = 0):
    """Subject-grouped k-fold cross-validation of the selection pipeline.

    Folds partition subjects, never rows.  Each fold runs selection at
    mixing weight alpha (1, the lasso, by default) and the unpenalized
    refit on the training subjects, then predicts the held-out responses
    from fixed effects alone (random effects of unseen subjects are at
    their prior mean, zero).  Returns a list of FoldResult.
    """
    _checked_type(ds, LongitudinalDataset, "kfold_cv: ds must be a LongitudinalDataset")
    k = _checked_int(k, f"kfold_cv: k (n={ds.n})", 2, ds.n + 1)
    rng = np.random.default_rng(_checked_int(seed, "kfold_cv: seed"))
    perm = rng.permutation(ds.n)
    folds = np.array_split(perm, k)

    results = []
    for f, test_idx in enumerate(folds):
        test_idx = np.sort(test_idx)
        train_ds = ds.subset_subjects(np.setdiff1d(np.arange(ds.n), test_idx))
        path = select(train_ds, grid, alpha, ctrl=ctrl,
                      lambda_scale=lambda_scale, criterion=criterion)
        test_ds = ds.subset_subjects(test_idx)
        resid = test_ds.y - test_ds.X @ path.selected_refit.params.beta
        sse = float(resid @ resid)
        results.append(FoldResult(
            fold=f,
            test_subjects=tuple(test_ds.subject_ids),
            n_test_obs=test_ds.N,
            sse=sse,
            mse_per_obs=sse / test_ds.N,
            selected_lambda=path.selected_lambda,
            support=path.selected_support,
        ))
    return results


# ---------------------------------------------------------------------------
# Artifact writers (shared with the CLI)
# ---------------------------------------------------------------------------


def write_mc_summary_csv(summary: McSummary, cfg: ScenarioConfig, path):
    rows = [("scenario", cfg.scenario), ("n", cfg.n), ("n_i", cfg.n_i),
            ("p", cfg.p), ("p_star", cfg.p_star), ("seed", cfg.seed),
            ("replicates", summary.replicates), ("failures", summary.failures)]
    for j in range(cfg.p):
        rows.append((f"zero_proportion_beta{j + 1}", summary.zero_proportion[j]))
    rows.append(("rmse", summary.rmse))
    rows.append(("rmse_replicate_mean", summary.rmse_replicate_mean))
    rows.append(("rmse_penalized", summary.rmse_penalized))
    rows.append(("sensitivity",
                 "NA" if summary.sensitivity is None else summary.sensitivity))
    rows.append(("specificity",
                 "NA" if summary.specificity is None else summary.specificity))
    rows.append(("monotonicity_violations", summary.monotonicity_violations))
    rows.append(("worst_trace_decrease", summary.worst_trace_decrease))
    write_csv(path, ("quantity", "value"), rows)


def write_mc_detail_csv(summary: McSummary, path):
    rows = []
    for r in summary.detail:
        rows.append((r.index, str(r.failed), r.selected_lambda, r.nnz,
                     str(r.converged), r.sq_err, r.sq_err_penalized,
                     r.sensitivity, r.specificity,
                     r.worst_trace_decrease, r.error))
    write_csv(path, ("replicate", "failed", "selected_lambda", "nnz",
                     "converged", "sq_err", "sq_err_penalized",
                     "sensitivity", "specificity",
                     "worst_trace_decrease", "error"), rows)


def write_cv_csv(results, path):
    rows = [(r.fold, r.n_test_obs, r.sse, r.mse_per_obs, r.selected_lambda,
             " ".join(str(j) for j in r.support)) for r in results]
    write_csv(path, ("fold", "n_test_obs", "sse", "mse_per_obs",
                     "selected_lambda", "support"), rows)

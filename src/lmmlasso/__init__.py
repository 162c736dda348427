"""Lasso selection of fixed effects in linear mixed-effects models.

The package fits the mixed model y_i = X_i beta + Z_i b_i + eps_i by
penalized maximum likelihood: an EM algorithm whose E-step returns the
random-effect moments together with the marginal log-likelihood and whose
M-step solves an l1-penalized least-squares problem (exactly: by one
minimum-norm solve without an l1 term, else by an active-set loop of
linear solves that leaves a singular support along its null space), a
BIC-driven sweep over the penalty grid, and an unpenalized refit of the
selected support.  A simulation kit regenerates the benchmark scenarios, and a
small CLI wires everything into reproducible batch runs.
"""

from .dataset import (
    ColumnReductionReport,
    ColumnRoles,
    LongitudinalDataset,
    StandardizationRecord,
    SubjectBlock,
    beta_original_scale,
    destandardize,
    ingest_long_csv,
    remove_linear_combos,
    standardize,
)
from .em_engine import (
    EmControl,
    EStepMoments,
    FitReport,
    LmmParams,
    e_step,
    fit_em,
    fit_em_supports,
    m_step,
    observed_loglik,
    penalized_loglik,
)
from .exceptions import (
    ConfigurationError,
    DataError,
    LmmLassoError,
    NumericalError,
)
from .penalized_ls import (
    PenaltySpec,
    PlsSolution,
    effective_lambda,
    kkt_check,
    lambda_max,
    penalty_value,
    soft_threshold,
    solve_pls,
)
from .selector import (
    RegularizationPath,
    SelectionResult,
    auto_log_grid,
    default_grid,
    refit_support,
    refit_supports,
    select,
    sweep,
)
from .simkit import (
    FoldResult,
    McSummary,
    ScenarioConfig,
    generate_scenario,
    kfold_cv,
    run_monte_carlo,
)

__version__ = "0.1.0"

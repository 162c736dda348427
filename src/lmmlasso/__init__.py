"""Lasso selection of fixed effects in linear mixed-effects models.

The package fits the mixed model y_i = X_i beta + Z_i b_i + eps_i by
penalized maximum likelihood: an EM algorithm whose E-step returns the
random-effect moments together with the marginal log-likelihood and whose
M-step solves a penalized least-squares problem with the package's one
lasso solver (exact: one minimum-norm solve without an l1 term, else an
active-set loop of linear solves on X'X that leaves a singular support
along its null space; solve_pls is its public form), a BIC-driven sweep
over the penalty grid, and unpenalized refits of the supports it finds
(fit_em_supports, the one refit entry point, which checks its supports).
A selection is its RegularizationPath: the selected penalty, support,
fits and selection JSON are read off the path that sweep and select
return.
A penalty is glmnet's level lam and mixing weight alpha (1 the lasso,
0 ridge), which every layer takes as two numbers.
A simulation kit regenerates the benchmark scenarios, and a small CLI
wires everything into reproducible batch runs.
"""

from .dataset import (
    ColumnReductionReport,
    ColumnRoles,
    DistinctBlocks,
    LongitudinalDataset,
    StandardizationRecord,
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
)
from .exceptions import (
    ConfigurationError,
    DataError,
    LmmLassoError,
    NumericalError,
)
from .penalized_ls import (
    PlsSolution,
    effective_lambda,
    kkt_check,
    lambda_max,
    penalty_value,
    solve_pls,
)
from .selector import (
    RegularizationPath,
    auto_log_grid,
    default_grid,
    refit_support,
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

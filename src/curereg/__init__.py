"""Co-sparse unit-rank factor regression.

Recovers a sparse SVD-like structure of a multivariate regression
coefficient matrix, one unit-rank layer at a time.  The two unit-rank
engines are a contended stagewise path solver (:mod:`curereg.stagewise`)
and an alternating convex search (:mod:`curereg.baselines`); multi-layer
models come from sequential or parallel deflation
(:mod:`curereg.deflation`).  Simulation designs, tuning rules, and
evaluation metrics live in their own modules, and :mod:`curereg.cli`
exposes the whole pipeline as a command line tool.
"""

from .baselines import (
    AcsConfig,
    LassoConfig,
    acs_cure,
    acs_path,
    default_lambda_grid,
    default_rrr_ridge,
    fit_rrr,
    lasso_cd,
    lasso_gic_path,
    lasso_objective,
    select_rank_cv,
    svd_of_ols_factor,
)
from .core import (
    FactorModel,
    NormMode,
    ProblemData,
    UnitRankFactor,
    column_normalize,
    eval_loss,
    eval_penalty,
    hard_threshold_layer,
    p_orthogonal_svd,
    renormalize_factor,
    rescale_factor_rows,
    residual,
)
from .deflation import (
    DeflationConfig,
    LassoInitializer,
    RrrInitializer,
    deflate,
    orthogonality_diagnostics,
    parallel_pursuit,
    sequential_pursuit,
)
from .metrics import (
    EvalReport,
    SelectionRates,
    aggregate_reports,
    estimation_errors,
    selection_rates,
    sparsity_summary,
    trimmed_mean_sd,
)
from .simgen import (
    SimSpec,
    SimTruth,
    gen_coefficient,
    gen_dataset,
    gen_design,
    gen_response,
    operator_norm,
)
from .stagewise import (
    PathStep,
    StagewiseConfig,
    StagewisePath,
    initialize_path,
    run_path,
    run_paths,
    select_on_path,
)
from .tuning import (
    CriterionInput,
    CvSelection,
    information_criterion,
    kfold_cv_select,
)

__version__ = "0.1.0"

__all__ = [
    "AcsConfig",
    "CriterionInput",
    "CvSelection",
    "DeflationConfig",
    "EvalReport",
    "FactorModel",
    "LassoConfig",
    "LassoInitializer",
    "NormMode",
    "PathStep",
    "ProblemData",
    "RrrInitializer",
    "SelectionRates",
    "SimSpec",
    "SimTruth",
    "StagewiseConfig",
    "StagewisePath",
    "UnitRankFactor",
    "acs_cure",
    "acs_path",
    "aggregate_reports",
    "column_normalize",
    "default_lambda_grid",
    "default_rrr_ridge",
    "deflate",
    "estimation_errors",
    "eval_loss",
    "eval_penalty",
    "fit_rrr",
    "gen_coefficient",
    "gen_dataset",
    "gen_design",
    "gen_response",
    "hard_threshold_layer",
    "information_criterion",
    "initialize_path",
    "kfold_cv_select",
    "lasso_cd",
    "lasso_gic_path",
    "lasso_objective",
    "operator_norm",
    "orthogonality_diagnostics",
    "p_orthogonal_svd",
    "parallel_pursuit",
    "renormalize_factor",
    "rescale_factor_rows",
    "residual",
    "run_path",
    "run_paths",
    "select_on_path",
    "select_rank_cv",
    "selection_rates",
    "sequential_pursuit",
    "sparsity_summary",
    "svd_of_ols_factor",
    "trimmed_mean_sd",
]

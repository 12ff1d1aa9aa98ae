"""Co-sparse unit-rank factor regression.

Recovers a sparse SVD-like structure of a multivariate regression
coefficient matrix, one unit-rank layer at a time.  The two unit-rank
engines are a contended stagewise path solver (:mod:`curereg.stagewise`)
and an alternating convex search (:mod:`curereg.baselines`); multi-layer
models come from sequential or parallel deflation
(:mod:`curereg.deflation`).  Simulation designs, tuning rules, and
evaluation metrics live in their own modules, and :mod:`curereg.cli`
exposes the whole pipeline as a command line tool.

``import curereg`` loads none of the submodules.  Each public name, and
each submodule that defines one, is imported on first use (PEP 562) and
then kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "baselines": (
        "AcsConfig", "acs_cure", "acs_path", "default_lambda_grid",
        "default_rrr_ridge", "fit_rrr", "lasso_cd", "lasso_gic_path",
        "select_rank_cv", "svd_of_ols_factor",
    ),
    "core": (
        "FactorModel", "NormMode", "ProblemData", "UnitRankFactor",
        "column_normalize", "hard_threshold_layer", "p_orthogonal_svd",
        "renormalize_factor", "rescale_factor_rows", "residual",
    ),
    "deflation": (
        "DeflationConfig", "deflate", "parallel_pursuit", "sequential_pursuit",
    ),
    "metrics": (
        "EvalReport", "SelectionRates", "aggregate_reports", "estimation_errors",
        "selection_rates", "sparsity_summary", "trimmed_mean_sd",
    ),
    "simgen": (
        "SimSpec", "SimTruth", "gen_coefficient", "gen_dataset", "gen_design",
        "gen_response", "operator_norm",
    ),
    "stagewise": (
        "PathStep", "StagewiseConfig", "StagewisePath", "initialize_path",
        "run_path", "run_paths", "select_on_path",
    ),
    "tuning": ("CvSelection", "information_criterion", "kfold_cv_select"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

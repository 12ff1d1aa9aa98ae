"""Multi-layer estimation by deflation: sequential and parallel pursuit.

Sequential pursuit peels unit-rank layers off the response one at a time:
layer k is fitted to ``Y - X (C_1 + ... + C_{k-1})``.  Parallel pursuit
instead starts from a pilot estimate of the full coefficient matrix (lasso
or reduced-rank regression), splits it into predictor-metric orthogonal
layers, and refits layer k against ``Y - X * (pilot minus its own layer)``;
the layer subproblems are independent and may be solved in any order with
identical results.

Each unit-rank subproblem is solved either by the stagewise path solver
(selecting a path point by an information criterion or CV) or by the
alternating solver on a decreasing penalty grid.
"""

from __future__ import annotations

import warnings
# Unused here: no layer runs on a thread pool.  perfbench/tracer.py still
# replaces this name and fails to install without it (ROADMAP item 1a).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .baselines import (
    AcsConfig,
    _rrr_ridge,
    acs_path,
    default_lambda_grid,
    fit_rrr,
    lasso_gic_path,
)
from .core import (
    FactorModel,
    NormMode,
    ProblemData,
    hard_threshold_layer,
    p_orthogonal_svd,
    renormalize_factor,
    residual,
)
from .stagewise import StagewiseConfig, run_path, run_paths, select_on_path
from .tuning import CRITERIA, GridScan, kfold_cv_select
# Unused here.  perfbench/tracer.py still wraps this name to count criterion
# evaluations, so its tuning.ic count reads 0 until the tracer wraps the one
# in tuning (ROADMAP item 1a); the tracer fails to install without the name.
from .tuning import information_criterion  # noqa: F401

__all__ = [
    "LassoInitializer",
    "RrrInitializer",
    "DeflationConfig",
    "deflate",
    "sequential_pursuit",
    "parallel_pursuit",
    "orthogonality_diagnostics",
]

STRATEGIES = ("sequential", "parallel")
SELECTIONS = CRITERIA + ("cv",)
CV_GRID_MAX = 50


@dataclass(frozen=True)
class LassoInitializer:
    """Pilot estimate via the entrywise lasso, its level picked by GIC over a grid."""


@dataclass(frozen=True)
class RrrInitializer:
    """Pilot estimate via reduced-rank regression; the ridge is 0 for a
    full-column-rank X, else ``default_rrr_ridge`` (with a warning when X is
    tall)."""


@dataclass
class DeflationConfig:
    """How to build a rank-``rank`` model out of unit-rank solves.

    ``criterion`` picks the per-layer tuning rule; None defers to the
    stagewise config's criterion (or gic for the alternating solver).
    ``initializer`` and ``s_threshold`` only apply to the parallel strategy.
    """

    strategy: str
    rank: int
    solver: object  # StagewiseConfig | AcsConfig
    initializer: object | None = None
    s_threshold: int | None = None
    criterion: str | None = None
    cv_folds: int = 5
    cv_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not isinstance(self.solver, (StagewiseConfig, AcsConfig)):
            raise TypeError("solver must be a StagewiseConfig or an AcsConfig")
        if self.criterion is not None and self.criterion not in SELECTIONS:
            raise ValueError(f"criterion must be one of {SELECTIONS}")
        if self.strategy == "parallel" and self.initializer is None:
            raise ValueError("parallel pursuit needs an initializer (lasso or rrr)")
        if self.s_threshold is not None and self.s_threshold < self.rank:
            raise ValueError("s_threshold must be at least the target rank")

    def resolved_criterion(self):
        if self.criterion is not None:
            return self.criterion
        if isinstance(self.solver, StagewiseConfig) and self.solver.criterion != "none":
            return self.solver.criterion
        return "gic"


def _stagewise_grid_points(path):
    """Thin a path to one snapshot per lambda level, capped at ``CV_GRID_MAX``."""
    steps = path.steps
    last = [
        step for i, step in enumerate(steps)
        if i + 1 == len(steps) or steps[i + 1].lam < step.lam
    ]
    if len(last) > CV_GRID_MAX:
        idx = np.linspace(0, len(last) - 1, CV_GRID_MAX).round().astype(int)
        last = [last[i] for i in sorted(set(idx.tolist()))]
    return [(step.lam, step.factor) for step in last]


def _acs_rss_df(problem, fac):
    """Residual sum of squares and ``||u||_0 + ||v||_0 - 1`` of an ACS level."""
    R = residual(problem, fac)
    if fac.is_zero:
        df = 0
    else:
        df = int(np.count_nonzero(fac.u)) + int(np.count_nonzero(fac.v)) - 1
    return float(np.vdot(R, R)), df


def _fit_unit_rank(problem, cfg):
    """One unit-rank solve with per-layer tuning; returns an L1-mode factor."""
    solver = cfg.solver
    criterion = cfg.resolved_criterion()
    if isinstance(solver, StagewiseConfig):
        path = run_path(problem, solver)
        if criterion == "cv":
            # The training folds' paths run in lockstep on one engine.
            def fit_folds(folds):
                return [_stagewise_grid_points(p) for p in run_paths(folds, solver)]

            points = _stagewise_grid_points(path)
            sel = kfold_cv_select(problem, points, fit_folds, cfg.cv_folds, cfg.cv_seed)
            return points[sel.index][1]
        if len(path.steps) == 1 and path.steps[0].factor.is_zero:
            return path.steps[0].factor
        return select_on_path(path, criterion).factor
    grid = solver.lambda_grid
    if grid is None:
        grid = default_lambda_grid(problem)
    if len(grid) == 1:
        return acs_path(problem, grid, config=solver)[0][1]
    if criterion == "cv":
        # The folds are aligned to the full-data grid, so all of it is solved.
        def fit_folds(folds):
            return [acs_path(pb, grid, config=solver) for pb in folds]

        pairs = acs_path(problem, grid, config=solver)
        sel = kfold_cv_select(problem, pairs, fit_folds, cfg.cv_folds, cfg.cv_seed)
        return pairs[sel.index][1]
    scan = GridScan(problem, criterion)
    pairs = acs_path(problem, grid, config=solver,
                     stop=lambda fac: scan.update(*_acs_rss_df(problem, fac)))
    return pairs[scan.best][1]


def deflate(problem, cfg):
    if cfg.strategy == "sequential":
        return sequential_pursuit(problem, cfg)
    return parallel_pursuit(problem, cfg)


def sequential_pursuit(problem, cfg):
    """Fit layers one at a time on successively deflated responses.

    Stops early (with a warning) when a layer comes back zero; the returned
    model's layers are in extraction order, re-expressed in the predictor
    metric (PORTH).
    """
    if cfg.strategy != "sequential":
        raise ValueError("config strategy is not 'sequential'")
    X = problem.X
    Yk = problem.Y.copy()
    layers = []
    for k in range(cfg.rank):
        pk = ProblemData(X, Yk, problem.mask)
        fac = _fit_unit_rank(pk, cfg)
        if fac.is_zero:
            warnings.warn(
                f"layer {k + 1} is zero; stopping at effective rank {len(layers)}",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        layer = renormalize_factor(fac, NormMode.PORTH, X)
        layers.append(layer)
        Yk = Yk - X @ layer.to_matrix()
    return FactorModel(tuple(layers))


def _pilot_matrix(problem, cfg):
    init = cfg.initializer
    if isinstance(init, LassoInitializer):
        C, _, _ = lasso_gic_path(problem)
        return C
    if isinstance(init, RrrInitializer):
        return fit_rrr(problem.X, problem.observed_response(), cfg.rank,
                       _rrr_ridge(problem.X))
    raise TypeError("initializer must be a LassoInitializer or RrrInitializer")


def parallel_pursuit(problem, cfg):
    """Refit each pilot layer against the response minus the other layers.

    The pilot coefficient matrix is split by the predictor-metric SVD; a
    pilot of lower rank shrinks the target rank with a warning.  Layer
    subproblems are independent and may be solved in any order.
    """
    if cfg.strategy != "parallel":
        raise ValueError("config strategy is not 'parallel'")
    X = problem.X
    C_pilot = _pilot_matrix(problem, cfg)
    pilot = p_orthogonal_svd(X, C_pilot, cfg.rank)
    if pilot.rank == 0:
        # Nothing to remove from any subproblem; every layer sees the raw Y.
        warnings.warn("pilot estimate is zero; all layers fit the full response",
                      RuntimeWarning, stacklevel=2)
        mats = [np.zeros((problem.p, problem.q)) for _ in range(cfg.rank)]
    else:
        if pilot.rank < cfg.rank:
            warnings.warn(
                f"pilot rank {pilot.rank} is below the target {cfg.rank};"
                " fitting only the pilot layers",
                RuntimeWarning, stacklevel=2,
            )
        mats = [lay.to_matrix() for lay in pilot.layers]
    if cfg.s_threshold is not None:
        mats = [hard_threshold_layer(M, cfg.s_threshold) for M in mats]
    total = np.zeros((problem.p, problem.q))
    for M in mats:
        total += M
    layers = []
    for k, M in enumerate(mats):
        Yk = problem.Y - X @ (total - M)
        fac = _fit_unit_rank(ProblemData(X, Yk, problem.mask), cfg)
        if fac.is_zero:
            warnings.warn(f"parallel layer {k + 1} refit to zero; dropping it",
                          RuntimeWarning, stacklevel=2)
            continue
        layers.append(renormalize_factor(fac, NormMode.PORTH, X))
    return FactorModel(tuple(layers))


def orthogonality_diagnostics(model, X):
    """Gram matrices of the fitted loadings in the predictor metric.

    Returns ``((XU)^T XU / n, V^T V)``; both are the identity for an exact
    predictor-metric SVD, and their off-diagonal mass measures how far a
    deflated fit drifts from orthogonality.
    """
    U = model.stacked_u()
    V = model.stacked_v()
    XU = X @ U
    return XU.T @ XU / X.shape[0], V.T @ V

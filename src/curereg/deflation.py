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
alternating solver on a decreasing penalty grid; ``DeflationConfig.criterion``
is the tuning rule of every layer.
"""

from __future__ import annotations

import warnings
# Unused here: no layer runs on a thread pool.  perfbench/tracer.py still
# replaces this name and fails to install without it (ROADMAP item 2).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np

from .baselines import (
    AcsConfig,
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
# in tuning (ROADMAP item 2); the tracer fails to install without the name.
from .tuning import information_criterion  # noqa: F401

__all__ = [
    "DeflationConfig",
    "deflate",
    "sequential_pursuit",
    "parallel_pursuit",
    "orthogonality_diagnostics",
]

STRATEGIES = ("sequential", "parallel")
SELECTIONS = CRITERIA + ("cv",)
# Pilot estimates of parallel pursuit: the entrywise lasso, its level picked
# by GIC over a grid, or reduced-rank regression (``fit_rrr``).
INITIALIZERS = ("lasso", "rrr")
CV_GRID_MAX = 50
# A criterion path that early-stops above this share of lambda0 warns.
EARLY_STOP_SHARE = 0.2


@dataclass
class DeflationConfig:
    """How to build a rank-``rank`` model out of unit-rank solves.

    ``criterion`` (one of :data:`SELECTIONS`) is the per-layer tuning rule of
    either solver.  A stagewise layer runs its path with it in place of the
    solver config's own criterion and picks the step that minimizes it; under
    ``cv`` the path runs without one.  ``initializer`` (one of
    :data:`INITIALIZERS`) and ``s_threshold`` only apply to the parallel
    strategy.
    """

    strategy: str
    rank: int
    solver: object  # StagewiseConfig | AcsConfig
    initializer: str | None = None
    s_threshold: int | None = None
    criterion: str = "gic"
    cv_folds: int = 5
    cv_seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not isinstance(self.solver, (StagewiseConfig, AcsConfig)):
            raise TypeError("solver must be a StagewiseConfig or an AcsConfig")
        if self.criterion not in SELECTIONS:
            raise ValueError(f"criterion must be one of {SELECTIONS}")
        if self.initializer not in (None, *INITIALIZERS):
            raise ValueError(f"initializer must be one of {INITIALIZERS}")
        if self.strategy == "parallel" and self.initializer is None:
            raise ValueError("parallel pursuit needs an initializer (lasso or rrr)")
        if self.s_threshold is not None and self.s_threshold < self.rank:
            raise ValueError("s_threshold must be at least the target rank")


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


def _fit_unit_rank(problem, cfg, explain_zero=False):
    """One unit-rank solve with per-layer tuning; returns an L1-mode factor.

    With ``explain_zero``, a stagewise path that cannot leave zero while the
    observed Y is not all zero warns with lambda0, epsilon and the RMS of Y.
    A stagewise path that early-stops above :data:`EARLY_STOP_SHARE` of
    lambda0 warns with both lambdas and epsilon.
    """
    solver, criterion = cfg.solver, cfg.criterion
    if isinstance(solver, StagewiseConfig):
        # A CV layer compares whole paths, so they run without early stop.
        solver = replace(solver, criterion="none" if criterion == "cv" else criterion)
        path = run_path(problem, solver)
        lam0 = path.steps[0].lam
        if explain_zero and lam0 <= 0.0:
            Y = problem.observed_response()
            top = float(np.abs(Y).max())
            if top > 0.0:
                # Scaled by the largest entry so a tiny Y does not underflow.
                rms = top * float(np.linalg.norm(Y / top) / np.sqrt(problem.n_observed))
                warnings.warn(
                    f"the stagewise path cannot leave zero: lambda0 = {lam0:.3e} <= 0,"
                    f" so no first step of epsilon = {solver.epsilon:g} lowers the loss"
                    f" (RMS of the layer's observed Y = {rms:.3e}); epsilon is absolute,"
                    " so scale Y up or lower epsilon",
                    RuntimeWarning,
                    stacklevel=3,
                )
        lam_stop = path.steps[-1].lam
        if path.terminated_by == "early_stop" and lam_stop > EARLY_STOP_SHARE * lam0:
            warnings.warn(
                f"the stagewise path stopped early at lambda = {lam_stop:.3e}, above"
                f" {EARLY_STOP_SHARE:g} of lambda0 = {lam0:.3e}: the {criterion} criterion"
                f" stalled while steps of epsilon = {solver.epsilon:g} were small against Y;"
                " epsilon is absolute, so scale Y down or raise epsilon",
                RuntimeWarning,
                stacklevel=3,
            )
        if criterion != "cv":
            return select_on_path(path).factor
        # The training folds' paths run in lockstep on one engine.
        def fit_folds(folds):
            return [_stagewise_grid_points(p) for p in run_paths(folds, solver)]

        points = _stagewise_grid_points(path)
        del path  # the grid points are all that CV reads of it
    else:
        grid = solver.lambda_grid
        if grid is None:
            grid = default_lambda_grid(problem)
        if len(grid) == 1:
            return acs_path(problem, grid, config=solver)[0][1]
        if criterion != "cv":
            scan = GridScan(problem, criterion)
            pairs = acs_path(problem, grid, config=solver,
                             stop=lambda fac: scan.update(*_acs_rss_df(problem, fac)))
            return pairs[scan.best][1]
        # The folds are aligned to the full-data grid, so all of it is solved.
        # One fold is drawn and solved at a time.
        def fit_folds(folds):
            return (acs_path(pb, grid, config=solver) for pb in folds)

        points = acs_path(problem, grid, config=solver)
    sel = kfold_cv_select(problem, points, fit_folds, cfg.cv_folds, cfg.cv_seed)
    return points[sel.index][1]


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
        # Only a zero first layer points to the scale of Y; a later one is
        # usually a residual of noise.
        fac = _fit_unit_rank(pk, cfg, explain_zero=k == 0)
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
    if cfg.initializer == "lasso":
        C, _, _ = lasso_gic_path(problem)
        return C
    return fit_rrr(problem.X, problem.observed_response(), cfg.rank)


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
        # Explained on the last layer, and only if every other one was dropped.
        explain = not layers and k == len(mats) - 1
        fac = _fit_unit_rank(ProblemData(X, Yk, problem.mask), cfg, explain_zero=explain)
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

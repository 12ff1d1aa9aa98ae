"""Model selection utilities: information criteria, early stopping, CV.

The default criterion trades fit against a degrees-of-freedom count
``df = ||u||_0 + ||v||_0 - 1`` for a unit-rank layer:

    gic = log(rss) + loglog(N) * log(p*q) / N * df

with ``N`` the number of observed response entries (``n*q`` when fully
observed).  AIC and BIC use the usual Gaussian profile forms on the same
``N``.  All logs are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ProblemData, UnitRankFactor

__all__ = [
    "CriterionInput",
    "information_criterion",
    "EarlyStop",
    "GridScan",
    "kfold_cv_select",
    "CvSelection",
]

CRITERIA = ("gic", "aic", "bic")

# Levels without criterion improvement after which a penalty grid stops.
GRID_STOP_WINDOW = 10


@dataclass(frozen=True)
class CriterionInput:
    """Inputs for an information criterion.

    ``observed`` is the count of observed response entries; None means the
    fully observed ``n * q``.  For partially observed problems pass
    ``mask.sum()`` -- the criterion substitutes it for ``n * q``.
    """

    rss: float
    n: int
    p: int
    q: int
    df: int
    observed: int | None = None

    @property
    def n_effective(self):
        return self.n * self.q if self.observed is None else self.observed


def information_criterion(kind, inp):
    """Evaluate gic / aic / bic for one candidate model."""
    kind = kind.lower()
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion {kind!r}; expected one of {CRITERIA}")
    if inp.rss <= 0.0:
        raise ValueError("rss must be positive; the criterion is undefined at a perfect fit")
    if inp.df < 0:
        raise ValueError("df must be nonnegative")
    N = inp.n_effective
    if kind == "gic":
        if N < 3:
            raise ValueError("gic needs at least 3 observed entries (loglog)")
        return math.log(inp.rss) + math.log(math.log(N)) * math.log(inp.p * inp.q) / N * inp.df
    if kind == "aic":
        return N * math.log(inp.rss / N) + 2.0 * inp.df
    return N * math.log(inp.rss / N) + math.log(N) * inp.df


class EarlyStop:
    """Incremental early-stop rule, fed one criterion value per step.

    :meth:`update` returns True once the running minimum has not improved in
    the last ``window`` entries.  None or non-finite values never improve it.
    """

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be a positive integer")
        self.window = window
        self.best = math.inf
        self.count = self.last_improve = 0

    def update(self, value):
        if value is not None and math.isfinite(value) and value < self.best:
            self.best = float(value)
            self.last_improve = self.count
        self.count += 1
        return self.count - 1 - self.last_improve >= self.window


class GridScan:
    """Information-criterion selection down a penalty grid, with a stop rule.

    Fed one solved level at a time through :meth:`update`, it scores the
    level on ``problem`` (an rss of 0 scores -inf), keeps the index of the
    first argmin in ``best`` and returns True once :class:`EarlyStop` with
    ``window`` levels (default :data:`GRID_STOP_WINDOW`) finds the criterion
    stalled.  A window of None never stops.  Levels past the stop cannot change the pick unless the
    criterion improves again after ``window`` levels without improvement.
    """

    def __init__(self, problem, criterion, window=GRID_STOP_WINDOW):
        self.criterion = criterion
        self.shape = (problem.n, problem.p, problem.q)
        self.observed = None if problem.mask is None else problem.n_observed
        self.stop = None if window is None else EarlyStop(window)
        self.best = None
        self.best_value = None
        self.levels = 0

    def update(self, rss, df):
        if rss <= 0.0:
            value = -math.inf
        else:
            value = information_criterion(
                self.criterion, CriterionInput(rss, *self.shape, df, self.observed)
            )
        if self.best is None or value < self.best_value:
            self.best, self.best_value = self.levels, value
        self.levels += 1
        return self.stop is not None and self.stop.update(value)


class CvSelection(NamedTuple):
    index: int
    lam: float
    cv_errors: np.ndarray


def _fold_indices(n, folds, seed):
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, n]; got {folds} with n={n}")
    order = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(order, folds)
    for part in parts:
        if part.size == 0:
            raise ValueError("a fold came out empty; reduce the number of folds")
    return parts


def _predict(X, model):
    """``X C`` for a coefficient matrix, ``d (X u) v^T`` for a unit-rank factor."""
    if isinstance(model, UnitRankFactor):
        return np.outer(model.d * (X @ model.u), model.v)
    return X @ model


def kfold_cv_select(problem, full_path, fit_folds, folds=5, seed=0):
    """Pick a point of a full-data path by row-wise K-fold cross-validation.

    ``full_path`` is the caller's full-data path of ``(lam, model)`` pairs,
    ``lam`` nonincreasing; its lambdas fix the grid, and
    ``full_path[sel.index]`` is the pick.  ``fit_folds(problems)`` gets the
    K training folds at once, as a list of problems, and must return one
    path per fold, in order, each a list of ``(lam, model)`` pairs; a model
    is a p x q coefficient matrix or a :class:`UnitRankFactor` (scored
    without forming its matrix).  It may solve the folds together.
    A fold path is aligned to the grid by nearest lambda (earlier point on
    ties).  Held-out error for a candidate C is
    ``||P(Y_test - X_test C)||_F^2 / (2 * n_test)`` summed over observed
    entries, averaged across folds.  Returns the argmin grid point (first on
    ties) with the per-point mean errors.
    """
    if not full_path:
        raise ValueError("the full-data path is empty")
    grid = np.array([lam for lam, _ in full_path], dtype=float)
    parts = _fold_indices(problem.n, folds, seed)
    all_rows = np.arange(problem.n)
    trains = []
    for test_rows in parts:
        train_rows = np.setdiff1d(all_rows, test_rows)
        tr_mask = None if problem.mask is None else problem.mask[train_rows]
        trains.append(ProblemData(problem.X[train_rows], problem.Y[train_rows], tr_mask))
    fold_paths = [list(path) for path in fit_folds(trains)]
    if len(fold_paths) != len(parts):
        raise ValueError(
            f"fit_folds returned {len(fold_paths)} paths for {len(parts)} folds")
    errors = np.zeros((len(parts), grid.size))
    for f, (test_rows, fold_path) in enumerate(zip(parts, fold_paths)):
        if not fold_path:
            raise ValueError("fit_folds returned an empty path for a training fold")
        fold_lams = np.array([lam for lam, _ in fold_path], dtype=float)
        Xte = problem.X[test_rows]
        Yte = problem.Y[test_rows]
        te_mask = None if problem.mask is None else problem.mask[test_rows]
        if te_mask is not None:
            Yte = np.where(te_mask, Yte, 0.0)
        n_te = test_rows.size
        for g, lam in enumerate(grid):
            j = int(np.argmin(np.abs(fold_lams - lam)))
            R = Yte - _predict(Xte, fold_path[j][1])
            if te_mask is not None:
                R = np.where(te_mask, R, 0.0)
            errors[f, g] = float(np.vdot(R, R)) / (2.0 * n_te)
    mean_err = errors.mean(axis=0)
    best = int(np.argmin(mean_err))
    return CvSelection(best, float(grid[best]), mean_err)

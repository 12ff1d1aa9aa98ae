"""Model selection utilities: information criteria, early stopping, CV.

The default criterion trades fit against a degrees-of-freedom count
``df = ||u||_0 + ||v||_0 - 1`` for a unit-rank layer:

    gic = log(rss) + loglog(N) * log(p*q) / N * df

with ``N`` the number of observed response entries,
:attr:`~curereg.core.ProblemData.n_observed` (``n*q`` when fully observed).
AIC and BIC use the usual Gaussian profile forms on the same ``N``.  All
logs are natural.  :func:`information_criterion` takes these as plain
numbers, so a grid level and a path step are scored by the same call.

Every criterion path, stagewise steps or a penalty grid, is picked and
stopped by one rule, :class:`EarlyStop`.  The pick is the first minimum of
the criterion: ties go to the earliest entry, None and NaN are never
picked, and a perfect fit enters as -inf, which beats every other value.
The path stops once the running minimum of the finite values has not
improved for a window of entries; a -inf does not restart that window.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import UnitRankFactor

__all__ = [
    "information_criterion",
    "EarlyStop",
    "GridScan",
    "kfold_cv_select",
    "CvSelection",
]

CRITERIA = ("gic", "aic", "bic")

# Levels without criterion improvement after which a penalty grid stops.
GRID_STOP_WINDOW = 10


def information_criterion(kind, rss, df, p, q, n_observed):
    """Evaluate gic / aic / bic for one candidate model.

    ``rss`` and ``df`` describe the candidate, ``p`` and ``q`` the problem,
    and ``n_observed`` is its count of observed response entries
    (:attr:`~curereg.core.ProblemData.n_observed`).
    """
    kind = kind.lower()
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion {kind!r}; expected one of {CRITERIA}")
    if rss <= 0.0:
        raise ValueError("rss must be positive; the criterion is undefined at a perfect fit")
    if df < 0:
        raise ValueError("df must be nonnegative")
    N = n_observed
    if kind == "gic":
        if N < 3:
            raise ValueError("gic needs at least 3 observed entries (loglog)")
        return math.log(rss) + math.log(math.log(N)) * math.log(p * q) / N * df
    if kind == "aic":
        return N * math.log(rss / N) + 2.0 * df
    return N * math.log(rss / N) + math.log(N) * df


class EarlyStop:
    """The pick and the stop of one criterion path; see the module docstring.

    :meth:`update` takes the next entry and returns True once the path has
    stalled.  ``best`` is the index of the pick, None until an entry can be
    picked, and ``best_value`` its value.
    """

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be a positive integer")
        self.window = window
        self.best = None
        self.best_value = self.floor = math.inf
        self.count = self.last_improve = 0

    def update(self, value):
        if value is not None and value < self.floor:  # finite or -inf
            if value < self.best_value:
                self.best, self.best_value = self.count, value
            if value > -math.inf:
                self.floor, self.last_improve = value, self.count
        elif self.best is None and value == math.inf:
            self.best = self.count
        self.count += 1
        return self.count - 1 - self.last_improve >= self.window


class GridScan(EarlyStop):
    """:class:`EarlyStop` down a penalty grid, with :data:`GRID_STOP_WINDOW`.

    It keeps ``(p, q, n_observed)`` of ``problem``, and :meth:`update` takes
    one solved level as its ``rss`` and ``df``, scored by
    :func:`information_criterion` (an rss of 0 scores -inf).
    """

    def __init__(self, problem, criterion):
        super().__init__(GRID_STOP_WINDOW)
        self.criterion = criterion
        self.shape = (problem.p, problem.q, problem.n_observed)

    def update(self, rss, df):
        if rss <= 0.0:
            return super().update(-math.inf)
        return super().update(information_criterion(self.criterion, rss, df, *self.shape))


class CvSelection(NamedTuple):
    index: int
    lam: float
    cv_errors: np.ndarray


def fold_indices(n, folds, seed):
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, n]; got {folds} with n={n}")
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, folds)


def _predict(X, model):
    """``X C`` for a matrix, ``d (X u) v^T`` for a factor, ``model(X)`` for a function."""
    if isinstance(model, UnitRankFactor):
        return np.outer(model.d * (X @ model.u), model.v)
    return model(X) if callable(model) else X @ model


def kfold_cv_select(problem, full_path, fit_folds, folds=5, seed=0):
    """Pick a point of a full-data path by row-wise K-fold cross-validation.

    ``full_path`` is the caller's full-data path of ``(lam, model)`` pairs,
    ``lam`` nonincreasing; its lambdas fix the grid, and
    ``full_path[sel.index]`` is the pick.  ``fit_folds(problems)`` draws the
    K training folds, in order, from an iterator that builds each fold's
    problem only when it is drawn, and must return one path per fold, in
    order, each a list of ``(lam, model)`` pairs; a model is a p x q
    coefficient matrix, a :class:`UnitRankFactor` (scored without forming
    its matrix) or a function of X that returns ``X C``.  It may draw every
    fold and solve them together, or yield their paths one at a time: each
    fold is scored as its path arrives, and no fold is kept here, so a
    fitter that yields a path per fold holds one training fold while it
    solves it (two while it draws the next).
    A fold path is aligned to the grid by nearest lambda (earlier point on
    ties).  Held-out error for a candidate C is
    ``||P(Y_test - X_test C)||_F^2 / (2 * n_test)`` summed over observed
    entries, averaged across folds.  Returns the argmin grid point (first on
    ties) with the per-point mean errors.
    """
    if not full_path:
        raise ValueError("the full-data path is empty")
    grid = np.array([lam for lam, _ in full_path], dtype=float)
    parts = fold_indices(problem.n, folds, seed)
    outside = np.ones((len(parts), problem.n), dtype=bool)
    for f, test_rows in enumerate(parts):
        outside[f, test_rows] = False  # np.setdiff1d's rows, without loading numpy.ma
    trains = (problem.rows(np.flatnonzero(rows)) for rows in outside)
    errors = np.zeros((len(parts), grid.size))
    f = 0  # counted by hand: enumerate would hold the last path while the next is made
    for fold_path in map(list, fit_folds(trains)):
        if f == len(parts):
            raise ValueError(f"fit_folds returned more than {f} paths for {f} folds")
        if not fold_path:
            raise ValueError("fit_folds returned an empty path for a training fold")
        fold_lams = np.array([lam for lam, _ in fold_path], dtype=float)
        test = problem.rows(parts[f])
        for g, lam in enumerate(grid):
            j = int(np.argmin(np.abs(fold_lams - lam)))
            errors[f, g] = test.rss(_predict(test.X, fold_path[j][1])) / (2.0 * test.n)
        f += 1
        del fold_path  # not held while a lazy fit_folds makes the next path
    if f != len(parts):
        raise ValueError(f"fit_folds returned {f} paths for {len(parts)} folds")
    mean_err = errors.mean(axis=0)
    best = int(np.argmin(mean_err))
    return CvSelection(best, float(grid[best]), mean_err)

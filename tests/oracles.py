"""Reference evaluations of the unit-rank and lasso objectives.

The tests check the solvers' incremental bookkeeping against these plain,
from-scratch formulas; no code of the package calls them.
"""

import numpy as np

from curereg.core import residual


def eval_loss(problem, factor, mu=0.0):
    """Squared-error loss of a unit-rank fit, plus an optional ridge term.

    Returns ``||P(Y - d X u v^T)||_F^2 / (2n) + (mu/2) ||d u v^T||_F^2``
    where ``P`` zeroes unobserved entries.  Only observed response entries
    contribute to the first term.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    R = residual(problem, factor)
    n = problem.n
    rss = float(np.vdot(R, R))
    ridge = factor.d ** 2 * float(np.dot(factor.u, factor.u)) * float(np.dot(factor.v, factor.v))
    loss = rss / (2.0 * n) + 0.5 * mu * ridge
    if not np.isfinite(loss):
        raise FloatingPointError("loss evaluated to a non-finite value")
    return loss


def eval_penalty(factor, lam):
    """Multiplicative l1 penalty ``lam * d * ||u||_1 * ||v||_1``.

    For a factor in L1 mode this is just ``lam * d``; the general form is
    evaluated so RAW factors are handled too.
    """
    if factor.d < 0:
        raise ValueError("d must be nonnegative")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return lam * factor.d * float(np.abs(factor.u).sum()) * float(np.abs(factor.v).sum())


def lasso_objective(problem, C, lam):
    """Multivariate lasso objective ``||P(Y - XC)||_F^2 / (2n) + lam ||C||_1``."""
    return problem.rss(problem.X @ C) / (2.0 * problem.n) + lam * float(np.abs(C).sum())

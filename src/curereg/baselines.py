"""Convex baselines: matrix lasso, alternating unit-rank search, RRR.

The alternating solver attacks the unit-rank objective

    ||P(Y - X a v^T)||_F^2 / (2n) + (mu/2) ||a||_2^2 ||v||_2^2
        + lam * ||a||_1 ||v||_1

by exact block minimization: with v fixed the problem in ``a`` is a weighted
single-response lasso; with ``a`` fixed the problem in the response loadings
decouples across columns and has a closed form.  The objective only depends
on the product ``a v^T``, so the loadings are free to be rescaled between
blocks.

The a-block and each response column of the matrix lasso are one problem,
``1/2 s x^T H x + 1/2 c ||x||^2 - b^T x + pen ||x||_1`` with
``H = X^T diag(w) X / n``, solved by one covariance-form coordinate descent
(:func:`_weighted_lasso`).  Once a pass leaves every sign unchanged, the
nonzero block is finished by a linear solve on its sign pattern
(feature-sign search), whose block comes from one ``GramCache.block``
call.  The problem keeps the Gram columns: unweighted in
``ProblemData.gram`` and, for the masked lasso, one weighted cache per
response column in ``ProblemData.column_grams``, so penalty levels share
them.  ``lasso_cd`` screens the columns that start at zero: from zero the
kernel's first check is ``|X^T Y / n| - lam`` on the live coordinates, so a
column that passes it is finished without a kernel call.  The screen is
exact; no answer moves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    GramCache,
    NormMode,
    ProblemData,
    UnitRankFactor,
    p_orthogonal_svd,
    renormalize_factor,
)
from .tuning import GridScan, kfold_cv_select

__all__ = [
    "lasso_cd",
    "lasso_gic_path",
    "lasso_objective",
    "AcsConfig",
    "acs_cure",
    "acs_path",
    "svd_of_ols_factor",
    "fit_rrr",
    "default_rrr_ridge",
    "select_rank_cv",
    "default_lambda_grid",
]

# Sweep cap (passes plus exact solves) of an a-block solve.  Passes alone can
# take thousands of sweeps on an ill-conditioned active block (5,435 on one
# instance-A layer, condition number ~5.4e3); the sign-pattern solve ends
# every a-block of that fit within 14.  The margin is for singular blocks,
# which fall back to plain passes.
ACS_MAX_SWEEPS = 20_000
# The alternating search's stopping rule: the objective moves by at most
# ACS_TOL relative to its scale (see acs_cure), or the search ends, with a
# warning, after ACS_MAX_ITERS alternations.
ACS_TOL = 1e-8
ACS_MAX_ITERS = 500
# The lasso's stopping rule: every entry meets its subgradient condition
# within LASSO_TOL * min(1, lam_max), or a response column's solve ends,
# with a warning, after LASSO_MAX_SWEEPS passes plus exact solves.
LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 2000


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _weighted_lasso(gram, s, c, b, pen, x, tol, max_sweeps):
    """Minimize ``1/2 s x^T H x + 1/2 c ||x||^2 - b^T x + pen ||x||_1`` from ``x``.

    ``gram`` supplies ``H``'s diagonal and columns; ``g = H x`` is kept up to
    date.  A vectorized check of every coordinate's subgradient condition
    adds the violators to the active set, which is cycled on Python floats.
    After a pass in which no coordinate entered, left or changed sign,
    :func:`_sign_solve` finishes the nonzero block exactly and control goes
    back to the check.  Where it cannot (a singular block), passes go on
    until a sign changes; they also stop once no coordinate moves by more
    than ``tol`` (gradient units).  The routine ends when every violation is
    at most ``tol`` or after ``max_sweeps`` passes and solves.
    Zero-curvature coordinates stay zero.  Returns ``(x, worst, sweeps)``.
    ``pen`` must be finite.
    """
    sd = s * gram.diag
    curv = sd + c
    live = curv > 0.0
    dead = None if live.all() else ~live
    x = np.where(live, x, 0.0)
    bl, cl, sd, xl = b.tolist(), curv.tolist(), sd.tolist(), x.tolist()
    nz = np.flatnonzero(x).tolist()
    m = b.size
    g = np.zeros(m)  # H x
    tmp = np.empty(m)  # h * col, added to g in the order of a plain loop
    for j in nz:
        g += np.multiply(gram.col(j), xl[j], out=tmp)
    active = set(nz)
    grad = np.empty(m)
    viol = np.empty(m)
    sweeps = 0
    while True:
        # grad = s g + c x - b, in place.  Operands are swapped only where IEEE
        # arithmetic commutes, so every value is the plain expression's.  With
        # c = 0 the c x term only moves the sign of a zero, which the absolute
        # values below discard.
        np.multiply(g, s, out=grad)
        if c:
            grad += np.multiply(x, c, out=viol)
        grad -= b
        # viol = |grad + pen sign(x)| where x != 0, |grad| - pen elsewhere.
        np.sign(x, out=viol)
        viol *= pen
        viol += grad
        np.abs(viol, out=viol)
        np.subtract(viol, pen, out=viol, where=x == 0.0)
        if dead is not None:
            viol[dead] = 0.0
        worst = float(viol.max(initial=0.0))
        if worst <= tol or sweeps >= max_sweeps:
            return x, worst, sweeps
        active.update(np.flatnonzero(viol > tol).tolist())
        order = sorted(active)
        cols = [gram.col(j) for j in order]
        stale = False  # a solve failed and no sign has changed since
        while True:
            sweeps += 1
            biggest = 0.0
            flipped = False
            for j, col in zip(order, cols):
                old = xl[j]
                z = bl[j] - s * g.item(j) + sd[j] * old
                if z > pen:
                    new = (z - pen) / cl[j]
                elif z < -pen:
                    new = (z + pen) / cl[j]
                else:
                    new = 0.0
                if new != old:
                    g += np.multiply(col, new - old, out=tmp)
                    xl[j] = new
                    if old * new <= 0.0:
                        flipped = True
                    moved = abs(new - old) * cl[j]
                    if moved > biggest:
                        biggest = moved
            if sweeps >= max_sweeps:
                break
            if flipped:
                stale = False
            elif not stale and biggest > 0.0:
                P = [j for j in order if xl[j] != 0.0]
                xP, g, used, exact = _sign_solve(
                    gram, P, s, c, b, pen, np.array([xl[j] for j in P]),
                    max_sweeps - sweeps,
                )
                sweeps += used
                for j, v in zip(P, xP.tolist()):
                    xl[j] = v
                if exact or sweeps >= max_sweeps:
                    break
                stale = exact is None
            if biggest <= tol:
                break
        x = np.array(xl)


def _sign_solve(gram, P, s, c, b, pen, x, budget):
    """Finish the nonzero block P on its sign pattern (feature-sign search).

    Solves ``(s H_PP + c I) x_P = b_P - pen sign(x_P)``.  If every sign
    holds, that is the block's minimizer.  Otherwise the point moves toward
    the solution as far as the first sign crossing, that coordinate is set
    to zero and the smaller block is solved again (Lee, Battle, Raina & Ng
    2007, *Efficient sparse coding algorithms*).  Each move lowers the
    objective, a convex quadratic on the current orthant.  ``x`` holds the
    block's values and is updated in place.  Returns
    ``(x, g, solves, exact)`` with ``g = H x``.  ``exact`` is True when
    the signs held, None when a block was singular (its solve inaccurate or
    not a descent), and False when the block emptied or ``budget`` solves
    ran out.
    """
    Hc = gram.block(P)
    A = s * Hc[P]  # the whole block: the first solve needs no np.ix_
    on = np.arange(len(P))
    bP = b[P]
    xo = x.copy()
    solves = 0
    exact = False
    while on.size and solves < budget:
        solves += 1
        if c:  # the diagonal of s H_PP is positive, so adding 0.0 changes nothing
            A.reshape(-1)[:: on.size + 1] += c
        r = bP - pen * np.sign(xo)
        try:
            xs = np.linalg.solve(A, r)
        except np.linalg.LinAlgError:
            exact = None
            break
        d = xs - xo
        # Both tests are False for a non-finite solution.
        accurate = np.abs(A @ xs - r).max() <= 1e-6 * np.abs(r).max()
        if not (accurate and d @ (A @ (xo + 0.5 * d) - r) <= 0.0):
            exact = None
            break
        cross = xs * xo <= 0.0
        if not cross.any():
            x[on] = xs
            exact = True
            break
        t = xo[cross] / (xo[cross] - xs[cross])
        xt = xo + t.min() * d
        xt[np.flatnonzero(cross)[np.argmin(t)]] = 0.0
        xt[xt * xo < 0.0] = 0.0
        x[on] = xt
        keep = xt != 0.0
        on, bP, xo = on[keep], bP[keep], xt[keep]
        A = s * Hc[np.ix_(np.take(P, on), on)]
    return x, Hc @ x, solves, exact


def lasso_objective(problem, C, lam):
    return problem.rss(problem.X @ C) / (2.0 * problem.n) + lam * float(np.abs(C).sum())


def lasso_cd(problem, lam, warm=None, return_info=False):
    """Entrywise-l1 multivariate lasso by coordinate descent.

    Minimizes ``||P(Y - XC)||_F^2 / (2n) + lam ||C||_1``.  Response column k
    is a weighted lasso whose weights are the mask column (none when fully
    observed).  On convergence every entry meets the subgradient condition
    within ``tol = LASSO_TOL * min(1, lam_max)``: ``|g_jk + lam sign(C_jk)| <= tol``
    where ``C_jk != 0`` and ``|g_jk| <= lam + tol`` elsewhere, with
    ``g = -X^T P(Y - XC) / n`` and ``lam_max = max |X^T P(Y) / n|``
    (``LASSO_TOL`` itself when that is 0).  The gradients scale with Y, so
    an absolute tolerance would stop a small-Y fit early.  A column that
    takes ``LASSO_MAX_SWEEPS`` passes plus exact solves first leaves the
    last iterate, with a warning.  With ``return_info``, ``info["sweeps"]`` is
    the most passes plus exact solves that any response column took.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    X = problem.X
    n, p, q = problem.n, problem.p, problem.q
    C = np.zeros((p, q)) if warm is None else np.array(warm, dtype=float)
    if C.shape != (p, q):
        raise ValueError("warm start has the wrong shape")
    B = X.T @ problem.observed_response() / n
    grams = problem.column_grams
    # The exact zero-column screen.  From a zero start the kernel's first
    # check is |B| - lam over the live coordinates.  A column that passes it
    # would leave the kernel at once, with 0 sweeps and its start (dead
    # coordinates set to 0.0), so it is finished here.
    if problem.mask is None:
        live = (problem.gram.diag > 0.0)[:, None]
    else:
        live = np.stack([gram.diag for gram in grams], axis=1) > 0.0
    abs_B = np.abs(B)
    lam_max = float(abs_B.max(initial=0.0))
    tol = LASSO_TOL * min(1.0, lam_max) if lam_max > 0.0 else LASSO_TOL
    zero_worst = np.where(live, abs_B - lam, 0.0).max(axis=0, initial=0.0)
    screened = ~C.any(axis=0) & (zero_worst <= tol)
    trace = [lasso_objective(problem, C, lam)] if return_info else []
    C[~live & screened] = 0.0
    worst = 0.0
    sweeps = 0
    for k, gram in enumerate(grams):
        if not screened[k]:
            C[:, k], viol, used = _weighted_lasso(
                gram, 1.0, 0.0, B[:, k], lam, C[:, k], tol, LASSO_MAX_SWEEPS
            )
            worst = max(worst, viol)
            sweeps = max(sweeps, used)
        if return_info:
            trace.append(lasso_objective(problem, C, lam))
    converged = worst <= tol
    if not converged:
        warnings.warn(
            f"lasso_cd did not meet the stationarity tolerance in "
            f"{LASSO_MAX_SWEEPS} sweeps (violation={worst:.3e}, lam={lam:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    if return_info:
        return C, {"converged": converged, "sweeps": sweeps, "objective_trace": trace}
    return C


def default_lambda_grid(problem, num=50, floor=1e-3):
    """Log-spaced grid from the zero-threshold level down to ``floor`` times it."""
    lam_max = float(np.abs(problem.X.T @ problem.observed_response()).max()) / problem.n
    if lam_max <= 0:
        lam_max = 1.0
    return np.geomspace(lam_max, floor * lam_max, num)


def _penalty_grid(grid, name):
    """``grid`` as a float array, checked to be 1-d, nonempty, finite and
    strictly decreasing."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.isfinite(g).all() or np.any(np.diff(g) >= 0):
        raise ValueError(f"{name} must be finite and strictly decreasing")
    return g


def lasso_gic_path(problem, grid=None, criterion="gic", *, _whole_grid=False):
    """Warm-started lasso path with information-criterion selection.

    Degrees of freedom is the nonzero entry count; the first argmin wins.
    The path stops ``tuning.GRID_STOP_WINDOW`` levels after the last
    improvement of the criterion (:class:`~curereg.tuning.GridScan`).
    ``_whole_grid`` keeps solving past that stop, to the end of the grid;
    CV needs it, because its folds are aligned to the full-data grid.  Returns
    ``(C_best, lam_best, path)`` where path is the list of ``(lam, C)``
    solved down the grid.
    """
    grid = default_lambda_grid(problem) if grid is None else _penalty_grid(grid, "grid")
    scan = GridScan(problem, criterion)
    warm = None
    path = []
    for lam in grid:
        C = lasso_cd(problem, float(lam), warm=warm)
        warm = C
        path.append((float(lam), C))
        stalled = scan.update(problem.rss(problem.X @ C), int(np.count_nonzero(C)))
        if stalled and not _whole_grid:
            break
    lam_best, C_best = path[scan.best]
    return C_best, lam_best, path


# ---------------------------------------------------------------------------
# alternating convex search for one unit-rank layer


@dataclass
class AcsConfig:
    """Controls for the alternating solver.

    ``lambda_grid`` is only consumed by path/deflation drivers; a single
    call works at one penalty level.  The starting point is the rank-1
    layer of a ridge-OLS fit unless a factor is passed.  The stopping rule
    is the module constants ``ACS_TOL`` and ``ACS_MAX_ITERS``.
    """

    lambda_grid: np.ndarray | None = None
    mu: float = 1e-4

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and nonnegative")
        if self.lambda_grid is not None:
            self.lambda_grid = _penalty_grid(self.lambda_grid, "lambda_grid")


def default_rrr_ridge(X):
    """Ridge level used when the normal equations need regularizing."""
    X = np.asarray(X, dtype=float)
    return 1e-3 * float(np.einsum("ij,ij->", X, X)) / X.shape[1]


def _ridge_ols(X, Y):
    """Ridge-OLS coefficients ``(X^T X + ridge I)^{-1} X^T Y``.

    The one place a least-squares ridge is chosen: 0 when n > p and ``X^T X``
    has a Cholesky factor, else :func:`default_rrr_ridge` (with a
    ``RuntimeWarning`` when n > p, as X is then rank-deficient).  An
    all-zero X, whose default ridge is 0, raises ``ValueError``.
    """
    n, p = X.shape
    XtX = X.T @ X
    L = None
    if n > p:
        try:
            L = np.linalg.cholesky(XtX)
        except np.linalg.LinAlgError:
            warnings.warn("X is rank-deficient (X^T X is singular); the"
                          " least-squares fit uses default_rrr_ridge(X)",
                          RuntimeWarning, stacklevel=2)
    if L is None:
        try:
            L = np.linalg.cholesky(XtX + default_rrr_ridge(X) * np.eye(p))
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular normal equations (X is all zero)") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, X.T @ Y))


def svd_of_ols_factor(problem):
    """Rank-1 predictor-metric SVD layer of a ridge-OLS fit; ACS starting point."""
    X = problem.X
    model = p_orthogonal_svd(X, _ridge_ols(X, problem.observed_response()), 1)
    if model.rank == 0:
        return UnitRankFactor.zero(problem.p, problem.q)
    return model.layers[0]


def _acs_objective(problem, a, v, lam, mu):
    rss = problem.rss((problem.X @ a)[:, None] * v)  # np.outer's product
    l2 = float(a @ a) * float(v @ v)
    l1 = float(np.abs(a).sum()) * float(np.abs(v).sum())
    return rss / (2.0 * problem.n) + 0.5 * mu * l2 + lam * l1


def _a_step(problem, Y0, Hf, a, v, lam, mu, inner_tol):
    """Exact weighted lasso in a with v fixed; returns ``(a, converged)``."""
    X = problem.X
    v22 = float(v @ v)
    gram, s = (problem.gram, v22) if Hf is None else (GramCache(X, Hf @ (v * v)), 1.0)
    b = X.T @ (Y0 @ v) / problem.n
    b_max = float(np.abs(b).max())
    tol = inner_tol * b_max if b_max > 0.0 else inner_tol
    a, worst, _ = _weighted_lasso(
        gram, s, mu * v22, b, lam * float(np.abs(v).sum()), a, tol, ACS_MAX_SWEEPS
    )
    return a, worst <= tol


def _b_step(problem, Y0, Hf, a, lam, mu):
    """Closed-form response loadings with a fixed; columns decouple."""
    n = problem.n
    w = problem.X @ a
    a1 = float(np.abs(a).sum())
    a22 = float(a @ a)
    c = (Y0.T @ w) / n
    if Hf is not None:
        denom = (Hf * (w * w)[:, None]).sum(axis=0) / n + mu * a22
        b = np.zeros_like(c)
        ok = denom > 0
        b[ok] = _soft(c[ok], lam * a1) / denom[ok]
        return b
    denom = float(w @ w) / n + mu * a22
    if denom <= 0.0:
        return np.zeros_like(c)
    return _soft(c, lam * a1) / denom


def acs_cure(problem, lam, init=None, config=None, return_trace=False):
    """Alternating block minimization of the unit-rank objective at one lam.

    ``init`` is a UnitRankFactor starting point (default: rank-1 layer of a
    ridge-OLS fit); ``mu`` comes from ``config``.
    Alternates exact a- and v-blocks until the objective moves by at most
    ``ACS_TOL`` times the larger of the previous objective and the zero
    model's ``||P Y||^2 / (2n)`` capped at 1, or the factor collapses to zero;
    each a-block solves to a tolerance relative to its ``||b||_inf``, so a
    small Y keeps its layers.  Warns when ``ACS_MAX_ITERS`` runs out first or an
    a-block solve hits its sweep cap.  Returns the factor in L1 normalization
    (plus the objective trace when asked).
    """
    config = config or AcsConfig()
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    if init is None:
        init = svd_of_ols_factor(problem)
    zero = UnitRankFactor.zero(problem.p, problem.q, NormMode.L1)
    if init.is_zero:
        return (zero, [0.0]) if return_trace else zero
    if not np.any(problem.X @ init.u):
        raise ValueError("degenerate init: X @ u is identically zero")
    a = init.d * init.u.astype(float).copy()
    v = init.v.astype(float).copy()
    nv = np.linalg.norm(v)
    if nv == 0:
        return (zero, [0.0]) if return_trace else zero
    a *= nv
    v = v / nv
    mu = config.mu
    Y0 = problem.observed_response()
    Hf = None if problem.mask is None else problem.mask.astype(float)
    tol, max_iters = ACS_TOL, ACS_MAX_ITERS
    inner_tol = min(1e-9, tol)
    floor = min(1.0, float(np.vdot(Y0, Y0)) / (2.0 * problem.n))
    trace = [_acs_objective(problem, a, v, lam, mu)]
    result = None
    capped = 0
    for _ in range(max_iters):
        a, ok = _a_step(problem, Y0, Hf, a, v, lam, mu, inner_tol)
        capped += not ok
        if not np.any(a):
            result = zero
            break
        b = _b_step(problem, Y0, Hf, a, lam, mu)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            result = zero
            break
        a = a * nb
        v = b / nb
        q_now = _acs_objective(problem, a, v, lam, mu)
        trace.append(q_now)
        if abs(trace[-2] - q_now) <= tol * max(abs(trace[-2]), floor):
            break
    else:
        warnings.warn(f"acs_cure did not converge in {max_iters} iterations"
                      f" at lam={lam:.3e}", RuntimeWarning, stacklevel=2)
    if capped:
        warnings.warn(f"acs_cure: {capped} a-block solves hit the {ACS_MAX_SWEEPS}"
                      f"-sweep cap at lam={lam:.3e}", RuntimeWarning, stacklevel=2)
    if result is None:
        raw = UnitRankFactor(1.0, a, v, NormMode.RAW)
        result = renormalize_factor(raw, NormMode.L1)
    return (result, trace) if return_trace else result


def acs_path(problem, grid=None, config=None, stop=None):
    """Warm-started alternating solves down a decreasing penalty grid.

    Returns a list of ``(lam, factor)``; a zero factor at one level does not
    poison later levels (the next level restarts from the OLS layer).  The
    levels share the problem's cached Gram columns.  ``stop``, when given,
    is called with each level's factor as soon as it is solved, and the path
    ends after the first level on which it returns True; deflation passes
    the update of a :class:`~curereg.tuning.GridScan`, so selection happens
    in the same pass.  Without it the whole grid is solved.  An explicit
    grid must be 1-d, nonempty, finite and strictly decreasing.
    """
    config = config or AcsConfig()
    if grid is None:
        grid = config.lambda_grid
    grid = default_lambda_grid(problem) if grid is None else _penalty_grid(grid, "grid")
    cold = svd_of_ols_factor(problem)
    warm = None
    out = []
    for lam in grid:
        start = warm if (warm is not None and not warm.is_zero) else cold
        fac = acs_cure(problem, float(lam), init=start, config=config)
        out.append((float(lam), fac))
        warm = fac
        if stop is not None and stop(fac):
            break
    return out


# ---------------------------------------------------------------------------
# reduced-rank regression


def _rrr_basis(X, Y):
    """``(B, Vt)``: the ridge-OLS fit ``B`` (:func:`_ridge_ols`) and the right
    singular vectors of ``X B``.  The rank-r RRR coefficient matrix is
    ``B V_r V_r^T``, with ``V_r = Vt[:r].T``."""
    B = _ridge_ols(X, Y)
    return B, np.linalg.svd(X @ B, full_matrices=False)[2]


def fit_rrr(X, Y, r):
    """Rank-``r`` coefficient matrix via SVD truncation of a (ridge-)OLS fit.

    The ridge is :func:`_ridge_ols`'s: 0 when n > p and ``X^T X`` is
    nonsingular, so that ``X C_hat`` is the best rank-r Frobenius
    approximation of the OLS fit (Eckart-Young); else
    :func:`default_rrr_ridge`, with a warning when n > p.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    p, q = X.shape[1], Y.shape[1]
    if r < 0 or r > min(p, q):
        raise ValueError(f"rank must lie in [0, min(p, q)] = [0, {min(p, q)}]")
    if r == 0:
        return np.zeros((p, q))
    B, Vt = _rrr_basis(X, Y)
    Vr = Vt[:r].T
    return B @ Vr @ Vr.T


def select_rank_cv(X, Y, r_max, folds=5, seed=0):
    """Pick the RRR rank by K-fold CV over rows.

    :func:`~curereg.tuning.kfold_cv_select` scores ranks r_max..0 (returned
    for 0..r_max); the smallest rank within a relative 1e-8 of the minimum
    wins, so exact ties (noiseless data) resolve to the most parsimonious
    model.  Each training fold picks its own ridge by :func:`_ridge_ols`'s
    rule, so a fold with no more rows than p takes the default ridge.
    """
    problem = ProblemData(X, Y)
    if r_max < 0 or r_max > min(problem.p, problem.q):
        raise ValueError("r_max out of range")
    ranks = range(r_max, -1, -1)

    def rank_path(B, Vt):
        return [(r, lambda X, Vr=Vt[:r].T: X @ (B @ Vr @ Vr.T)) for r in ranks]

    # One fold's fit is alive at a time, and a rank's matrix only while it is scored.
    sel = kfold_cv_select(problem, [(r, None) for r in ranks], lambda trains: (
        rank_path(*_rrr_basis(pb.X, pb.Y)) for pb in trains), folds, seed)
    mean_err = sel.cv_errors[::-1].copy()
    good = np.nonzero(mean_err <= mean_err.min() * (1 + 1e-8) + 1e-12)[0]
    return int(good[0]), mean_err

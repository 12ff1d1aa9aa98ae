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
(feature-sign search).  The problem keeps the Gram columns: unweighted in
``ProblemData.gram`` and, for the masked lasso, one weighted cache per
response column in ``ProblemData.column_grams``, so penalty levels share
them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    SV_TOL,
    GramCache,
    NormMode,
    UnitRankFactor,
    p_orthogonal_svd,
    renormalize_factor,
)
from .tuning import GRID_STOP_WINDOW, GridScan, _fold_indices

__all__ = [
    "LassoConfig",
    "lasso_cd",
    "lasso_gic_path",
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
    """
    curv = s * gram.diag + c
    live = curv > 0.0
    x = np.where(live, x, 0.0)
    g = np.zeros(b.size)  # H x
    for j in np.flatnonzero(x):
        g += x[j] * gram.col(j)
    bl, cl, sd, xl = b.tolist(), curv.tolist(), (s * gram.diag).tolist(), x.tolist()
    active = set(np.flatnonzero(x).tolist())
    sweeps = 0
    while True:
        grad = s * g + c * x - b
        viol = np.where(x != 0.0, np.abs(grad + pen * np.sign(x)), np.abs(grad) - pen)
        viol[~live] = 0.0
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
                    g += (new - old) * col
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
    Hc = np.column_stack([gram.col(j) for j in P])
    H = s * Hc[P]
    bP = b[P]
    on = np.arange(len(P))
    solves = 0
    exact = False
    while on.size and solves < budget:
        solves += 1
        A = H[np.ix_(on, on)]
        A.flat[:: on.size + 1] += c
        xo = x[on]
        r = bP[on] - pen * np.sign(xo)
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
        on = on[xt != 0.0]
    return x, Hc @ x, solves, exact


@dataclass
class LassoConfig:
    tol: float = 1e-8
    max_sweeps: int = 2000

    def __post_init__(self):
        if self.tol <= 0 or self.max_sweeps < 1:
            raise ValueError("tol must be positive and max_sweeps at least 1")


def lasso_objective(problem, C, lam):
    R = problem.observed_response() - problem.X @ C
    if problem.mask is not None:
        R[~problem.mask] = 0.0
    return float(np.vdot(R, R)) / (2.0 * problem.n) + lam * float(np.abs(C).sum())


def lasso_cd(problem, lam, config=None, warm=None, return_info=False):
    """Entrywise-l1 multivariate lasso by coordinate descent.

    Minimizes ``||P(Y - XC)||_F^2 / (2n) + lam ||C||_1``.  Response column k
    is a weighted lasso whose weights are the mask column (none when fully
    observed).  On convergence every entry meets the subgradient condition
    within ``tol``: ``|g_jk + lam sign(C_jk)| <= tol`` where ``C_jk != 0``
    and ``|g_jk| <= lam + tol`` elsewhere, with ``g = -X^T P(Y - XC) / n``.
    Otherwise the last iterate is returned with a warning.  With
    ``return_info``, ``info["sweeps"]`` is the most passes plus exact
    solves that any response column took.
    """
    config = config or LassoConfig()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    X = problem.X
    n, p, q = problem.n, problem.p, problem.q
    C = np.zeros((p, q)) if warm is None else np.array(warm, dtype=float)
    if C.shape != (p, q):
        raise ValueError("warm start has the wrong shape")
    B = X.T @ problem.observed_response() / n
    trace = [lasso_objective(problem, C, lam)] if return_info else []
    worst = 0.0
    sweeps = 0
    for k, gram in enumerate(problem.column_grams):
        C[:, k], viol, used = _weighted_lasso(
            gram, 1.0, 0.0, B[:, k], lam, C[:, k], config.tol, config.max_sweeps
        )
        worst = max(worst, viol)
        sweeps = max(sweeps, used)
        if return_info:
            trace.append(lasso_objective(problem, C, lam))
    converged = worst <= config.tol
    if not converged:
        warnings.warn(
            f"lasso_cd did not meet the stationarity tolerance in "
            f"{config.max_sweeps} sweeps (violation={worst:.3e}, lam={lam:.3e})",
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


def lasso_gic_path(problem, grid=None, config=None, criterion="gic", *, _whole_grid=False):
    """Warm-started lasso path with information-criterion selection.

    Degrees of freedom is the nonzero entry count; the first argmin wins.
    The path stops ``tuning.GRID_STOP_WINDOW`` levels after the last
    improvement of the criterion (:class:`~curereg.tuning.GridScan`).
    ``_whole_grid`` solves every level instead; CV needs it, because its
    folds are aligned to the full-data grid.  Returns
    ``(C_best, lam_best, path)`` where path is the list of ``(lam, C)``
    solved down the grid.
    """
    grid = default_lambda_grid(problem) if grid is None else np.asarray(grid, dtype=float)
    scan = GridScan(problem, criterion, None if _whole_grid else GRID_STOP_WINDOW)
    Y0 = problem.observed_response()
    warm = None
    path = []
    for lam in grid:
        C = lasso_cd(problem, float(lam), config=config, warm=warm)
        warm = C
        path.append((float(lam), C))
        R = Y0 - problem.X @ C
        if problem.mask is not None:
            R[~problem.mask] = 0.0
        if scan.update(float(np.vdot(R, R)), int(np.count_nonzero(C))):
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
    layer of a ridge-OLS fit unless a factor is passed.
    """

    lambda_grid: np.ndarray | None = None
    mu: float = 1e-4
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.lambda_grid is not None:
            g = np.asarray(self.lambda_grid, dtype=float)
            if g.ndim != 1 or g.size == 0:
                raise ValueError("lambda_grid must be a nonempty 1-d sequence")
            if np.any(np.diff(g) >= 0):
                raise ValueError("lambda_grid must be strictly decreasing")
            self.lambda_grid = g


def default_rrr_ridge(X):
    """Ridge level used when the normal equations need regularizing."""
    X = np.asarray(X, dtype=float)
    return 1e-3 * float(np.einsum("ij,ij->", X, X)) / X.shape[1]


def _rrr_ridge(X):
    """Ridge 0 when ``X^T X`` is positive definite, else the default ridge
    (with a warning when n > p, as then X is rank-deficient)."""
    if X.shape[0] > X.shape[1]:
        try:
            np.linalg.cholesky(X.T @ X)
            return 0.0
        except np.linalg.LinAlgError:
            warnings.warn("X is rank-deficient (X^T X is singular); reduced-rank"
                          " regression uses default_rrr_ridge(X)",
                          RuntimeWarning, stacklevel=3)
    return default_rrr_ridge(X)


def _ridge_ols(X, Y, ridge):
    XtX = X.T @ X
    if ridge > 0:
        XtX = XtX + ridge * np.eye(X.shape[1])
    try:
        L = np.linalg.cholesky(XtX)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular normal equations (X is rank-deficient);"
            " a positive ridge is required"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, X.T @ Y))


def svd_of_ols_factor(problem):
    """Rank-1 predictor-metric SVD layer of a ridge-OLS fit; ACS starting point."""
    X = problem.X
    Y0 = problem.observed_response()
    ridge = 0.0 if problem.n > problem.p else default_rrr_ridge(X)
    try:
        B = _ridge_ols(X, Y0, ridge)
    except ValueError:
        B = _ridge_ols(X, Y0, default_rrr_ridge(X))
    M = (X @ B) / np.sqrt(problem.n)
    if not np.any(np.abs(M) > 0):
        return UnitRankFactor.zero(problem.p, problem.q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = p_orthogonal_svd(X, B, 1)
    if model.rank == 0:
        return UnitRankFactor.zero(problem.p, problem.q)
    return model.layers[0]


def _acs_objective(problem, Y0, a, v, lam, mu):
    R = Y0 - np.outer(problem.X @ a, v)
    if problem.mask is not None:
        R[~problem.mask] = 0.0
    rss = float(np.vdot(R, R))
    l2 = float(a @ a) * float(v @ v)
    l1 = float(np.abs(a).sum()) * float(np.abs(v).sum())
    return rss / (2.0 * problem.n) + 0.5 * mu * l2 + lam * l1


def _a_step(problem, Y0, Hf, a, v, lam, mu, inner_tol):
    """Exact weighted lasso in a with v fixed; returns ``(a, converged)``."""
    X = problem.X
    v22 = float(v @ v)
    gram, s = (problem.gram, v22) if Hf is None else (GramCache(X, Hf @ (v * v)), 1.0)
    b = X.T @ (Y0 @ v) / problem.n
    tol = inner_tol * max(1.0, float(np.abs(b).max()))
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
    ridge-OLS fit); ``mu``, ``tol`` and ``max_iters`` come from ``config``.
    Alternates exact a- and v-blocks until the objective change falls below
    ``config.tol`` (relative) or the factor collapses to zero, and warns when
    ``max_iters`` runs out first or an a-block solve hits its sweep cap.
    Returns the factor in L1 normalization (plus the objective trace when
    asked).
    """
    config = config or AcsConfig()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
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
    inner_tol = min(1e-9, config.tol)
    trace = [_acs_objective(problem, Y0, a, v, lam, mu)]
    result = None
    capped = 0
    for _ in range(config.max_iters):
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
        q_now = _acs_objective(problem, Y0, a, v, lam, mu)
        trace.append(q_now)
        if abs(trace[-2] - q_now) <= config.tol * max(1.0, abs(trace[-2])):
            break
    else:
        warnings.warn(f"acs_cure did not converge in {config.max_iters} iterations"
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
    in the same pass.  Without it the whole grid is solved.
    """
    config = config or AcsConfig()
    if grid is None:
        grid = config.lambda_grid
    grid = default_lambda_grid(problem) if grid is None else np.asarray(grid, dtype=float)
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


def fit_rrr(X, Y, r, ridge=0.0):
    """Rank-``r`` coefficient matrix via SVD truncation of a (ridge-)OLS fit.

    With ridge 0 and full-column-rank X, ``X C_hat`` is the best rank-r
    Frobenius approximation of the OLS fit (Eckart-Young).  A singular
    design with ridge 0 raises, pointing at :func:`default_rrr_ridge`.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    p, q = X.shape[1], Y.shape[1]
    if r < 0 or r > min(p, q):
        raise ValueError(f"rank must lie in [0, min(p, q)] = [0, {min(p, q)}]")
    if ridge == 0.0 and p > X.shape[0]:
        raise ValueError("p > n needs ridge > 0 (see default_rrr_ridge)")
    if r == 0:
        return np.zeros((p, q))
    B = _ridge_ols(X, Y, ridge)
    _, _, Vt = np.linalg.svd(X @ B, full_matrices=False)
    Vr = Vt[:r].T
    return B @ Vr @ Vr.T


def select_rank_cv(X, Y, r_max, folds=5, ridge=0.0, seed=0):
    """Pick the RRR rank by K-fold CV over rows.

    Mean held-out squared error (scaled by ``1/(2 n_test)``) is computed for
    ranks 0..r_max; the smallest rank within a hair of the minimum wins, so
    exact ties (noiseless data) resolve to the most parsimonious model.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if r_max < 0 or r_max > min(X.shape[1], Y.shape[1]):
        raise ValueError("r_max out of range")
    parts = _fold_indices(n, folds, seed)
    errs = np.zeros((folds, r_max + 1))
    all_rows = np.arange(n)
    for f, test in enumerate(parts):
        train = np.setdiff1d(all_rows, test)
        Xtr, Ytr = X[train], Y[train]
        Xte, Yte = X[test], Y[test]
        if ridge == 0.0 and X.shape[1] > train.size:
            raise ValueError("p exceeds a training fold; pass a positive ridge")
        try:
            B = _ridge_ols(Xtr, Ytr, ridge)
        except ValueError:
            if ridge > 0.0:
                raise
            warnings.warn(f"training fold {f + 1} is rank-deficient (X^T X is"
                          " singular); its fit uses default_rrr_ridge",
                          RuntimeWarning, stacklevel=2)
            B = _ridge_ols(Xtr, Ytr, default_rrr_ridge(Xtr))
        _, _, Vt = np.linalg.svd(Xtr @ B, full_matrices=False)
        for r in range(r_max + 1):
            if r == 0:
                C = np.zeros((X.shape[1], Y.shape[1]))
            else:
                Vr = Vt[:r].T
                C = B @ Vr @ Vr.T
            R = Yte - Xte @ C
            errs[f, r] = float(np.vdot(R, R)) / (2.0 * test.size)
    mean_err = errs.mean(axis=0)
    lo = float(mean_err.min())
    good = np.nonzero(mean_err <= lo * (1 + 1e-8) + 1e-12)[0]
    return int(good[0]), mean_err

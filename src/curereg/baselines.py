"""Convex baselines: matrix lasso, alternating unit-rank search, RRR.

The alternating solver attacks the unit-rank objective

    ||P(Y - X a v^T)||_F^2 / (2n) + (mu/2) ||a||_2^2 ||v||_2^2
        + lam * ||a||_1 ||v||_1

by exact block minimization: with v fixed the problem in ``a`` is a weighted
single-response lasso (solved by coordinate descent); with ``a`` fixed the
problem in the response loadings decouples across columns and has a closed
form.  The objective only depends on the product ``a v^T``, so the loadings
are free to be rescaled between blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    SV_TOL,
    NormMode,
    UnitRankFactor,
    p_orthogonal_svd,
    renormalize_factor,
)
from .tuning import CriterionInput, _fold_indices, information_criterion

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

GRAM_MAX_P = 2000


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


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
    """Entrywise-l1 multivariate lasso by cyclic coordinate descent.

    Minimizes ``||P(Y - XC)||_F^2 / (2n) + lam ||C||_1``.  Response columns
    decouple when fully observed; under a mask the per-entry curvature uses
    only observed rows.  Returns C, satisfying the stationarity bound
    ``n^-1 ||X^T P(Y - XC)||_max <= lam + tol`` on convergence; otherwise the
    last iterate is returned with a warning.
    """
    config = config or LassoConfig()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    X = problem.X
    n, p, q = problem.n, problem.p, problem.q
    Y0 = problem.observed_response()
    C = np.zeros((p, q)) if warm is None else np.array(warm, dtype=float)
    if C.shape != (p, q):
        raise ValueError("warm start has the wrong shape")
    R = Y0 - X @ C
    masked = problem.mask is not None
    if masked:
        Hf = problem.mask.astype(float)
        R[~problem.mask] = 0.0
        Qc = (X * X).T @ Hf / n  # p x q per-entry curvatures
    else:
        cx2 = np.einsum("ij,ij->j", X, X) / n
    converged = False
    sweeps = 0
    trace = []
    for sweeps in range(1, config.max_sweeps + 1):
        for j in range(p):
            xj = X[:, j]
            cj = C[j].copy()
            if masked:
                denom = Qc[j]
                rho = (xj @ R) / n + denom * cj
                cnew = np.where(denom > 0, _soft(rho, lam) / np.where(denom > 0, denom, 1.0), 0.0)
            else:
                if cx2[j] == 0.0:
                    continue
                rho = (xj @ R) / n + cx2[j] * cj
                cnew = _soft(rho, lam) / cx2[j]
            delta = cnew - cj
            if np.any(delta):
                if masked:
                    R -= (xj[:, None] * Hf) * delta[None, :]
                else:
                    R -= np.outer(xj, delta)
                C[j] = cnew
        kkt = float(np.abs(X.T @ R).max()) / n
        if return_info:
            trace.append(lasso_objective(problem, C, lam))
        if kkt <= lam + config.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"lasso_cd did not meet the stationarity tolerance in "
            f"{config.max_sweeps} sweeps (kkt={kkt:.3e}, lam={lam:.3e})",
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


def lasso_gic_path(problem, grid=None, config=None, criterion="gic"):
    """Warm-started lasso path with information-criterion selection.

    Degrees of freedom is the nonzero entry count.  Returns
    ``(C_best, lam_best, path)`` where path is a list of ``(lam, C)``
    down the grid.
    """
    grid = default_lambda_grid(problem) if grid is None else np.asarray(grid, dtype=float)
    best = None
    warm = None
    path = []
    observed = None if problem.mask is None else problem.n_observed
    for lam in grid:
        C = lasso_cd(problem, float(lam), config=config, warm=warm)
        warm = C
        path.append((float(lam), C.copy()))
        R = problem.observed_response() - problem.X @ C
        if problem.mask is not None:
            R[~problem.mask] = 0.0
        rss = float(np.vdot(R, R))
        df = int(np.count_nonzero(C))
        if rss <= 0.0:
            val = -np.inf
        else:
            val = information_criterion(
                criterion,
                CriterionInput(rss, problem.n, problem.p, problem.q, df, observed),
            )
        if best is None or val < best[0]:
            best = (val, float(lam), C.copy())
    return best[2], best[1], path


# ---------------------------------------------------------------------------
# alternating convex search for one unit-rank layer


@dataclass
class AcsConfig:
    """Controls for the alternating solver.

    ``lambda_grid`` is only consumed by path/deflation drivers; a single
    call works at one penalty level.  ``init`` names the starting point rule
    (currently only the rank-1 layer of a ridge-OLS fit).
    """

    lambda_grid: np.ndarray | None = None
    mu: float = 1e-4
    tol: float = 1e-8
    max_iters: int = 500
    init: str = "svd_of_ols"

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.init not in ("svd_of_ols", "given"):
            raise ValueError(f"unknown init rule {self.init!r}")
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


def _ridge_ols(X, Y, ridge):
    XtX = X.T @ X
    if ridge > 0:
        XtX = XtX + ridge * np.eye(X.shape[1])
    try:
        L = np.linalg.cholesky(XtX)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular normal equations; a positive ridge is required (p >= n?)"
        ) from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, X.T @ Y))


def svd_of_ols_factor(problem, ridge=None):
    """Rank-1 predictor-metric SVD layer of a ridge-OLS fit; ACS starting point."""
    X = problem.X
    Y0 = problem.observed_response()
    if ridge is None:
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


class _AcsWorkspace:
    """Per-problem precomputations shared across penalty levels."""

    def __init__(self, problem):
        self.problem = problem
        self.X = problem.X
        self.Y0 = problem.observed_response()
        self.XtY = self.X.T @ self.Y0
        self.masked = problem.mask is not None
        if self.masked:
            self.Hf = problem.mask.astype(float)
            self.X2 = self.X * self.X
            self.gram = None
        elif problem.p <= GRAM_MAX_P:
            self.gram = self.X.T @ self.X / problem.n
        else:
            self.gram = None
        self.cx2 = np.einsum("ij,ij->j", self.X, self.X) / problem.n


def _acs_objective(ws, a, v, lam, mu):
    w = ws.X @ a
    R = ws.Y0 - np.outer(w, v)
    if ws.masked:
        R[~ws.problem.mask] = 0.0
    rss = float(np.vdot(R, R))
    l2 = float(a @ a) * float(v @ v)
    l1 = float(np.abs(a).sum()) * float(np.abs(v).sum())
    return rss / (2.0 * ws.problem.n) + 0.5 * mu * l2 + lam * l1


def _a_step_gram(ws, a, v, lam, mu, inner_tol, max_inner=5000):
    """Exact lasso in a with v fixed, using the Gram matrix."""
    G = ws.gram
    n = ws.problem.n
    v22 = float(v @ v)
    v1 = float(np.abs(v).sum())
    lin = (ws.XtY @ v) / n  # = X^T Y v / n
    diag = np.diag(G)
    g = G @ a
    for _ in range(max_inner):
        biggest = 0.0
        for j in range(a.size):
            dj = diag[j]
            if dj == 0.0:
                continue
            old = a[j]
            rho = lin[j] - v22 * (g[j] - dj * old)
            new = _soft(rho, lam * v1) / (v22 * (dj + mu))
            if new != old:
                g += G[:, j] * (new - old)
                a[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest <= inner_tol * max(1.0, float(np.abs(a).max(initial=0.0))):
            break
    return a


def _a_step_direct(ws, a, v, lam, mu, inner_tol, max_inner=2000):
    """Residual-update lasso in a; used under masks or very wide designs."""
    X = ws.X
    n = ws.problem.n
    v22 = float(v @ v)
    v1 = float(np.abs(v).sum())
    w = X @ a
    R = ws.Y0 - np.outer(w, v)
    if ws.masked:
        R[~ws.problem.mask] = 0.0
        qv = ws.X2.T @ (ws.Hf @ (v * v)) / n  # per-coordinate curvature
        Hv = ws.Hf * v[None, :]
    else:
        qv = ws.cx2 * v22
    for _ in range(max_inner):
        biggest = 0.0
        for j in range(a.size):
            if qv[j] == 0.0:
                continue
            xj = X[:, j]
            old = a[j]
            rho = (xj @ (R @ v)) / n + qv[j] * old
            new = _soft(rho, lam * v1) / (qv[j] + mu * v22)
            if new != old:
                if ws.masked:
                    R += (old - new) * (xj[:, None] * Hv)
                else:
                    R += (old - new) * np.outer(xj, v)
                a[j] = new
                biggest = max(biggest, abs(new - old))
        if biggest <= inner_tol * max(1.0, float(np.abs(a).max(initial=0.0))):
            break
    return a


def _b_step(ws, a, lam, mu):
    """Closed-form response loadings with a fixed; columns decouple."""
    n = ws.problem.n
    w = ws.X @ a
    a1 = float(np.abs(a).sum())
    a22 = float(a @ a)
    c = (ws.Y0.T @ w) / n
    if ws.masked:
        denom = (ws.Hf * (w * w)[:, None]).sum(axis=0) / n + mu * a22
        b = np.zeros_like(c)
        ok = denom > 0
        b[ok] = _soft(c[ok], lam * a1) / denom[ok]
        return b
    denom = float(w @ w) / n + mu * a22
    if denom <= 0.0:
        return np.zeros_like(c)
    return _soft(c, lam * a1) / denom


def acs_cure(problem, lam, mu=1e-4, init=None, config=None, return_trace=False):
    """Alternating block minimization of the unit-rank objective at one lam.

    ``init`` is a UnitRankFactor starting point (default: rank-1 layer of a
    ridge-OLS fit).  Alternates exact a- and v-blocks until the objective
    change falls below ``config.tol`` (relative) or the factor collapses to
    zero.  Returns the factor in L1 normalization (plus the objective trace
    when asked).
    """
    config = config or AcsConfig()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    ws = _AcsWorkspace(problem)
    if init is None:
        if config.init == "given":
            raise ValueError("config.init is 'given' but no init factor was passed")
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
    inner_tol = min(1e-9, config.tol)
    trace = [_acs_objective(ws, a, v, lam, mu)]
    result = None
    for _ in range(config.max_iters):
        if ws.gram is not None and not ws.masked:
            a = _a_step_gram(ws, a, v, lam, mu, inner_tol)
        else:
            a = _a_step_direct(ws, a, v, lam, mu, inner_tol)
        if not np.any(a):
            result = zero
            break
        b = _b_step(ws, a, lam, mu)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            result = zero
            break
        a = a * nb
        v = b / nb
        q_now = _acs_objective(ws, a, v, lam, mu)
        trace.append(q_now)
        if abs(trace[-2] - q_now) <= config.tol * max(1.0, abs(trace[-2])):
            break
    if result is None:
        raw = UnitRankFactor(1.0, a, v, NormMode.RAW)
        result = renormalize_factor(raw, NormMode.L1)
    return (result, trace) if return_trace else result


def acs_path(problem, grid=None, mu=1e-4, config=None):
    """Warm-started alternating solves down a decreasing penalty grid.

    Returns a list of ``(lam, factor)``; a zero factor at one level does not
    poison later levels (the next level restarts from the OLS layer).
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
        fac = acs_cure(problem, float(lam), mu=mu, init=start, config=config)
        out.append((float(lam), fac))
        warm = fac
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
        use_ridge = ridge
        if use_ridge == 0.0 and X.shape[1] > train.size:
            raise ValueError("p exceeds a training fold; pass a positive ridge")
        B = _ridge_ols(Xtr, Ytr, use_ridge)
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

import warnings

import numpy as np
import pytest

from curereg.baselines import (
    AcsConfig,
    acs_cure,
    acs_path,
    default_lambda_grid,
    default_rrr_ridge,
    fit_rrr,
    lasso_cd,
    lasso_gic_path,
    select_rank_cv,
    svd_of_ols_factor,
)
from curereg import baselines
from curereg.core import (
    GramCache,
    NormMode,
    ProblemData,
    UnitRankFactor,
    column_normalize,
)
from curereg.simgen import SimSpec, gen_dataset
from curereg.tuning import GRID_STOP_WINDOW, fold_indices, information_criterion
from oracles import eval_loss, eval_penalty, lasso_objective


def acs_objective(prob, fac, lam, mu):
    return eval_loss(prob, fac, mu) + eval_penalty(fac, lam)


def lasso_column_trace(prob, start, C, lam):
    """The lasso objective at ``start`` and after each response column is
    replaced by its solution in ``C``.  ``lasso_cd`` solves the columns
    independently and in order, so this is its objective after each one."""
    now = np.array(start, dtype=float)
    trace = [lasso_objective(prob, now, lam)]
    for k in range(C.shape[1]):
        now[:, k] = C[:, k]
        trace.append(lasso_objective(prob, now, lam))
    return trace


def acs_cure_traced(*args, **kwargs):
    """``acs_cure``'s factor and the objective values it evaluated, in order."""
    trace = []
    objective = baselines._acs_objective

    def recorded(*objective_args):
        trace.append(objective(*objective_args))
        return trace[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(baselines, "_acs_objective", recorded)
        return acs_cure(*args, **kwargs), trace


# ---------------------------------------------------------------------------
# lasso coordinate descent


def test_lasso_full_shrinkage_threshold():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 4))
    Y = rng.standard_normal((8, 3))
    prob = ProblemData(X, Y)
    lam_max = float(np.abs(X.T @ Y).max()) / 8
    np.testing.assert_array_equal(lasso_cd(prob, lam_max), np.zeros((4, 3)))
    np.testing.assert_array_equal(lasso_cd(prob, 2 * lam_max), np.zeros((4, 3)))


def test_lasso_lambda_zero_recovers_ols():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((9, 3))
    Y = rng.standard_normal((9, 2))
    ols = np.linalg.lstsq(X, Y, rcond=None)[0]
    C = lasso_cd(ProblemData(X, Y), 0.0)
    np.testing.assert_allclose(C, ols, atol=1e-6)


def test_lasso_beats_random_sparse_candidates():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 2))
    prob = ProblemData(X, Y)
    lam = 0.3
    C = lasso_cd(prob, lam)
    best = lasso_objective(prob, C, lam)
    m = 10_000
    cands = rng.standard_normal((m, 3, 2)) * rng.uniform(0.05, 2.0, (m, 1, 1))
    cands *= rng.uniform(size=(m, 3, 2)) > 0.5  # random sparsity patterns
    cands[m // 2 :] = C + 0.1 * rng.standard_normal((m - m // 2, 3, 2))
    fits = np.einsum("ij,mjk->mik", X, cands)
    objs = ((Y - fits) ** 2).sum(axis=(1, 2)) / 12.0 + lam * np.abs(cands).sum(
        axis=(1, 2)
    )
    assert best <= objs.min() + 1e-12


def test_lasso_stationarity_bound_and_trace(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 8))
    Y = rng.standard_normal((15, 4))
    monkeypatch.setattr(baselines, "LASSO_TOL", 1e-9)
    for mask in (None, rng.uniform(size=(15, 4)) > 0.3):
        prob = ProblemData(X, Y, mask)
        lam = 0.1
        C = lasso_cd(prob, lam)  # converged: a RuntimeWarning fails the test
        R = prob.observed_response() - X @ C
        if prob.mask is not None:
            R[~prob.mask] = 0.0
        assert np.abs(X.T @ R).max() / 15 <= lam + 1e-9
        tr = lasso_column_trace(prob, np.zeros_like(C), C, lam)
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))


def test_lasso_nonconvergence_warns_and_flags(monkeypatch):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((20, 1))
    X = base + 0.01 * rng.standard_normal((20, 10))  # nearly collinear
    Y = rng.standard_normal((20, 3))
    prob = ProblemData(X, Y)
    monkeypatch.setattr(baselines, "LASSO_MAX_SWEEPS", 1)
    with pytest.warns(RuntimeWarning, match="lasso_cd"):
        C = lasso_cd(prob, 0.0)
    assert C.shape == (10, 3)


def test_lasso_rejects_bad_arguments():
    rng = np.random.default_rng(5)
    prob = ProblemData(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        lasso_cd(prob, -0.1)
    with pytest.raises(ValueError):
        lasso_cd(prob, 0.1, warm=np.zeros((3, 3)))
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            lasso_cd(prob, lam)
    for grid in ([1.0, np.nan, 0.1], [0.5, 0.1, 0.2], [0.5, 0.5], [], [[1.0, 0.5]]):
        with pytest.raises(ValueError, match="grid"):
            lasso_gic_path(prob, grid=grid)


def test_lasso_gic_path_selects_criterion_argmin():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 10))
    C0 = np.zeros((10, 4))
    C0[:3, :2] = rng.standard_normal((3, 2)) * 2
    Y = X @ C0 + 0.5 * rng.standard_normal((30, 4))
    prob = ProblemData(X, Y)
    grid = default_lambda_grid(prob, num=20)
    C_best, lam_best, path = lasso_gic_path(prob, grid=grid)
    assert len(path) == 20
    vals = []
    for lam, C in path:
        R = Y - X @ C
        rss = float(np.vdot(R, R))
        vals.append(information_criterion("gic", rss, int(np.count_nonzero(C)), 10, 4, 30 * 4))
    k = int(np.argmin(vals))
    assert lam_best == path[k][0]
    np.testing.assert_array_equal(C_best, path[k][1])


def _grid_draw(seed, masked):
    """A seeded model-II draw with a normalized X, 20% missing when masked."""
    truth = gen_dataset(SimSpec(model="II", n=60, p=20, q=12, r_star=2, seed=seed))
    X, _ = column_normalize(truth.X)
    mask = None
    if masked:
        mask = np.random.default_rng(seed).random(truth.Y.shape) >= 0.2
    return ProblemData(X, truth.Y, mask)


def _full_grid_lasso(prob, grid):
    """Every level of the grid, warm started, and the first GIC argmin."""
    warm, levels, vals = None, [], []
    for lam in grid:
        warm = lasso_cd(prob, float(lam), warm=warm)
        levels.append((float(lam), warm))
        R = prob.observed_response() - prob.X @ warm
        if prob.mask is not None:
            R[~prob.mask] = 0.0
        df = int(np.count_nonzero(warm))
        vals.append(information_criterion(
            "gic", float(np.vdot(R, R)), df, prob.p, prob.q, prob.n_observed))
    return levels, int(np.argmin(vals))


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_lasso_path_without_grid_stop_solves_every_level(masked):
    prob = _grid_draw(1, masked)
    grid = default_lambda_grid(prob)
    levels, k = _full_grid_lasso(prob, grid)
    C_best, lam_best, path = lasso_gic_path(prob, grid=grid, _whole_grid=True)
    assert len(path) == grid.size
    for (lam, C), (want_lam, want_C) in zip(path, levels):
        assert lam == want_lam
        np.testing.assert_array_equal(C, want_C)
    assert lam_best == levels[k][0]
    np.testing.assert_array_equal(C_best, levels[k][1])


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lasso_grid_stop_keeps_the_full_grid_pick(monkeypatch, seed, masked):
    prob = _grid_draw(seed, masked)
    grid = default_lambda_grid(prob)
    C_full, lam_full, _ = lasso_gic_path(prob, grid=grid, _whole_grid=True)
    calls = []
    orig = baselines.lasso_cd

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(baselines, "lasso_cd", counted)
    C_best, lam_best, path = lasso_gic_path(prob, grid=grid)
    assert lam_best == lam_full
    np.testing.assert_array_equal(C_best != 0, C_full != 0)
    np.testing.assert_array_equal(C_best, C_full)
    k = [lam for lam, _ in path].index(lam_best)
    # The stop lands exactly GRID_STOP_WINDOW levels after the pick, before the grid ends.
    assert len(path) == len(calls) == k + GRID_STOP_WINDOW + 1 < grid.size


def test_lasso_path_levels_meet_the_subgradient_condition():
    # Warm-started levels used to stop once max |X^T R| / n <= lam + tol,
    # which nonzero entries can meet far from optimal (this draw: ~0.3).
    truth = gen_dataset(SimSpec(model="II", n=40, p=12, q=8, r_star=2, seed=3))
    X, _ = column_normalize(truth.X)
    mask = np.random.default_rng(3).random(truth.Y.shape) >= 0.2
    tol = baselines.LASSO_TOL
    for m in (None, mask):
        prob = ProblemData(X, truth.Y, m)
        _, _, path = lasso_gic_path(prob, grid=default_lambda_grid(prob, num=20))
        for lam, C in path:
            R = prob.observed_response() - X @ C
            if m is not None:
                R[~m] = 0.0
            grad = -X.T @ R / prob.n
            on = C != 0
            assert np.all(np.abs(grad[on] - (-lam * np.sign(C[on]))) <= tol)
            assert np.all(np.abs(grad[~on]) <= lam + tol)


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_whole_lasso_path_meets_the_subgradient_condition(masked):
    # The test above stops its grid early; the smallest penalties, where
    # coordinate descent works hardest, are checked here on the whole grid.
    truth = gen_dataset(SimSpec(model="II", n=40, p=12, q=8, r_star=2, seed=3))
    X, _ = column_normalize(truth.X)
    m = np.random.default_rng(3).random(truth.Y.shape) >= 0.2 if masked else None
    prob = ProblemData(X, truth.Y, m)
    tol = baselines.LASSO_TOL
    _, _, path = lasso_gic_path(prob, grid=default_lambda_grid(prob, num=20),
                                _whole_grid=True)
    assert len(path) == 20
    for lam, C in path:
        R = prob.observed_response() - X @ C
        if m is not None:
            R[~m] = 0.0
        grad = -X.T @ R / prob.n
        on = C != 0
        assert np.all(np.abs(grad[on] - (-lam * np.sign(C[on]))) <= tol)
        assert np.all(np.abs(grad[~on]) <= lam + tol)


def test_masked_lasso_path_builds_one_weighted_cache_per_column(monkeypatch):
    built = []
    init = GramCache.__init__

    def counting(self, X, weights=None):
        built.append(weights is not None)
        init(self, X, weights)

    monkeypatch.setattr(GramCache, "__init__", counting)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 8))
    Y = X[:, :2] @ rng.standard_normal((2, 5)) + 0.3 * rng.standard_normal((30, 5))
    prob = ProblemData(X, Y, rng.random((30, 5)) >= 0.2)
    lasso_gic_path(prob, grid=default_lambda_grid(prob, num=6))
    assert sum(built) == 5  # one per response column, shared by the 6 levels


def test_lasso_converges_on_an_ill_conditioned_design():
    # One shared factor plus 5% noise: cond(X^T X) ~ 1.5e4.  Plain coordinate
    # descent is still at a violation of 1.7e-3 after 2,000 passes here.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 1)) + 0.05 * rng.standard_normal((200, 20))
    X, _ = column_normalize(X)
    Y = X @ rng.standard_normal((20, 2)) + 0.1 * rng.standard_normal((200, 2))
    with warnings.catch_warnings():
        # Converges within LASSO_MAX_SWEEPS, or lasso_cd would warn.
        warnings.simplefilter("error", RuntimeWarning)
        C = lasso_cd(ProblemData(X, Y[:, :1]), 1e-3)
    assert np.count_nonzero(C) > 10


def test_default_lambda_grid_shape():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 3))
    g = default_lambda_grid(ProblemData(X, Y))
    assert g.size == 50
    assert np.all(np.diff(g) < 0)
    assert g[0] == pytest.approx(np.abs(X.T @ Y).max() / 10)
    # flat response falls back to a unit level
    g0 = default_lambda_grid(ProblemData(X, np.zeros((10, 3))))
    assert g0[0] == 1.0


def _degenerate_problem(name, masked):
    rng = np.random.default_rng(sum(map(ord, name)))
    n, p, q = {"n=1": (1, 4, 3), "n=2": (2, 4, 3), "n=3": (3, 4, 3),
               "p>n": (6, 15, 4), "p=1": (10, 1, 3), "q=1": (10, 5, 1),
               "duplicate": (12, 5, 3), "zero column": (12, 5, 3),
               "duplicate p>n": (4, 6, 2)}[name]
    X = rng.standard_normal((n, p))
    if name.startswith("duplicate"):
        X[:, 3] = X[:, 1]
    if name == "zero column":
        X[:, 2] = 0.0
    Y = X @ rng.standard_normal((p, q)) + 0.1 * rng.standard_normal((n, q))
    mask = None
    if masked:
        mask = rng.random((n, q)) >= 0.3
        mask[0, 0] = False
    return ProblemData(X, Y, mask)


def _kernel_violation(gram, s, c, b, pen, x):
    """Worst subgradient violation of a weighted-lasso point, from dense H."""
    w = np.ones(gram.n) if gram.weights is None else gram.weights
    H = gram.X.T @ (w[:, None] * gram.X) / gram.n
    grad = s * (H @ x) + c * x - b
    viol = np.where(x != 0.0, np.abs(grad + pen * np.sign(x)), np.abs(grad) - pen)
    viol[s * np.diag(H) + c <= 0.0] = 0.0  # zero-curvature coordinates stay 0
    return float(viol.max(initial=0.0))


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("name", ["n=1", "n=2", "n=3", "p>n", "p=1", "q=1",
                                  "duplicate", "zero column", "duplicate p>n"])
def test_degenerate_inputs_converge_or_warn(monkeypatch, name, masked):
    prob = _degenerate_problem(name, masked)
    results = []
    kernel = baselines._weighted_lasso

    def checked(gram, s, c, b, pen, x, tol, max_sweeps):
        out = kernel(gram, s, c, b, pen, x, tol, max_sweeps)
        results.append((_kernel_violation(gram, s, c, b, pen, out[0]), tol))
        return out

    monkeypatch.setattr(baselines, "_weighted_lasso", checked)
    lam_max = float(np.abs(prob.X.T @ prob.observed_response()).max()) / prob.n
    tol = baselines.LASSO_TOL
    for lam in (0.0, 1e-3 * lam_max, 0.3 * lam_max):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            C = lasso_cd(prob, lam)
        warned = any("stationarity tolerance" in str(w.message) for w in caught)
        assert np.all(np.isfinite(C))
        if not warned:
            R = prob.observed_response() - prob.X @ C
            if prob.mask is not None:
                R[~prob.mask] = 0.0
            grad = -prob.X.T @ R / prob.n
            viol = np.where(C != 0.0, np.abs(grad + lam * np.sign(C)), np.abs(grad) - lam)
            assert viol.max() <= tol + 1e-12

        results.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fac = acs_cure(prob, lam)
        capped = any("sweep cap" in str(w.message) for w in caught)
        assert np.all(np.isfinite(fac.u)) and np.all(np.isfinite(fac.v))
        fac.validate()
        assert capped or all(viol <= t + 1e-12 for viol, t in results)


# ---------------------------------------------------------------------------
# the kernel and the screen against their plain forms, bit for bit


def _oracle_weighted_lasso(gram, s, c, b, pen, x, tol, max_sweeps):
    """The coordinate-descent kernel in its plain form, the bitwise reference."""
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
                xP, g, used, exact = _oracle_sign_solve(
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


def _oracle_sign_solve(gram, P, s, c, b, pen, x, budget):
    """The feature-sign block solve in its plain form, the bitwise reference."""
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


def _oracle_lasso_cd(problem, lam, warm=None, return_info=False):
    """``lasso_cd`` as one kernel call per response column, with no screen."""
    tol, max_sweeps = baselines.LASSO_TOL, baselines.LASSO_MAX_SWEEPS
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
        C[:, k], viol, used = _oracle_weighted_lasso(
            gram, 1.0, 0.0, B[:, k], lam, C[:, k], tol, max_sweeps
        )
        worst = max(worst, viol)
        sweeps = max(sweeps, used)
        if return_info:
            trace.append(lasso_objective(problem, C, lam))
    converged = worst <= tol
    if not converged:
        warnings.warn(
            f"lasso_cd did not meet the stationarity tolerance in "
            f"{max_sweeps} sweeps (violation={worst:.3e}, lam={lam:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    if return_info:
        return C, {"sweeps": sweeps, "objective_trace": trace}
    return C


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_draw(seed, weighted=False, dead=False, duplicate=False):
    """A GramCache of a seeded 12 x 7 design and a right-hand side for it."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, 7))
    if dead:
        X[:, 2] = 0.0
    if duplicate:
        X[:, 5] = X[:, 1]
    w = (rng.random(12) >= 0.3).astype(float) if weighted else None
    gram = GramCache(X, w)
    return gram, gram.col(0) * 0.7 - gram.col(4) * 0.4 + 0.2 * rng.standard_normal(7), rng


_KERNEL_CASES = {
    "plain": {},
    "weighted": {"weighted": True},
    "s and c": {"s": 2.7, "c": 0.05},
    "weighted, s and c": {"weighted": True, "s": 0.3, "c": 1e-4},
    "dead column": {"dead": True, "weighted": True},
    "singular block": {"duplicate": True, "caps": (50,)},
    "sweep cap": {"caps": (1, 2, 3)},
    "negative zero": {"negzero": True, "dead": True},
}


@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_kernel_matches_its_plain_form_bit_for_bit(case):
    opts = _KERNEL_CASES[case]
    s, c = opts.get("s", 1.0), opts.get("c", 0.0)
    sweeps_seen = set()
    for seed in range(12):
        gram, b, rng = _kernel_draw(seed, opts.get("weighted", False),
                                    opts.get("dead", False), opts.get("duplicate", False))
        starts = [np.zeros(7), np.where(rng.random(7) < 0.5, rng.standard_normal(7), 0.0)]
        if opts.get("duplicate"):
            starts.append(np.array([0.0, 0.4, 0.0, 0.0, 0.3, 0.2, 0.0]))
        if opts.get("negzero"):
            starts.append(np.array([-0.0, 0.3, -0.0, -0.0, 0.0, -0.2, -0.0]))
        top = float(np.abs(b).max())
        for x0 in starts:
            for pen in (0.0, 0.02 * top, 0.3 * top, 1.2 * top):
                for cap in opts.get("caps", (2000,)):
                    want = _oracle_weighted_lasso(gram, s, c, b, pen, x0.copy(), 1e-10, cap)
                    got = baselines._weighted_lasso(gram, s, c, b, pen, x0.copy(), 1e-10, cap)
                    assert _same_bits(got[0], want[0])
                    assert _same_bits(got[1], want[1]) and got[2] == want[2]
                    sweeps_seen.add(got[2])
    if "caps" in opts:
        assert set(opts["caps"]) <= sweeps_seen  # every cap was reached


def test_sign_solve_matches_its_plain_form_bit_for_bit():
    outcomes, most = set(), 0
    for seed in range(60):
        gram, b, rng = _kernel_draw(seed, weighted=seed % 2 == 1, duplicate=seed % 3 == 0)
        P = sorted(rng.choice(7, size=int(rng.integers(1, 8)), replace=False).tolist())
        if seed % 3 == 0:
            P = sorted(set(P) | {1, 5})  # a singular block
        x = rng.standard_normal(len(P))
        s, c = (1.0, 0.0) if seed % 4 < 2 else (1.8, 0.02)
        pen = float(rng.uniform(0.0, 0.5))
        budget = int(rng.integers(1, 4))
        want = _oracle_sign_solve(gram, P, s, c, b, pen, x.copy(), budget)
        got = baselines._sign_solve(gram, P, s, c, b, pen, x.copy(), budget)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[2:] == want[2:]
        outcomes.add(want[3])
        most = max(most, want[2])
    assert outcomes == {True, False, None} and most >= 2


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_kernel_matches_its_plain_form_inside_acs(monkeypatch, masked):
    seen = []
    kernel = baselines._weighted_lasso

    def compared(gram, s, c, b, pen, x, tol, max_sweeps):
        want = _oracle_weighted_lasso(gram, s, c, b, pen, x.copy(), tol, max_sweeps)
        got = kernel(gram, s, c, b, pen, x, tol, max_sweeps)
        assert _same_bits(got[0], want[0])
        assert _same_bits(got[1], want[1]) and got[2] == want[2]
        seen.append(got[2])
        return got

    monkeypatch.setattr(baselines, "_weighted_lasso", compared)
    prob = _grid_draw(5, masked)
    acs_path(prob, default_lambda_grid(prob, num=8))
    assert len(seen) > 20 and max(seen) >= 2


def _screen_draw(masked):
    """A seeded draw with an all-zero X column, 25% missing when masked."""
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 10))
    X[:, 3] = 0.0
    Y = X[:, :3] @ rng.standard_normal((3, 6)) + 0.5 * rng.standard_normal((30, 6))
    mask = rng.random((30, 6)) >= 0.25 if masked else None
    return ProblemData(X, Y, mask)


def _solve_recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_lasso_screen_matches_a_kernel_loop(monkeypatch, masked):
    prob = _screen_draw(masked)
    sweeps = []
    kernel = baselines._weighted_lasso

    def counted(*args):
        out = kernel(*args)
        sweeps.append(out[2])
        return out

    monkeypatch.setattr(baselines, "_weighted_lasso", counted)
    lam_max = default_lambda_grid(prob)[0]
    negzero = np.zeros((prob.p, prob.q))
    negzero[:, 1] = -0.0
    negzero[3, :] = -0.0  # the dead coordinate too
    warm = lasso_cd(prob, 0.3 * lam_max)
    warm[:, 2] = -0.0
    assert np.any(warm) and not np.all(warm.any(axis=0))
    caps = (baselines.LASSO_MAX_SWEEPS, 1)
    for lam in (2.0 * lam_max, lam_max, 0.6 * lam_max, 0.1 * lam_max, 0.0):
        for start in (None, negzero, warm):
            for cap in caps:
                monkeypatch.setattr(baselines, "LASSO_MAX_SWEEPS", cap)
                sweeps.clear()
                C, caught = _solve_recorded(lasso_cd, prob, lam, warm=start)
                (want_C, want_info), want_caught = _solve_recorded(
                    _oracle_lasso_cd, prob, lam, warm=start, return_info=True)
                assert _same_bits(C, want_C)
                assert max(sweeps, default=0) == want_info["sweeps"]
                trace = lasso_column_trace(prob, np.zeros_like(C) if start is None
                                           else start, C, lam)
                assert _same_bits(trace, want_info["objective_trace"])
                assert caught == want_caught


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("whole", [False, True], ids=["stop", "whole"])
def test_lasso_path_screen_matches_a_kernel_loop(monkeypatch, masked, whole):
    prob = _screen_draw(masked)
    grid = default_lambda_grid(prob, num=25)
    for cap in (baselines.LASSO_MAX_SWEEPS, 2):
        monkeypatch.setattr(baselines, "LASSO_MAX_SWEEPS", cap)
        got, caught = _solve_recorded(lasso_gic_path, prob, grid, _whole_grid=whole)
        with monkeypatch.context() as m:
            m.setattr(baselines, "lasso_cd", _oracle_lasso_cd)
            want, want_caught = _solve_recorded(lasso_gic_path, prob, grid,
                                                _whole_grid=whole)
        assert _same_bits(got[0], want[0]) and got[1] == want[1]
        assert len(got[2]) == len(want[2])
        for (lam, C), (want_lam, want_C) in zip(got[2], want[2]):
            assert lam == want_lam and _same_bits(C, want_C)
        assert [text for _, text in caught] == [text for _, text in want_caught]


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_lasso_screen_keeps_columns_out_of_the_kernel(monkeypatch, masked):
    prob = _screen_draw(masked)
    lam_max = default_lambda_grid(prob)[0]
    calls = []
    kernel = baselines._weighted_lasso

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(baselines, "_weighted_lasso", counted)
    for lam in (lam_max, 1.5 * lam_max):
        for start in (None, np.zeros((prob.p, prob.q))):
            C = lasso_cd(prob, lam, warm=start)
            assert not calls and not np.any(C)
    lasso_cd(prob, 0.9 * lam_max)
    assert 0 < len(calls) < prob.q  # some columns still pass the screen


# ---------------------------------------------------------------------------
# alternating convex search


def rank1_instance(rng, n=14, p=6, q=5, noise=0.0):
    X = rng.standard_normal((n, p))
    u = np.zeros(p)
    u[:3] = [1.5, -1.0, 0.5]
    v = rng.standard_normal(q)
    C = np.outer(u, v)
    Y = X @ C + noise * rng.standard_normal((n, q))
    return ProblemData(X, Y), C


def test_acs_full_shrinkage_gives_zero_factor(monkeypatch):
    rng = np.random.default_rng(8)
    prob, _ = rank1_instance(rng, noise=0.2)
    lam_max = float(np.abs(prob.X.T @ prob.Y).max()) / prob.n
    fac = acs_cure(prob, 50 * lam_max)
    assert fac.is_zero
    init = svd_of_ols_factor(prob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the first a-block is zero
        fac, trace = acs_cure_traced(prob, 50 * lam_max)
        assert fac.is_zero and fac.norm_mode == NormMode.L1 and len(trace) == 1
        # a start whose v loading is zero
        zero_v = UnitRankFactor(init.d, init.u, np.zeros(prob.q))
        fac, trace = acs_cure_traced(prob, 0.05, init=zero_v)
        assert fac.is_zero and fac.norm_mode == NormMode.L1 and trace == []
        # After a nonzero a-block the a-block's optimality conditions put some
        # |c_k| above the v-block's threshold, so only a stub gives a zero
        # v-block; the factor is then zero, not divided by its zero norm.
        monkeypatch.setattr(baselines, "_b_step", lambda *args: np.zeros(prob.q))
        fac, trace = acs_cure_traced(prob, 0.05)
        assert fac.is_zero and fac.norm_mode == NormMode.L1 and len(trace) == 1


def test_acs_unpenalized_recovers_noiseless_truth():
    rng = np.random.default_rng(9)
    prob, C = rank1_instance(rng)
    fac = acs_cure(prob, 0.0, config=AcsConfig(mu=0.0))
    assert np.linalg.norm(fac.to_matrix() - C) <= 1e-6 * np.linalg.norm(C)
    fac.validate()  # L1 normalization holds on output


def test_acs_trace_monotone_and_improves_on_init():
    rng = np.random.default_rng(10)
    prob, _ = rank1_instance(rng, noise=0.5)
    fac, trace = acs_cure_traced(prob, 0.05)
    assert len(trace) >= 2
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= trace[0] + 1e-12
    # the reported objective is the core-evaluated objective of the result
    assert trace[-1] == pytest.approx(acs_objective(prob, fac, 0.05, 1e-4), abs=1e-9)


def test_acs_output_is_a_fixed_point():
    rng = np.random.default_rng(11)
    prob, _ = rank1_instance(rng, noise=0.4)
    lam = 0.08
    fac = acs_cure(prob, lam)
    again, trace = acs_cure_traced(prob, lam, init=fac)
    assert trace[0] - trace[-1] <= 1e-6
    assert acs_objective(prob, again, lam, 1e-4) == pytest.approx(
        acs_objective(prob, fac, lam, 1e-4), abs=1e-6
    )


def test_acs_tiny_ridge_keeps_l1_constraints():
    rng = np.random.default_rng(12)
    prob, _ = rank1_instance(rng, noise=0.3)
    fac = acs_cure(prob, 0.05, config=AcsConfig(mu=1e-10))
    assert not fac.is_zero
    assert fac.norm_mode == NormMode.L1
    fac.validate()


def test_acs_takes_mu_from_config():
    rng = np.random.default_rng(17)
    prob, _ = rank1_instance(rng, noise=0.3)
    heavy = AcsConfig(mu=5.0)
    fac = acs_cure(prob, 0.05, config=heavy)
    default = acs_cure(prob, 0.05)
    assert fac.d < 0.5 * default.d  # the ridge term shrinks the layer
    assert acs_objective(prob, fac, 0.05, 5.0) < acs_objective(prob, default, 0.05, 5.0)
    (_, on_path), = acs_path(prob, grid=[0.05], config=heavy)
    assert on_path.d == pytest.approx(fac.d, rel=1e-12)


def test_acs_warns_instead_of_stopping_silently(monkeypatch):
    rng = np.random.default_rng(18)
    prob, _ = rank1_instance(rng, noise=0.5)
    _, trace = acs_cure_traced(prob, 0.05)
    assert len(trace) > 2  # this draw needs more than one outer iteration
    with (monkeypatch.context() as m,
          pytest.warns(RuntimeWarning, match="acs_cure did not converge in 1 iterations")):
        m.setattr(baselines, "ACS_MAX_ITERS", 1)
        acs_cure(prob, 0.05)
    monkeypatch.setattr(baselines, "ACS_MAX_SWEEPS", 1)
    with pytest.warns(RuntimeWarning, match="acs_cure: .*sweep cap"):
        acs_cure(prob, 0.05)


def test_acs_rejects_degenerate_and_misconfigured_input():
    X = np.zeros((4, 2))
    X[:, 1] = 1.0
    prob = ProblemData(X, np.ones((4, 2)))
    bad = UnitRankFactor(1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate"):
        acs_cure(prob, 0.1, init=bad)
    with pytest.raises(ValueError):
        acs_cure(prob, -1.0)
    with pytest.raises(ValueError, match="mu"):
        AcsConfig(mu=np.nan)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            acs_cure(prob, lam)
    for grid in ([0.01, 0.5], [], [0.5, np.nan], [[0.5, 0.1]]):
        with pytest.raises(ValueError, match="grid"):
            acs_path(prob, grid)


def test_acs_masked_matches_unmasked_when_all_observed():
    rng = np.random.default_rng(13)
    prob, _ = rank1_instance(rng, noise=0.3)
    fac = acs_cure(prob, 0.05)
    same = acs_cure(
        ProblemData(prob.X, prob.Y, np.ones(prob.Y.shape, dtype=bool)), 0.05
    )
    np.testing.assert_allclose(fac.to_matrix(), same.to_matrix(), atol=1e-12)


def test_acs_path_singleton_matches_direct_call():
    rng = np.random.default_rng(14)
    prob, _ = rank1_instance(rng, noise=0.4)
    out = acs_path(prob, grid=[0.07])
    assert len(out) == 1
    lam, fac = out[0]
    assert lam == 0.07
    direct = acs_cure(prob, 0.07)
    assert fac.d == pytest.approx(direct.d, rel=1e-12)
    np.testing.assert_allclose(fac.to_matrix(), direct.to_matrix(), atol=1e-12)


def test_acs_path_first_level_can_be_zero():
    rng = np.random.default_rng(15)
    prob, _ = rank1_instance(rng, noise=0.3)
    lam_max = float(np.abs(prob.X.T @ prob.Y).max()) / prob.n
    out = acs_path(prob, grid=[20 * lam_max, 0.02 * lam_max])
    assert out[0][1].is_zero
    assert not out[1][1].is_zero


def test_acs_path_warm_starts_match_cold_solutions():
    rng = np.random.default_rng(16)
    prob, _ = rank1_instance(rng, n=20, p=8, q=6, noise=0.5)
    grid = default_lambda_grid(prob, num=8, floor=0.05)
    mu = 1e-4
    cfg = AcsConfig(mu=mu)
    for lam, fac in acs_path(prob, grid=grid, config=cfg):
        cold = acs_cure(prob, lam, config=cfg)
        a = acs_objective(prob, fac, lam, mu)
        b = acs_objective(prob, cold, lam, mu)
        assert abs(a - b) <= 1e-4 * max(1.0, abs(b))


def test_svd_of_ols_factor_modes():
    rng = np.random.default_rng(17)
    prob, _ = rank1_instance(rng, noise=0.2)
    fac = svd_of_ols_factor(prob)
    fac.validate(prob.X)  # predictor-metric normalization
    zero = svd_of_ols_factor(ProblemData(prob.X, np.zeros(prob.Y.shape)))
    assert zero.is_zero


# ---------------------------------------------------------------------------
# reduced-rank regression


def test_rrr_rank_zero_is_zero_matrix():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 3))
    np.testing.assert_array_equal(fit_rrr(X, Y, 0), np.zeros((4, 3)))


def test_rrr_full_rank_is_ols():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((12, 4))
    Y = rng.standard_normal((12, 3))
    ols = np.linalg.lstsq(X, Y, rcond=None)[0]
    np.testing.assert_allclose(fit_rrr(X, Y, 3), ols, atol=1e-8)


def test_rrr_beats_random_rank2_candidates():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((12, 4))
    Y = rng.standard_normal((12, 3))
    C = fit_rrr(X, Y, 2)
    assert np.linalg.matrix_rank(C, tol=1e-10) <= 2
    best = np.linalg.norm(Y - X @ C)
    m = 10_000
    L = rng.standard_normal((m, 4, 2)) * rng.uniform(0.1, 2.0, (m, 1, 1))
    Rt = rng.standard_normal((m, 2, 3))
    cands = L @ Rt
    # half the budget probes near the solution: rank-2 truncations of C + noise
    for i in range(m // 2, m):
        U, s, Vt = np.linalg.svd(C + 0.05 * rng.standard_normal((4, 3)))
        cands[i] = (U[:, :2] * s[:2]) @ Vt[:2]
    errs = np.linalg.norm(Y[None] - np.einsum("ij,mjk->mik", X, cands), axis=(1, 2))
    assert best <= errs.min() + 1e-12


def test_rrr_is_eckart_young_truncation_of_ols_fit():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((15, 5))
    Y = rng.standard_normal((15, 4))
    ols = np.linalg.lstsq(X, Y, rcond=None)[0]
    U, s, Vt = np.linalg.svd(X @ ols, full_matrices=False)
    for r in (1, 2, 3):
        want = (U[:, :r] * s[:r]) @ Vt[:r]
        np.testing.assert_allclose(X @ fit_rrr(X, Y, r), want, atol=1e-8)


def test_rrr_with_rank_at_least_effective_rank_is_ols():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((14, 5))
    C0 = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    Y = X @ C0
    ols = np.linalg.lstsq(X, Y, rcond=None)[0]
    np.testing.assert_allclose(fit_rrr(X, Y, 3), ols, atol=1e-8)


def test_rrr_input_validation():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((4, 6))  # p > n
    Y = rng.standard_normal((4, 3))
    assert fit_rrr(X, Y, 2).shape == (6, 3)
    with pytest.raises(ValueError):
        fit_rrr(X, Y, -1)
    with pytest.raises(ValueError):
        fit_rrr(X, Y, 4)  # beyond min(p, q)


def test_ridge_ols_chooses_the_ridge():
    rng = np.random.default_rng(29)

    def ridged(X, Y, ridge):
        return np.linalg.solve(X.T @ X + ridge * np.eye(X.shape[1]), X.T @ Y)

    X = rng.standard_normal((12, 5))
    Y = rng.standard_normal((12, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # n > p with full column rank: ridge 0, no warning
        np.testing.assert_allclose(baselines._ridge_ols(X, Y), ridged(X, Y, 0.0),
                                   atol=1e-12)
        # p > n: the default ridge, no warning
        np.testing.assert_allclose(baselines._ridge_ols(X[:4], Y[:4]),
                                   ridged(X[:4], Y[:4], default_rrr_ridge(X[:4])),
                                   atol=1e-12)
    X[:, 2] = 0.0  # n > p but singular: the default ridge, with a warning
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        B = baselines._ridge_ols(X, Y)
    np.testing.assert_allclose(B, ridged(X, Y, default_rrr_ridge(X)), atol=1e-12)
    for n in (12, 4):  # an all-zero X has default ridge 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="singular normal equations"):
                baselines._ridge_ols(np.zeros((n, 5)), Y[:n])


def test_default_rrr_ridge_formula():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((9, 4))
    assert default_rrr_ridge(X) == pytest.approx(1e-3 * np.trace(X.T @ X) / 4)


# ---------------------------------------------------------------------------
# rank selection by cross validation


def test_select_rank_cv_finds_noiseless_rank():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((40, 6))
    C0 = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    Y = X @ C0
    rank, errs = select_rank_cv(X, Y, r_max=4, folds=5, seed=3)
    assert rank == 2
    assert errs.shape == (5,)
    assert errs[2] == pytest.approx(0.0, abs=1e-18)


def test_select_rank_cv_zero_response():
    rng = np.random.default_rng(26)
    X = rng.standard_normal((20, 4))
    rank, _ = select_rank_cv(X, np.zeros((20, 3)), r_max=3, folds=4, seed=0)
    assert rank == 0


def test_select_rank_cv_is_deterministic_in_seed():
    rng = np.random.default_rng(27)
    X = rng.standard_normal((25, 5))
    Y = X @ rng.standard_normal((5, 4)) + rng.standard_normal((25, 4))
    a = select_rank_cv(X, Y, r_max=4, folds=5, seed=42)
    b = select_rank_cv(X, Y, r_max=4, folds=5, seed=42)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_select_rank_cv_falls_back_to_the_default_ridge_on_a_singular_fold():
    # X has full column rank, but column 3 is nonzero on row 5 only, so the
    # training fold without row 5 has a singular X^T X at ridge 0.
    truth = gen_dataset(SimSpec(model="II", n=20, p=8, q=6, r_star=2, seed=1))
    X = truth.X.copy()
    X[:, 3] = 0.0
    X[5, 3] = 1.0
    assert np.linalg.matrix_rank(X) == 8
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        rank, errs = select_rank_cv(X, truth.Y, r_max=6, folds=5, seed=0)
    assert 0 <= rank <= 6 and np.all(np.isfinite(errs))


def test_select_rank_cv_fits_training_folds_shorter_than_p():
    # The full X has n > p, but each 40-row training fold has fewer rows
    # than p = 45 and takes the default ridge.
    truth = gen_dataset(SimSpec(model="II", n=50, p=45, q=10, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rank, errs = select_rank_cv(truth.X, truth.Y, r_max=10, folds=5, seed=1)
    assert 0 <= rank <= 10 and errs.shape == (11,) and np.all(np.isfinite(errs))


def select_rank_cv_by_its_own_loop(X, Y, r_max, folds, seed):
    """select_rank_cv as it was before it scored ranks through
    kfold_cv_select: its own loop over the folds, rows by np.setdiff1d."""
    errs = np.zeros((folds, r_max + 1))
    for f, test in enumerate(fold_indices(X.shape[0], folds, seed)):
        train = np.setdiff1d(np.arange(X.shape[0]), test)
        B = baselines._ridge_ols(X[train], Y[train])
        _, _, Vt = np.linalg.svd(X[train] @ B, full_matrices=False)
        for r in range(r_max + 1):
            Vr = Vt[:r].T
            R = Y[test] - X[test] @ (B @ Vr @ Vr.T)
            errs[f, r] = float(np.vdot(R, R)) / (2.0 * test.size)
    mean_err = errs.mean(axis=0)
    lo = float(mean_err.min())
    good = np.nonzero(mean_err <= lo * (1 + 1e-8) + 1e-12)[0]
    return int(good[0]), mean_err


@pytest.mark.parametrize("draw", range(6))
def test_select_rank_cv_matches_its_own_fold_loop_bit_for_bit(draw):
    rng = np.random.default_rng(900 + draw)
    n, p, q = [(40, 6, 5), (20, 4, 3), (12, 5, 4), (30, 8, 6), (9, 3, 3), (50, 45, 10)][draw]
    X = rng.standard_normal((n, p))
    Y = X @ rng.standard_normal((p, 2)) @ rng.standard_normal((2, q))
    Y += [0.0, 0.0, 0.5, 1.0, 0.1, 2.0][draw] * rng.standard_normal((n, q))
    if draw == 1:
        Y[:] = 0.0
    folds = n if draw in (2, 4) else 5
    r_max = min(p, q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # folds shorter than p
        rank, errs = select_rank_cv(X, Y, r_max, folds=folds, seed=draw)
        want_rank, want_errs = select_rank_cv_by_its_own_loop(X, Y, r_max, folds, draw)
    assert rank == want_rank
    assert errs.tobytes() == want_errs.tobytes()


def test_select_rank_cv_validates_folds():
    rng = np.random.default_rng(28)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 2))
    with pytest.raises(ValueError):
        select_rank_cv(X, Y, r_max=2, folds=7)
    with pytest.raises(ValueError):
        select_rank_cv(X, Y, r_max=2, folds=1)
    with pytest.raises(ValueError):
        select_rank_cv(X, Y, r_max=5, folds=3)

import warnings

import numpy as np
import pytest

from curereg.baselines import (
    AcsConfig,
    LassoConfig,
    acs_cure,
    acs_path,
    default_lambda_grid,
    default_rrr_ridge,
    fit_rrr,
    lasso_cd,
    lasso_gic_path,
    lasso_objective,
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
    eval_loss,
    eval_penalty,
)
from curereg.simgen import SimSpec, gen_dataset
from curereg.tuning import GRID_STOP_WINDOW, CriterionInput, information_criterion


def acs_objective(prob, fac, lam, mu):
    return eval_loss(prob, fac, mu) + eval_penalty(fac, lam)


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


def test_lasso_stationarity_bound_and_trace():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 8))
    Y = rng.standard_normal((15, 4))
    cfg = LassoConfig(tol=1e-9)
    for mask in (None, rng.uniform(size=(15, 4)) > 0.3):
        prob = ProblemData(X, Y, mask)
        lam = 0.1
        C, info = lasso_cd(prob, lam, config=cfg, return_info=True)
        R = prob.observed_response() - X @ C
        if prob.mask is not None:
            R[~prob.mask] = 0.0
        assert np.abs(X.T @ R).max() / 15 <= lam + cfg.tol
        assert info["converged"]
        tr = info["objective_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))


def test_lasso_nonconvergence_warns_and_flags():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((20, 1))
    X = base + 0.01 * rng.standard_normal((20, 10))  # nearly collinear
    Y = rng.standard_normal((20, 3))
    prob = ProblemData(X, Y)
    with pytest.warns(RuntimeWarning, match="lasso_cd"):
        C, info = lasso_cd(
            prob, 0.0, config=LassoConfig(max_sweeps=1), return_info=True
        )
    assert not info["converged"]
    assert C.shape == (10, 3)


def test_lasso_rejects_bad_arguments():
    rng = np.random.default_rng(5)
    prob = ProblemData(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        lasso_cd(prob, -0.1)
    with pytest.raises(ValueError):
        lasso_cd(prob, 0.1, warm=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        LassoConfig(tol=0.0)


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
        vals.append(
            information_criterion(
                "gic", CriterionInput(rss, 30, 10, 4, int(np.count_nonzero(C)))
            )
        )
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
    observed = None if prob.mask is None else prob.n_observed
    warm, levels, vals = None, [], []
    for lam in grid:
        warm = lasso_cd(prob, float(lam), warm=warm)
        levels.append((float(lam), warm))
        R = prob.observed_response() - prob.X @ warm
        if prob.mask is not None:
            R[~prob.mask] = 0.0
        df = int(np.count_nonzero(warm))
        vals.append(information_criterion(
            "gic", CriterionInput(float(np.vdot(R, R)), prob.n, prob.p, prob.q, df,
                                  observed)))
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
    tol = LassoConfig().tol
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
    tol = LassoConfig().tol
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
        warnings.simplefilter("error", RuntimeWarning)
        C, info = lasso_cd(ProblemData(X, Y[:, :1]), 1e-3, return_info=True)
    assert info["converged"]  # within LassoConfig().max_sweeps
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
    tol = LassoConfig().tol
    for lam in (0.0, 1e-3 * lam_max, 0.3 * lam_max):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            C, info = lasso_cd(prob, lam, return_info=True)
        warned = any("stationarity tolerance" in str(w.message) for w in caught)
        assert np.all(np.isfinite(C))
        assert info["converged"] == (not warned)
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
# alternating convex search


def rank1_instance(rng, n=14, p=6, q=5, noise=0.0):
    X = rng.standard_normal((n, p))
    u = np.zeros(p)
    u[:3] = [1.5, -1.0, 0.5]
    v = rng.standard_normal(q)
    C = np.outer(u, v)
    Y = X @ C + noise * rng.standard_normal((n, q))
    return ProblemData(X, Y), C


def test_acs_full_shrinkage_gives_zero_factor():
    rng = np.random.default_rng(8)
    prob, _ = rank1_instance(rng, noise=0.2)
    lam_max = float(np.abs(prob.X.T @ prob.Y).max()) / prob.n
    fac = acs_cure(prob, 50 * lam_max)
    assert fac.is_zero


def test_acs_unpenalized_recovers_noiseless_truth():
    rng = np.random.default_rng(9)
    prob, C = rank1_instance(rng)
    fac = acs_cure(prob, 0.0, config=AcsConfig(mu=0.0))
    assert np.linalg.norm(fac.to_matrix() - C) <= 1e-6 * np.linalg.norm(C)
    fac.validate()  # L1 normalization holds on output


def test_acs_trace_monotone_and_improves_on_init():
    rng = np.random.default_rng(10)
    prob, _ = rank1_instance(rng, noise=0.5)
    fac, trace = acs_cure(prob, 0.05, return_trace=True)
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
    again, trace = acs_cure(prob, lam, init=fac, return_trace=True)
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
    _, trace = acs_cure(prob, 0.05, return_trace=True)
    assert len(trace) > 2  # this draw needs more than one outer iteration
    with pytest.warns(RuntimeWarning, match="acs_cure did not converge in 1 iterations"):
        acs_cure(prob, 0.05, config=AcsConfig(max_iters=1))
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
    with pytest.raises(ValueError):
        AcsConfig(lambda_grid=[0.1, 0.2])  # must decrease
    with pytest.raises(ValueError):
        AcsConfig(tol=0.0)


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
    with pytest.raises(ValueError, match="ridge"):
        fit_rrr(X, Y, 2)
    assert fit_rrr(X, Y, 2, ridge=default_rrr_ridge(X)).shape == (6, 3)
    with pytest.raises(ValueError):
        fit_rrr(X, Y, -1, ridge=1.0)
    with pytest.raises(ValueError):
        fit_rrr(X, Y, 4, ridge=1.0)  # beyond min(p, q)
    with pytest.raises(ValueError):
        fit_rrr(X, Y, 2, ridge=-1.0)


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
        rank, errs = select_rank_cv(X, truth.Y, r_max=6, folds=5, ridge=0.0, seed=0)
    assert 0 <= rank <= 6 and np.all(np.isfinite(errs))


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

import math
import warnings

import numpy as np
import pytest

from curereg import baselines, deflation, stagewise, tuning
from curereg.baselines import (
    AcsConfig,
    acs_path,
    default_lambda_grid,
    fit_rrr,
)
from curereg.core import (
    FactorModel,
    NormMode,
    ProblemData,
    column_normalize,
    p_orthogonal_svd,
    renormalize_factor,
    residual,
)
from curereg.deflation import (
    DeflationConfig,
    deflate,
    parallel_pursuit,
    sequential_pursuit,
)
from curereg.metrics import estimation_errors
from curereg.simgen import SimSpec, gen_dataset
from curereg.stagewise import StagewiseConfig, run_path, select_on_path
from curereg.tuning import GRID_STOP_WINDOW, information_criterion


@pytest.fixture
def exact_acs(monkeypatch):
    """An unpenalized alternating solver run to a tight stop."""
    monkeypatch.setattr(baselines, "ACS_TOL", 1e-12)
    monkeypatch.setattr(baselines, "ACS_MAX_ITERS", 2000)
    return AcsConfig(lambda_grid=np.array([0.0]), mu=0.0)


def lowrank_instance(rng, n, p, q, r, noise=0.0, scale=1.0):
    X = rng.standard_normal((n, p))
    C0 = scale * rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
    Y = X @ C0 + noise * rng.standard_normal((n, q))
    return ProblemData(X, Y), C0


def models_bitwise_equal(a, b):
    assert a.rank == b.rank
    for la, lb in zip(a.layers, b.layers):
        assert la.d == lb.d
        assert np.array_equal(la.u, lb.u)
        assert np.array_equal(la.v, lb.v)


# ---------------------------------------------------------------------------
# sequential pursuit


def test_sequential_rank_one_equals_single_fit():
    rng = np.random.default_rng(0)
    prob, _ = lowrank_instance(rng, 20, 6, 5, 1, noise=0.3)
    sw = StagewiseConfig(epsilon=0.2)
    model = sequential_pursuit(
        prob, DeflationConfig(strategy="sequential", rank=1, solver=sw)
    )
    direct = select_on_path(run_path(prob, sw)).factor
    assert model.rank == 1
    want = renormalize_factor(direct, NormMode.PORTH, prob.X)
    models_bitwise_equal(model, type(model)((want,)))


def test_sequential_unpenalized_acs_recovers_svd_layers(exact_acs):
    rng = np.random.default_rng(1)
    prob, C0 = lowrank_instance(rng, 30, 8, 6, 3)
    ols = np.linalg.lstsq(prob.X, prob.Y, rcond=None)[0]
    oracle = p_orthogonal_svd(prob.X, ols, 3)
    cfg = DeflationConfig(strategy="sequential", rank=3, solver=exact_acs)
    model = sequential_pursuit(prob, cfg)
    assert model.rank == 3
    for got, want in zip(model.layers, oracle.layers):
        assert np.linalg.norm(got.to_matrix() - want.to_matrix()) <= 1e-5


def test_sequential_beats_rrr_on_fit_error():
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(SimSpec(model="II", n=60, p=100, q=60, r_star=3, seed=5))
    prob = ProblemData(truth.X, truth.Y)
    cfg = DeflationConfig(
        strategy="sequential", rank=3, solver=StagewiseConfig(epsilon=1.0)
    )
    model = sequential_pursuit(prob, cfg)
    _, er_seq = estimation_errors(model.to_matrix((100, 60)), truth.c_star, truth.X)
    rrr = fit_rrr(truth.X, truth.Y, 3)
    _, er_rrr = estimation_errors(rrr, truth.c_star, truth.X)
    assert er_seq < er_rrr


def test_sequential_residual_norms_decrease():
    rng = np.random.default_rng(2)
    prob, _ = lowrank_instance(rng, 25, 7, 6, 3, noise=0.4)
    cfg = DeflationConfig(
        strategy="sequential", rank=3, solver=StagewiseConfig(epsilon=0.2)
    )
    model = sequential_pursuit(prob, cfg)
    Yk = prob.Y.copy()
    norms = [np.linalg.norm(Yk)]
    for lay in model.layers:
        Yk = Yk - prob.X @ lay.to_matrix()
        norms.append(np.linalg.norm(Yk))
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_sequential_stops_on_zero_layer():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 4))
    prob = ProblemData(X, np.zeros((12, 3)))
    cfg = DeflationConfig(
        strategy="sequential", rank=3, solver=StagewiseConfig(criterion="none")
    )
    with pytest.warns(RuntimeWarning, match="layer 1 is zero"):
        model = sequential_pursuit(prob, cfg)
    assert model.rank == 0


def test_porth_resum_reproduces_total():
    rng = np.random.default_rng(4)
    prob, _ = lowrank_instance(rng, 24, 6, 5, 2, noise=0.3)
    cfg = DeflationConfig(
        strategy="sequential", rank=2, solver=StagewiseConfig(epsilon=0.25)
    )
    model = deflate(prob, cfg)
    total = model.to_matrix((6, 5))
    again = sum(
        renormalize_factor(
            renormalize_factor(lay, NormMode.L1), NormMode.PORTH, prob.X
        ).to_matrix()
        for lay in model.layers
    )
    np.testing.assert_allclose(again, total, atol=1e-10)


# ---------------------------------------------------------------------------
# parallel pursuit


def test_parallel_rank_one_with_zero_pilot_equals_single_fit(monkeypatch):
    rng = np.random.default_rng(5)
    prob, _ = lowrank_instance(rng, 20, 6, 5, 1, noise=0.3)
    sw = StagewiseConfig(epsilon=0.2)
    cfg = DeflationConfig(
        strategy="parallel",
        rank=1,
        solver=sw,
        initializer="lasso",
    )
    # a fully shrunk lasso pilot
    monkeypatch.setattr(deflation, "lasso_gic_path",
                        lambda pb: (np.zeros((pb.p, pb.q)), None, None))
    with pytest.warns(RuntimeWarning) as rec:
        model = parallel_pursuit(prob, cfg)
    assert any("pilot estimate is zero" in str(w.message) for w in rec)
    direct = renormalize_factor(
        select_on_path(run_path(prob, sw)).factor, NormMode.PORTH, prob.X
    )
    assert model.rank == 1
    models_bitwise_equal(model, type(model)((direct,)))


def test_parallel_unpenalized_recovers_noiseless_truth(exact_acs):
    rng = np.random.default_rng(6)
    prob, C0 = lowrank_instance(rng, 30, 8, 6, 2)
    cfg = DeflationConfig(
        strategy="parallel", rank=2, solver=exact_acs, initializer="rrr"
    )
    model = parallel_pursuit(prob, cfg)
    assert model.rank == 2
    fit_gap = np.linalg.norm(prob.X @ (model.to_matrix((8, 6)) - C0))
    assert fit_gap <= 1e-5 * np.linalg.norm(prob.X @ C0)


def test_parallel_pilot_rank_below_target_warns_and_shrinks(exact_acs):
    rng = np.random.default_rng(8)
    prob, _ = lowrank_instance(rng, 25, 6, 5, 1)  # exactly rank one
    cfg = DeflationConfig(
        strategy="parallel", rank=2, solver=exact_acs, initializer="rrr"
    )
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        model = parallel_pursuit(prob, cfg)
    # One warning: the predictor-metric SVD that finds the short pilot is silent.
    assert [str(w.message) for w in rec if w.category is RuntimeWarning] == [
        "pilot rank 1 is below the target 2; fitting only the pilot layers"
    ]
    assert model.rank == 1


def test_parallel_threshold_noop_when_loose():
    rng = np.random.default_rng(9)
    prob, _ = lowrank_instance(rng, 22, 6, 5, 2, noise=0.3)
    base = dict(
        strategy="parallel",
        rank=2,
        solver=StagewiseConfig(epsilon=0.25),
        initializer="rrr",
    )
    plain = parallel_pursuit(prob, DeflationConfig(**base))
    loose = parallel_pursuit(prob, DeflationConfig(**base, s_threshold=30))
    models_bitwise_equal(plain, loose)


def test_parallel_threshold_sparsifies_pilot(exact_acs):
    rng = np.random.default_rng(10)
    prob, C0 = lowrank_instance(rng, 30, 8, 6, 2)
    cfg = DeflationConfig(
        strategy="parallel",
        rank=2,
        solver=exact_acs,
        initializer="rrr",
        s_threshold=12,
    )
    model = parallel_pursuit(prob, cfg)
    assert model.rank == 2  # refit survives a heavily thresholded pilot


# ---------------------------------------------------------------------------
# tuning plumbing shared by both strategies


def test_acs_layer_selection_matches_manual_gic_scan():
    rng = np.random.default_rng(11)
    prob, _ = lowrank_instance(rng, 26, 7, 5, 1, noise=0.5)
    grid = np.geomspace(0.5, 0.01, 12)
    solver = AcsConfig(lambda_grid=grid)
    cfg = DeflationConfig(strategy="sequential", rank=1, solver=solver)
    model = sequential_pursuit(prob, cfg)
    best = None
    for lam, fac in acs_path(prob, grid, config=solver):
        R = residual(prob, fac)
        rss = float(np.vdot(R, R))
        df = 0 if fac.is_zero else np.count_nonzero(fac.u) + np.count_nonzero(fac.v) - 1
        val = (
            -np.inf
            if rss <= 0
            else information_criterion("gic", rss, int(df), 7, 5, 26 * 5)
        )
        if best is None or val < best[0]:
            best = (val, fac)
    want = renormalize_factor(best[1], NormMode.PORTH, prob.X)
    models_bitwise_equal(model, type(model)((want,)))


def _record_acs_paths(monkeypatch):
    """Wrap ``deflation.acs_path`` so each returned path is kept."""
    import curereg.deflation as dfl

    orig = dfl.acs_path
    paths = []

    def recorded(*args, **kwargs):
        out = orig(*args, **kwargs)
        paths.append(out)
        return out

    monkeypatch.setattr(dfl, "acs_path", recorded)
    return paths


def _grid_draw(seed, masked):
    """A seeded model-II draw with a normalized X, 20% missing when masked."""
    truth = gen_dataset(SimSpec(model="II", n=60, p=20, q=12, r_star=1, seed=seed))
    X, _ = column_normalize(truth.X)
    mask = None
    if masked:
        mask = np.random.default_rng(seed).random(truth.Y.shape) >= 0.2
    return ProblemData(X, truth.Y, mask)


def _gic_scan(prob, pairs):
    """Index of the first GIC argmin over ``(lam, factor)`` levels."""
    vals = []
    for _, fac in pairs:
        R = residual(prob, fac)
        df = 0 if fac.is_zero else np.count_nonzero(fac.u) + np.count_nonzero(fac.v) - 1
        vals.append(information_criterion(
            "gic", float(np.vdot(R, R)), int(df), prob.p, prob.q, prob.n_observed))
    return int(np.argmin(vals))


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_acs_selection_without_grid_stop_solves_every_level(monkeypatch, masked):
    prob = _grid_draw(1, masked)
    grid = default_lambda_grid(prob)
    full = acs_path(prob, grid)
    paths = _record_acs_paths(monkeypatch)
    monkeypatch.setattr(tuning, "GRID_STOP_WINDOW", math.inf)  # never stops
    model = sequential_pursuit(prob, DeflationConfig("sequential", 1, AcsConfig()))
    (solved,) = paths
    assert len(solved) == grid.size
    for (lam, fac), (want_lam, want) in zip(solved, full):
        assert lam == want_lam
        models_bitwise_equal(FactorModel((fac,)), FactorModel((want,)))
    want = renormalize_factor(full[_gic_scan(prob, full)][1], NormMode.PORTH, prob.X)
    models_bitwise_equal(model, FactorModel((want,)))


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_acs_grid_stop_keeps_the_full_grid_pick(monkeypatch, seed, masked):
    prob = _grid_draw(seed, masked)
    grid = default_lambda_grid(prob)
    whole = acs_path(prob, grid)
    k = _gic_scan(prob, whole)
    paths = _record_acs_paths(monkeypatch)
    stopped = sequential_pursuit(prob, DeflationConfig("sequential", 1, AcsConfig()))
    want = renormalize_factor(whole[k][1], NormMode.PORTH, prob.X)
    models_bitwise_equal(stopped, FactorModel((want,)))
    (solved,) = paths
    assert len(solved) == min(k + GRID_STOP_WINDOW + 1, grid.size)
    assert [lam for lam, _ in solved] == [lam for lam, _ in whole[:len(solved)]]


def test_cv_layer_selection_is_deterministic():
    rng = np.random.default_rng(12)
    prob, _ = lowrank_instance(rng, 30, 6, 5, 1, noise=0.5)
    for solver in (StagewiseConfig(epsilon=0.25), AcsConfig()):
        cfg = DeflationConfig(
            strategy="sequential",
            rank=1,
            solver=solver,
            criterion="cv",
            cv_folds=3,
            cv_seed=7,
        )
        a = deflate(prob, cfg)
        b = deflate(prob, cfg)
        assert a.rank == b.rank == 1
        models_bitwise_equal(a, b)


def _count_calls(monkeypatch, module, name, batched=None):
    """Wrap ``module.name`` so each call records the row count of its problem.

    ``batched`` names a function of the module that takes a list of problems
    (``run_paths``); each problem it gets is recorded the same way.
    """
    orig = getattr(module, name)
    rows = []

    def counted(problem, *args, **kwargs):
        rows.append(problem.n)
        return orig(problem, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    if batched is not None:
        orig_batched = getattr(module, batched)

        def counted_batch(problems, *args, **kwargs):
            problems = list(problems)
            rows.extend(pb.n for pb in problems)
            return orig_batched(problems, *args, **kwargs)

        monkeypatch.setattr(module, batched, counted_batch)
    return rows


@pytest.mark.parametrize("solver", [StagewiseConfig(epsilon=0.25), AcsConfig()])
def test_cv_layer_fits_the_full_data_path_once(monkeypatch, solver):
    import curereg.deflation as dfl

    rng = np.random.default_rng(12)
    prob, _ = lowrank_instance(rng, 30, 6, 5, 1, noise=0.5)
    folds = 3
    if isinstance(solver, StagewiseConfig):
        # the training folds' paths run together through run_paths
        rows = _count_calls(monkeypatch, dfl, "run_path", batched="run_paths")
    else:
        rows = _count_calls(monkeypatch, dfl, "acs_path")
    cfg = DeflationConfig(
        strategy="sequential", rank=1, solver=solver, criterion="cv", cv_folds=folds
    )
    assert deflate(prob, cfg).rank == 1
    assert len(rows) == folds + 1
    assert rows.count(prob.n) == 1


def _on_rows(monkeypatch, on_build):
    """Wrap ``ProblemData.rows`` so ``on_build(problem)`` sees each problem
    it builds."""
    orig = ProblemData.rows

    def rows(self, index):
        pb = orig(self, index)
        on_build(pb)
        return pb

    monkeypatch.setattr(ProblemData, "rows", rows)


def test_a_stagewise_cv_layer_holds_each_fold_design_once(monkeypatch):
    # The fold engine works on column-major copies of the training designs;
    # no row-major design that ProblemData.rows built is alive by then.
    import weakref

    import curereg.stagewise as sw

    rng = np.random.default_rng(31)
    X = rng.standard_normal((30, 6))
    Y = X[:, :2] @ rng.standard_normal((2, 5)) + 0.3 * rng.standard_normal((30, 5))
    mask = rng.uniform(size=Y.shape) > 0.2
    prob = ProblemData(X, np.where(mask, Y, np.nan), mask)
    designs = []
    _on_rows(monkeypatch, lambda pb: designs.append(weakref.ref(pb.X)))
    engines = []
    orig_init = sw._Engine.__init__

    def init(self, problems):
        engines.append((len(problems), [ref() is not None for ref in designs]))
        orig_init(self, problems)

    monkeypatch.setattr(sw._Engine, "__init__", init)
    cfg = DeflationConfig(strategy="sequential", rank=1, solver=StagewiseConfig(epsilon=0.25),
                          criterion="cv", cv_folds=4)
    assert deflate(prob, cfg).rank == 1
    assert engines == [(1, []), (4, [False] * 4)]


def _acs_layer(prob, folds):
    cfg = DeflationConfig(strategy="sequential", rank=1, solver=AcsConfig(),
                          criterion="cv", cv_folds=folds)
    deflate(prob, cfg)


def _lasso_cv(prob, folds):
    from curereg.cli import _DEFAULTS, fit_method

    fit_method(prob.X, prob.Y, None, "lasso",
               {**_DEFAULTS["fit"], "criterion": "cv", "cv_folds": folds})


def _rrr_rank_search(prob, folds):
    from curereg.baselines import select_rank_cv

    select_rank_cv(prob.X, prob.Y, r_max=3, folds=folds)


@pytest.mark.parametrize("fit", [_acs_layer, _lasso_cv, _rrr_rank_search])
def test_a_fitter_that_yields_a_path_per_fold_holds_two_training_folds(monkeypatch, fit):
    # Each training fold is built when the fitter draws it, so at most the
    # fold just solved and the one just drawn are alive, not all K.
    import weakref

    rng = np.random.default_rng(32)
    prob, _ = lowrank_instance(rng, 30, 6, 5, 1, noise=0.5)
    folds = 5
    trains, alive = [], []

    def count(pb):
        if pb.n > prob.n // 2:  # a training fold, not a test fold
            trains.append(weakref.ref(pb))
            alive.append(sum(ref() is not None for ref in trains))

    _on_rows(monkeypatch, count)
    fit(prob, folds)
    assert len(alive) == folds and max(alive) <= 2


def test_masked_deflation_recovers_structure():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((40, 8))
    C0 = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
    Y = X @ C0 + 0.1 * rng.standard_normal((40, 6))
    mask = rng.uniform(size=(40, 6)) > 0.2
    prob = ProblemData(X, Y, mask)
    cfg = DeflationConfig(
        strategy="sequential", rank=2, solver=StagewiseConfig(epsilon=0.5)
    )
    model = sequential_pursuit(prob, cfg)
    assert model.rank >= 1
    gap = np.linalg.norm(X @ (model.to_matrix((8, 6)) - C0))
    assert gap <= 0.5 * np.linalg.norm(X @ C0)


def test_orthogonality_diagnostics_near_identity_for_exact_layers(exact_acs):
    rng = np.random.default_rng(14)
    prob, _ = lowrank_instance(rng, 28, 7, 6, 2)
    cfg = DeflationConfig(strategy="sequential", rank=2, solver=exact_acs)
    model = sequential_pursuit(prob, cfg)
    XU = prob.X @ model.stacked_u()
    V = model.stacked_v()
    Gu, Gv = XU.T @ XU / prob.X.shape[0], V.T @ V
    assert Gu.shape == Gv.shape == (2, 2)
    np.testing.assert_allclose(np.diag(Gu), 1.0, atol=1e-6)
    assert abs(Gu[0, 1]) <= 1e-5
    np.testing.assert_allclose(np.diag(Gv), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# configuration validation


def test_deflation_config_validation():
    sw = StagewiseConfig()
    with pytest.raises(ValueError):
        DeflationConfig(strategy="greedy", rank=1, solver=sw)
    with pytest.raises(ValueError):
        DeflationConfig(strategy="sequential", rank=0, solver=sw)
    with pytest.raises(TypeError):
        DeflationConfig(strategy="sequential", rank=1, solver="stagewise")
    with pytest.raises(ValueError):
        DeflationConfig(strategy="parallel", rank=1, solver=sw)
    # an unknown pilot fails when the config is built, not once a fit runs
    with pytest.raises(ValueError, match="initializer must be one of"):
        DeflationConfig(strategy="parallel", rank=1, solver=sw, initializer="ols")
    with pytest.raises(ValueError):
        DeflationConfig(
            strategy="parallel",
            rank=3,
            solver=sw,
            initializer="rrr",
            s_threshold=2,
        )
    with pytest.raises(ValueError):
        DeflationConfig(strategy="sequential", rank=1, solver=sw, criterion="none")


def test_strategy_mismatch_is_rejected():
    rng = np.random.default_rng(15)
    prob, _ = lowrank_instance(rng, 10, 4, 3, 1, noise=0.2)
    seq = DeflationConfig(strategy="sequential", rank=1, solver=StagewiseConfig())
    par = DeflationConfig(
        strategy="parallel", rank=1, solver=StagewiseConfig(), initializer="rrr"
    )
    with pytest.raises(ValueError):
        parallel_pursuit(prob, seq)
    with pytest.raises(ValueError):
        sequential_pursuit(prob, par)


def test_the_layer_criterion_runs_and_picks_each_stagewise_path(monkeypatch):
    # The solver config's own criterion is never read: each layer's path runs
    # and is picked by DeflationConfig.criterion, so a short early-stop window
    # cannot end it on one criterion and then pick it by another.
    rng = np.random.default_rng(8)
    prob, _ = lowrank_instance(rng, 20, 6, 5, 1, noise=0.5)
    monkeypatch.setattr(stagewise, "EARLY_STOP_WINDOW", 5)
    knobs = dict(epsilon=0.2)
    for crit, other in (("bic", "gic"), ("aic", "bic"), ("gic", "none")):
        cfg = DeflationConfig(strategy="sequential", rank=1, criterion=crit,
                              solver=StagewiseConfig(criterion=other, **knobs))
        want = select_on_path(run_path(prob, StagewiseConfig(criterion=crit, **knobs)))
        want = renormalize_factor(want.factor, NormMode.PORTH, prob.X)
        models_bitwise_equal(sequential_pursuit(prob, cfg), FactorModel((want,)))
    # Under cv the paths run without a criterion, whatever the solver's.
    cv = [DeflationConfig(strategy="sequential", rank=1, criterion="cv",
                          solver=StagewiseConfig(criterion=c, **knobs))
          for c in ("gic", "none")]
    models_bitwise_equal(*(sequential_pursuit(prob, c) for c in cv))


def test_the_layer_criterion_defaults_to_gic_and_is_required():
    sw = StagewiseConfig(criterion="bic")
    assert DeflationConfig(strategy="sequential", rank=1, solver=sw).criterion == "gic"
    assert DeflationConfig(strategy="sequential", rank=1, solver=AcsConfig()).criterion == "gic"
    with pytest.raises(ValueError, match="criterion must be one of"):
        DeflationConfig(strategy="sequential", rank=1, solver=sw, criterion=None)

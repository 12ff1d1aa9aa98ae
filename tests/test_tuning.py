import math

import numpy as np
import pytest

from curereg.core import ProblemData
from curereg.tuning import (
    GRID_STOP_WINDOW,
    CriterionInput,
    CvSelection,
    EarlyStop,
    GridScan,
    information_criterion,
    kfold_cv_select,
)


def early_stop_check(history, window):
    """The EarlyStop rule fed a whole history in step order."""
    stop = EarlyStop(window)
    stalled = False
    for val in history:
        stalled = stop.update(val)
    return stalled


# ---------------------------------------------------------------------------
# information criteria


def test_gic_zero_df_is_log_rss():
    inp = CriterionInput(rss=math.e, n=5, p=4, q=3, df=0)
    assert information_criterion("gic", inp) == pytest.approx(1.0, abs=1e-15)


def test_df_rule_for_unit_rank_layer():
    u = np.array([1.0, -2.0, 0.0, 3.0, 0.0])
    v = np.array([0.5, 0.0, -0.5])
    df = np.count_nonzero(u) + np.count_nonzero(v) - 1
    assert df == 4
    val = information_criterion("gic", CriterionInput(2.5, 10, 10, 10, df))
    assert np.isfinite(val)


def test_gic_matches_scalar_formula():
    inp = CriterionInput(rss=2.5, n=10, p=10, q=10, df=4)
    want = math.log(2.5) + math.log(math.log(100)) * math.log(100) / 100 * 4
    assert information_criterion("gic", inp) == pytest.approx(want, rel=1e-15)


def test_aic_bic_match_scalar_formulas():
    inp = CriterionInput(rss=3.7, n=8, p=5, q=4, df=6)
    N = 32
    assert information_criterion("aic", inp) == pytest.approx(
        N * math.log(3.7 / N) + 2 * 6, rel=1e-15
    )
    assert information_criterion("bic", inp) == pytest.approx(
        N * math.log(3.7 / N) + math.log(N) * 6, rel=1e-15
    )


def test_criterion_uses_observed_count_under_masking():
    inp = CriterionInput(rss=2.0, n=10, p=6, q=5, df=3, observed=37)
    assert inp.n_effective == 37
    want = math.log(2.0) + math.log(math.log(37)) * math.log(30) / 37 * 3
    assert information_criterion("gic", inp) == pytest.approx(want, rel=1e-15)


def test_criterion_error_cases():
    with pytest.raises(ValueError, match="perfect fit"):
        information_criterion("gic", CriterionInput(0.0, 5, 4, 3, 1))
    with pytest.raises(ValueError):
        information_criterion("gic", CriterionInput(1.0, 5, 4, 3, -1))
    with pytest.raises(ValueError):
        information_criterion("mdl", CriterionInput(1.0, 5, 4, 3, 1))
    with pytest.raises(ValueError, match="at least 3"):
        information_criterion("gic", CriterionInput(1.0, 2, 4, 1, 1))
    # aic is still defined at tiny N
    assert np.isfinite(information_criterion("aic", CriterionInput(1.0, 2, 4, 1, 1)))


def test_gic_monotone_in_df_and_rss():
    vals_df = [
        information_criterion("gic", CriterionInput(2.0, 10, 8, 6, df))
        for df in range(0, 6)
    ]
    assert all(b > a for a, b in zip(vals_df, vals_df[1:]))
    vals_rss = [
        information_criterion("gic", CriterionInput(rss, 10, 8, 6, 3))
        for rss in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b > a for a, b in zip(vals_rss, vals_rss[1:]))


# ---------------------------------------------------------------------------
# early stopping


def test_early_stop_short_improving_history():
    assert early_stop_check([3.0, 2.0, 1.0], 300) is False


def test_early_stop_after_window_without_improvement():
    history = [1.0] + [2.0] * 300
    assert early_stop_check(history, 300) is True
    assert early_stop_check(history[:-1], 300) is False


def test_early_stop_matches_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        history = rng.standard_normal(m).tolist()
        if rng.uniform() < 0.3:
            history[int(rng.integers(0, m))] = None
        window = int(rng.integers(1, 12))
        best = math.inf
        last = 0
        for i, v in enumerate(history):
            if v is not None and v < best:
                best = v
                last = i
        want = (m - 1) - last >= window
        assert early_stop_check(history, window) is want


def test_early_stop_is_monotone_under_nonimproving_extension():
    history = [5.0, 1.0, 3.0, 3.0, 3.0]
    assert early_stop_check(history, 3) is True
    assert early_stop_check(history + [2.0, 2.0], 3) is True
    assert early_stop_check([], 3) is False
    with pytest.raises(ValueError):
        early_stop_check([1.0], 0)


def test_grid_scan_keeps_the_first_argmin_and_stops_after_the_window():
    prob = ProblemData(np.ones((10, 2)), np.ones((10, 3)))
    # gic = log(rss) + c * df: equal values at levels 1 and 3, worse after.
    levels = [(4.0, 0), (2.0, 1), (3.0, 1), (2.0, 1)] + [(5.0, 1)] * 5
    scan = GridScan(prob, "gic", window=3)
    stops = [scan.update(rss, df) for rss, df in levels]
    assert scan.best == 1
    assert stops.index(True) == 1 + 3
    full = GridScan(prob, "gic", window=None)
    assert not any(full.update(rss, df) for rss, df in levels)
    assert full.best == 1


def test_grid_scan_stops_after_the_default_window():
    prob = ProblemData(np.ones((10, 2)), np.ones((10, 3)))
    scan = GridScan(prob, "gic")
    stops = [scan.update(rss, 1) for rss in [2.0] + [3.0] * 2 * GRID_STOP_WINDOW]
    assert scan.best == 0 and stops.index(True) == GRID_STOP_WINDOW


def test_grid_scan_prefers_a_perfect_fit():
    prob = ProblemData(np.ones((10, 2)), np.ones((10, 3)))
    scan = GridScan(prob, "aic", window=2)
    assert [scan.update(rss, 0) for rss in (3.0, 0.0, 4.0)] == [False, False, True]
    assert scan.best == 1


# ---------------------------------------------------------------------------
# cross validation


def per_fold(fit_fn):
    """A ``fit_folds`` for kfold_cv_select that fits each fold on its own."""
    return lambda folds: [fit_fn(pb) for pb in folds]


def two_model_fit_fn(pb):
    """Candidate path: the zero model at a high level, OLS at a low one."""
    ols = np.linalg.lstsq(pb.X, pb.observed_response(), rcond=None)[0]
    return [(1.0, np.zeros((pb.p, pb.q))), (0.1, ols)]


def test_cv_picks_the_true_model_on_noiseless_data():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((24, 4))
    C0 = rng.standard_normal((4, 3))
    prob = ProblemData(X, X @ C0)
    sel = kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=4, seed=0)
    assert isinstance(sel, CvSelection)
    assert sel.index == 1
    assert sel.lam == 0.1
    assert sel.cv_errors[1] == pytest.approx(0.0, abs=1e-16)
    assert sel.cv_errors[0] > sel.cv_errors[1]


def test_cv_leave_one_out_boundary():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 2))
    Y = X @ rng.standard_normal((2, 2))
    prob = ProblemData(X, Y)
    sel = kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=7, seed=1)
    assert sel.index in (0, 1)
    assert sel.cv_errors.shape == (2,)


def test_cv_same_seed_same_answer():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((18, 3))
    Y = X @ rng.standard_normal((3, 2)) + 0.5 * rng.standard_normal((18, 2))
    prob = ProblemData(X, Y)
    a = kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=3, seed=9)
    b = kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=3, seed=9)
    assert a.index == b.index and a.lam == b.lam
    np.testing.assert_array_equal(a.cv_errors, b.cv_errors)


def masked_ols_fit_fn(pb):
    """Per-column least squares over observed rows only, plus a zero model."""
    C = np.zeros((pb.p, pb.q))
    for k in range(pb.q):
        rows = np.ones(pb.n, bool) if pb.mask is None else pb.mask[:, k]
        C[:, k] = np.linalg.lstsq(pb.X[rows], pb.Y[rows, k], rcond=None)[0]
    return [(1.0, np.zeros((pb.p, pb.q))), (0.1, C)]


def test_cv_error_uses_observed_entries_only():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((16, 3))
    C0 = rng.standard_normal((3, 2))
    Y = X @ C0
    mask = rng.uniform(size=(16, 2)) > 0.3
    Y = np.where(mask, Y, np.nan)
    prob = ProblemData(X, Y, mask)
    sel = kfold_cv_select(prob, masked_ols_fit_fn(prob), per_fold(masked_ols_fit_fn), folds=4, seed=0)
    assert sel.index == 1
    assert sel.cv_errors[1] == pytest.approx(0.0, abs=1e-16)


def test_cv_fold_validation():
    rng = np.random.default_rng(5)
    prob = ProblemData(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=6)
    with pytest.raises(ValueError):
        kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(two_model_fit_fn), folds=1)
    with pytest.raises(ValueError):
        kfold_cv_select(prob, [], per_fold(two_model_fit_fn), folds=2)
    with pytest.raises(ValueError):
        kfold_cv_select(prob, two_model_fit_fn(prob), per_fold(lambda pb: []), folds=2)


def test_cv_scores_a_factor_like_its_matrix():
    # a unit-rank candidate is scored as d (X u) v^T without forming C; the
    # errors match scoring its p x q matrix, masked entries included
    from curereg.stagewise import StagewiseConfig, run_path

    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 6))
    Y = np.outer(X[:, 0] - X[:, 2], rng.standard_normal(4)) + 0.3 * rng.standard_normal((20, 4))
    mask = rng.uniform(size=(20, 4)) > 0.2
    prob = ProblemData(X, np.where(mask, Y, np.nan), mask)
    cfg = StagewiseConfig(epsilon=0.3, criterion="none", max_steps=60)

    def factors(pb):
        return [(s.lam, s.factor) for s in run_path(pb, cfg).steps[::6]]

    def matrices(pb):
        return [(lam, fac.to_matrix()) for lam, fac in factors(pb)]

    a = kfold_cv_select(prob, factors(prob), per_fold(factors), folds=4, seed=2)
    b = kfold_cv_select(prob, factors(prob), per_fold(matrices), folds=4, seed=2)
    assert a.index == b.index
    np.testing.assert_allclose(a.cv_errors, b.cv_errors, rtol=1e-12)


def test_cv_needs_one_fold_path_per_training_fold():
    rng = np.random.default_rng(7)
    prob = ProblemData(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
    seen = []

    def fit_folds(folds):
        seen.append([pb.n for pb in folds])
        return [two_model_fit_fn(pb) for pb in folds[:-1]]

    with pytest.raises(ValueError, match="2 paths for 3 folds"):
        kfold_cv_select(prob, two_model_fit_fn(prob), fit_folds, folds=3)
    assert seen == [[8, 8, 8]]

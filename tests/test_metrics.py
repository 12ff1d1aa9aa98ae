import contextlib
import warnings

import numpy as np
import pytest
from scipy import linalg, stats

from curereg.core import FactorModel, NormMode, UnitRankFactor
from curereg.metrics import (
    EvalReport,
    aggregate_reports,
    estimation_errors,
    selection_rates,
    sparsity_summary,
    trimmed_mean_sd,
)


def entrywise_errors(C_hat, C_star, X):
    """Plain-loop oracle for the per-entry error formulas."""
    p, q = C_star.shape
    n = X.shape[0]
    sq = 0.0
    for j in range(p):
        for k in range(q):
            sq += (C_hat[j, k] - C_star[j, k]) ** 2
    D = X @ (C_hat - C_star)
    sq_fit = 0.0
    for i in range(n):
        for k in range(q):
            sq_fit += D[i, k] ** 2
    return sq / (p * q), sq_fit / (n * q)


@contextlib.contextmanager
def no_rate_warnings():
    """Silence the degenerate-denominator warnings in randomized scans."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def confusion_oracle(U_hat, V_hat, U_star, V_star, tol=1e-12):
    """Plain-loop confusion counts over pooled, zero-padded layer matrices."""
    r = max(U_hat.shape[1], U_star.shape[1])

    def pad(M):
        out = np.zeros((M.shape[0], r))
        out[:, : M.shape[1]] = M
        return out

    tp = fp = tn = fn = 0
    for est_m, tru_m in ((U_hat, U_star), (V_hat, V_star)):
        e, t = pad(est_m), pad(tru_m)
        for idx in np.ndindex(e.shape):
            got = abs(e[idx]) > tol
            want = abs(t[idx]) > tol
            if got and want:
                tp += 1
            elif got:
                fp += 1
            elif want:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


# ---------------------------------------------------------------------------
# estimation errors


def test_exact_estimate_scores_zero():
    rng = np.random.default_rng(0)
    C = rng.standard_normal((5, 4))
    X = rng.standard_normal((9, 5))
    assert estimation_errors(C, C, X) == (0.0, 0.0)


def test_single_entry_error():
    C_star = np.zeros((2, 2))
    C_hat = np.array([[1.0, 0.0], [0.0, 0.0]])
    X = np.eye(2)
    er_c, er_xc = estimation_errors(C_hat, C_star, X)
    assert er_c == pytest.approx(0.25)
    assert er_xc == pytest.approx(0.25)  # X orthonormal, n = q = 2


def test_errors_match_entrywise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, p, q = rng.integers(3, 9, size=3)
        X = rng.standard_normal((n, p))
        C_star = rng.standard_normal((p, q))
        C_hat = C_star + 0.3 * rng.standard_normal((p, q))
        got = estimation_errors(C_hat, C_star, X)
        want = entrywise_errors(C_hat, C_star, X)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_prediction_error_vanishes_in_null_space():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 7))
    ns = linalg.null_space(X)
    C_star = rng.standard_normal((7, 3))
    C_hat = C_star + np.outer(ns[:, 0], rng.standard_normal(3))
    er_c, er_xc = estimation_errors(C_hat, C_star, X)
    assert er_c > 1e-4
    assert er_xc <= 1e-28


def test_errors_reject_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        estimation_errors(np.zeros((2, 3)), np.zeros((3, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# selection rates


def test_perfect_pattern_recovery():
    U = np.array([[1.0], [0.0], [2.0]])
    V = np.array([[0.0], [3.0]])
    rates = selection_rates(U, V, U, V)
    assert rates.fpr == 0.0
    assert rates.fnr == 0.0
    assert rates.tp == 3
    assert rates.tn == 2


def test_one_false_positive_in_four_true_zeros():
    U_star = np.array([[1.0], [1.0], [0.0], [0.0]])
    V_star = np.array([[1.0], [0.0], [0.0]])
    U_hat = np.array([[1.0], [1.0], [0.5], [0.0]])
    rates = selection_rates(U_hat, V_star, U_star, V_star)
    assert rates.fpr == pytest.approx(0.25)
    assert rates.fnr == 0.0
    assert (rates.fp, rates.tn) == (1, 3)


def test_rates_match_confusion_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.integers(2, 8, size=2)
        r_true = int(rng.integers(1, 4))
        r_hat = int(rng.integers(1, 4))
        U_star = rng.standard_normal((p, r_true)) * (rng.random((p, r_true)) > 0.4)
        V_star = rng.standard_normal((q, r_true)) * (rng.random((q, r_true)) > 0.4)
        U_hat = rng.standard_normal((p, r_hat)) * (rng.random((p, r_hat)) > 0.4)
        V_hat = rng.standard_normal((q, r_hat)) * (rng.random((q, r_hat)) > 0.4)
        tp, fp, tn, fn = confusion_oracle(U_hat, V_hat, U_star, V_star)
        with no_rate_warnings():
            rates = selection_rates(U_hat, V_hat, U_star, V_star)
        assert (rates.tp, rates.fp, rates.tn, rates.fn) == (tp, fp, tn, fn)
        if tn + fp:
            assert rates.fpr == pytest.approx(fp / (tn + fp))
        if tp + fn:
            assert rates.fnr == pytest.approx(fn / (tp + fn))


def test_missing_layers_count_as_zero_estimates():
    # truth has two layers, estimate only one: layer-2 nonzeros become FN
    U_star = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    V_star = np.array([[1.0, 0.0], [0.0, 1.0]])
    U_hat = U_star[:, :1]
    V_hat = V_star[:, :1]
    rates = selection_rates(U_hat, V_hat, U_star, V_star)
    assert rates.fn == 2
    assert rates.fnr == pytest.approx(2 / 4)
    assert rates.fpr == 0.0


def test_rates_ignore_sign_and_scale():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((6, 2)) * (rng.random((6, 2)) > 0.5)
    V = rng.standard_normal((5, 2)) * (rng.random((5, 2)) > 0.5)
    base = selection_rates(U, V, U, V)
    flipped = selection_rates(-3.7 * U, 0.01 * V, U, V)
    assert base == flipped


def test_degenerate_denominators_warn():
    ones_u = np.ones((3, 1))
    ones_v = np.ones((2, 1))
    with pytest.warns(RuntimeWarning, match="no true zeros"):
        rates = selection_rates(ones_u, ones_v, ones_u, ones_v)
    assert rates.fpr == 0.0
    with pytest.warns(RuntimeWarning, match="no true nonzeros"):
        rates = selection_rates(ones_u, ones_v, np.zeros((3, 1)), np.zeros((2, 1)))
    assert rates.fnr == 0.0
    assert rates.fpr == 1.0


def test_rates_reject_mismatched_shapes():
    u = np.ones((3, 1))
    v = np.ones((2, 1))
    with pytest.raises(ValueError, match="row dimensions"):
        selection_rates(np.ones((4, 1)), v, u, v)
    with pytest.raises(ValueError, match="number of layers"):
        selection_rates(np.ones((3, 2)), v, u, v)


def test_by_matrix_breakdown_sums_to_pooled():
    rng = np.random.default_rng(5)
    U_star = rng.standard_normal((7, 2)) * (rng.random((7, 2)) > 0.5)
    V_star = rng.standard_normal((6, 2)) * (rng.random((6, 2)) > 0.5)
    U_hat = U_star + 0.5 * (rng.random((7, 2)) > 0.8)
    V_hat = V_star.copy()
    with no_rate_warnings():
        pooled = selection_rates(U_hat, V_hat, U_star, V_star)
    est = [U_hat != 0, V_hat != 0]
    tru = [U_star != 0, V_star != 0]
    split = {
        "tp": [int(np.sum(e & t)) for e, t in zip(est, tru)],
        "fp": [int(np.sum(e & ~t)) for e, t in zip(est, tru)],
        "tn": [int(np.sum(~e & ~t)) for e, t in zip(est, tru)],
        "fn": [int(np.sum(~e & t)) for e, t in zip(est, tru)],
    }
    for field, (u_side, v_side) in split.items():
        assert u_side + v_side == getattr(pooled, field)


# ---------------------------------------------------------------------------
# sparsity summaries


def rank1(d, u, v):
    return UnitRankFactor(d, np.asarray(u, float), np.asarray(v, float), NormMode.RAW)


def test_zero_model_summary():
    assert sparsity_summary(FactorModel(())) == (0, 0, 0, 0)


def test_overlapping_supports():
    lay1 = rank1(1.0, [0, 1, 1, 0], [1, 0, 0])
    lay2 = rank1(1.0, [0, 0, 1, 1], [0, 1, 0])
    u_l0, u_l20, v_l0, v_l20 = sparsity_summary(FactorModel((lay1, lay2)))
    assert (u_l0, u_l20) == (4, 3)
    assert (v_l0, v_l20) == (2, 2)


def test_summary_matches_count_oracle():
    rng = np.random.default_rng(6)
    layers = []
    for _ in range(3):
        u = rng.standard_normal(8) * (rng.random(8) > 0.5)
        v = rng.standard_normal(5) * (rng.random(5) > 0.5)
        layers.append(rank1(2.0, u, v))
    model = FactorModel(tuple(layers))
    U = np.column_stack([l.u for l in layers])
    V = np.column_stack([l.v for l in layers])
    want = (
        int((np.abs(U) > 1e-12).sum()),
        int((np.abs(U) > 1e-12).any(axis=1).sum()),
        int((np.abs(V) > 1e-12).sum()),
        int((np.abs(V) > 1e-12).any(axis=1).sum()),
    )
    assert sparsity_summary(model) == want


def test_summary_threshold_guards_roundoff():
    lay = rank1(1.0, [1.0, 1e-13, 0.0], [1e-11, 0.0])
    u_l0, u_l20, v_l0, v_l20 = sparsity_summary(FactorModel((lay,)))
    assert (u_l0, v_l0) == (1, 1)


# ---------------------------------------------------------------------------
# report rows and aggregation


def test_report_row_formats():
    rep = EvalReport(er_c=0.125, er_xc=float("nan"), fpr=0.5, fnr=0.0, u_l0=5)
    header = EvalReport.csv_header()
    row = rep.csv_row()
    assert len(header) == len(row) == 8
    assert row[header.index("er_c")] == "0.125"
    assert row[header.index("er_xc")] == "NA"
    assert row[header.index("u_l0")] == "5"
    assert "wall_time_s" not in header  # measured, so kept out of report.csv


def test_report_row_full_precision():
    x = 1 / 3
    rep = EvalReport(er_c=x)
    cell = rep.csv_row()[0]
    assert float(cell) == x


def test_trimmed_mean_matches_scipy():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(20)
    mean, sd = trimmed_mean_sd(vals, trim=0.1)
    assert mean == pytest.approx(stats.trim_mean(vals, 0.1), rel=1e-12)
    kept = np.sort(vals)[2:18]
    assert mean == pytest.approx(kept.mean(), rel=1e-12)
    assert sd == pytest.approx(kept.std(ddof=1), rel=1e-12)


def test_trimmed_mean_plain_and_edge_cases():
    vals = [1.0, 2.0, 3.0]
    mean, sd = trimmed_mean_sd(vals)
    assert mean == pytest.approx(2.0)
    assert sd == pytest.approx(1.0)
    m, s = trimmed_mean_sd([5.0])
    assert (m, s) == (5.0, 0.0)
    m, s = trimmed_mean_sd([])
    assert np.isnan(m) and np.isnan(s)
    with pytest.raises(ValueError):
        trimmed_mean_sd(vals, trim=0.5)


def test_aggregate_reports_per_field():
    a = EvalReport(er_c=1.0, fpr=float("nan"), u_l0=2)
    b = EvalReport(er_c=3.0, fpr=0.5, u_l0=4)
    agg = aggregate_reports([a, b])
    assert agg["er_c"] == (pytest.approx(2.0), pytest.approx(np.sqrt(2.0)))
    assert agg["fpr"] == (pytest.approx(0.5), pytest.approx(0.0))  # NaN dropped
    assert agg["u_l0"][0] == pytest.approx(3.0)
    assert np.isnan(agg["wall_time_s"][0])

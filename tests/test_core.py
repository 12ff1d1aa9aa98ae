import warnings

import numpy as np
import pytest

from curereg.core import (
    FactorModel,
    GramCache,
    NormMode,
    ProblemData,
    UnitRankFactor,
    column_normalize,
    eval_loss,
    eval_penalty,
    hard_threshold_layer,
    p_orthogonal_svd,
    renormalize_factor,
    rescale_factor_rows,
    residual,
)


def random_factor(rng, p, q, mode=NormMode.RAW):
    u = rng.standard_normal(p)
    v = rng.standard_normal(q)
    return UnitRankFactor(float(rng.uniform(0.5, 3.0)), u, v, mode)


# ---------------------------------------------------------------------------
# ProblemData


def test_problem_dimensions_and_counts():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 3))
    Y = rng.standard_normal((5, 2))
    prob = ProblemData(X, Y)
    assert (prob.n, prob.p, prob.q) == (5, 3, 2)
    assert prob.n_observed == 10
    assert prob.mask is None


def test_problem_all_true_mask_is_no_mask():
    rng = np.random.default_rng(1)
    prob = ProblemData(
        rng.standard_normal((4, 2)),
        rng.standard_normal((4, 3)),
        np.ones((4, 3), dtype=bool),
    )
    assert prob.mask is None


def test_problem_nan_only_under_mask():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 2))
    Y = rng.standard_normal((4, 3))
    Y[1, 2] = np.nan
    with pytest.raises(ValueError):
        ProblemData(X, Y)
    mask = np.ones((4, 3), dtype=bool)
    mask[1, 2] = False
    prob = ProblemData(X, Y, mask)
    assert prob.n_observed == 11
    Y0 = prob.observed_response()
    assert Y0[1, 2] == 0.0
    # a NaN at an observed position is rejected
    bad_mask = np.ones((4, 3), dtype=bool)
    bad_mask[0, 0] = False
    with pytest.raises(ValueError):
        ProblemData(X, Y, bad_mask)


def test_gram_cache_columns_match_the_dense_matrix():
    rng = np.random.default_rng(30)
    X = rng.standard_normal((9, 5))
    w = rng.uniform(0.0, 2.0, 9)
    for weights, H in ((None, X.T @ X / 9), (w, X.T @ (w[:, None] * X) / 9)):
        gram = GramCache(X, weights)
        np.testing.assert_allclose(gram.diag, np.diag(H), rtol=1e-13)
        for j in (3, 0, 3):
            np.testing.assert_allclose(gram.col(j), H[:, j], rtol=1e-13, atol=1e-15)
        assert sorted(gram._cols) == [0, 3]  # formed on first use, then kept
    prob = ProblemData(X, rng.standard_normal((9, 2)))
    assert prob.gram is prob.gram
    assert all(g is prob.gram for g in prob.column_grams)


def test_problem_rejects_bad_shapes():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        ProblemData(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
    with pytest.raises(ValueError):
        ProblemData(rng.standard_normal(4), rng.standard_normal((4, 2)))
    X = rng.standard_normal((4, 2))
    X[0, 0] = np.inf
    with pytest.raises(ValueError):
        ProblemData(X, rng.standard_normal((4, 2)))


def test_problem_names_both_row_counts():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError) as info:
        ProblemData(rng.standard_normal((5, 2)), rng.standard_normal((6, 2)))
    assert str(info.value) == "X has 5 rows, but Y has 6"


@pytest.mark.parametrize("role, row, col, value, hidden", [
    pytest.param("X", 3, 2, np.nan, None, id="x_nan"),
    pytest.param("Y", 1, 0, -np.inf, None, id="y_inf"),
    pytest.param("X", 2, 0, np.inf, (4, 1), id="x_inf_masked"),
    pytest.param("Y", 4, 1, np.nan, (0, 1), id="y_observed_nan_masked"),
])
def test_problem_names_the_first_non_finite_cell(role, row, col, value, hidden):
    rng = np.random.default_rng(6)
    data = {"X": rng.standard_normal((6, 3)), "Y": rng.standard_normal((6, 2))}
    mask = None
    if hidden is not None:  # a NaN at an unobserved cell of Y is not named
        mask = np.ones((6, 2), dtype=bool)
        mask[hidden] = False
        data["Y"][hidden] = np.nan
    data[role][row, col] = value
    data[role][-1, -1] = np.nan  # nor is a later bad cell
    with pytest.raises(ValueError) as info:
        ProblemData(data["X"], data["Y"], mask)
    assert str(info.value) == f"{role}: row {row + 1}, column {col + 1} is not finite ({value})"


# ---------------------------------------------------------------------------
# eval_loss / eval_penalty / residual


def test_loss_zero_model_zero_data():
    X = np.eye(3)
    Y = np.zeros((3, 2))
    fac = UnitRankFactor.zero(3, 2)
    assert eval_loss(ProblemData(X, Y), fac, mu=0.7) == 0.0


def test_loss_zero_factor_is_scaled_response_norm():
    X = np.sqrt(2.0) * np.eye(2)
    Y = np.eye(2)
    fac = UnitRankFactor.zero(2, 2)
    # (2n)^{-1} ||Y||_F^2 with n = 2
    assert eval_loss(ProblemData(X, Y), fac, mu=3.3) == pytest.approx(0.5, abs=1e-15)


def loss_oracle(X, Y, mask, d, u, v, mu):
    """Scalar-loop evaluation of the penalized squared-error loss."""
    n, q = Y.shape
    total = 0.0
    for i in range(n):
        for k in range(q):
            if mask is not None and not mask[i, k]:
                continue
            fit = 0.0
            for j in range(X.shape[1]):
                fit += X[i, j] * d * u[j] * v[k]
            total += (Y[i, k] - fit) ** 2
    ridge = 0.0
    for j in range(len(u)):
        for k in range(len(v)):
            ridge += (d * u[j] * v[k]) ** 2
    return total / (2.0 * n) + 0.5 * mu * ridge


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 2))
    Y = rng.standard_normal((2, 2))
    fac = random_factor(rng, 2, 2)
    got = eval_loss(ProblemData(X, Y), fac, mu=0.1)
    want = loss_oracle(X, Y, None, fac.d, fac.u, fac.v, 0.1)
    assert got == pytest.approx(want, rel=1e-12)


def test_loss_matches_scalar_oracle_masked():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    Y = rng.standard_normal((6, 3))
    mask = rng.uniform(size=(6, 3)) > 0.4
    mask[0, 0] = True  # keep at least one observation
    fac = random_factor(rng, 4, 3)
    got = eval_loss(ProblemData(X, Y, mask), fac, mu=0.05)
    want = loss_oracle(X, Y, mask, fac.d, fac.u, fac.v, 0.05)
    assert got == pytest.approx(want, rel=1e-12)


def test_penalty_examples_and_oracle():
    assert eval_penalty(UnitRankFactor.zero(3, 2), lam=5.0) == 0.0
    fac = UnitRankFactor(2.0, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert eval_penalty(fac, lam=3.0) == pytest.approx(6.0, abs=1e-15)
    rng = np.random.default_rng(6)
    fac = random_factor(rng, 4, 5)
    lam = 1.7
    want = lam * sum(
        abs(fac.d * fac.u[j] * fac.v[k]) for j in range(4) for k in range(5)
    )
    assert eval_penalty(fac, lam) == pytest.approx(want, rel=1e-12)


def test_penalty_rejects_negative_lambda():
    with pytest.raises(ValueError):
        eval_penalty(UnitRankFactor.zero(2, 2), lam=-1.0)


def test_residual_zero_factor_is_projected_response():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 3))
    Y = rng.standard_normal((4, 2))
    mask = np.ones((4, 2), dtype=bool)
    mask[2, 1] = False
    R = residual(ProblemData(X, Y, mask), UnitRankFactor.zero(3, 2))
    assert R[2, 1] == 0.0
    np.testing.assert_allclose(R[mask], Y[mask])


def test_residual_matches_entrywise_oracle():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 3))
    Y = rng.standard_normal((5, 4))
    mask = rng.uniform(size=(5, 4)) > 0.5
    mask.flat[0] = True
    fac = random_factor(rng, 3, 4)
    R = residual(ProblemData(X, Y, mask), fac)
    fit = X @ (fac.d * np.outer(fac.u, fac.v))
    for i in range(5):
        for k in range(4):
            want = Y[i, k] - fit[i, k] if mask[i, k] else 0.0
            assert R[i, k] == pytest.approx(want, abs=1e-12)
    # with no mask the residual is the plain difference
    R_full = residual(ProblemData(X, Y), fac)
    np.testing.assert_allclose(R_full, Y - fit, rtol=1e-14)


# ---------------------------------------------------------------------------
# p_orthogonal_svd


def test_porth_svd_reduces_to_ordinary_svd_for_scaled_identity():
    n = 2
    X = np.sqrt(n) * np.eye(2)
    C = np.diag([3.0, 1.0])
    model = p_orthogonal_svd(X, C, 2)
    np.testing.assert_allclose(model.d_values(), [3.0, 1.0], atol=1e-12)
    for k, lay in enumerate(model.layers):
        e = np.zeros(2)
        e[k] = 1.0
        np.testing.assert_allclose(np.abs(lay.u), e, atol=1e-12)
        np.testing.assert_allclose(np.abs(lay.v), e, atol=1e-12)
        lay.validate(X)


def test_porth_svd_rank_zero_is_empty():
    X = np.eye(3)
    C = np.ones((3, 2))
    assert p_orthogonal_svd(X, C, 0).rank == 0


def test_porth_svd_full_rank_reconstruction():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 6))
    C = rng.standard_normal((6, 4))
    model = p_orthogonal_svd(X, C, 4)
    recon = model.to_matrix()
    gap = X @ (recon - C) / np.sqrt(8)
    assert np.linalg.norm(gap) < 1e-10


def test_porth_svd_layers_are_pairwise_orthogonal():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 5))
    C = rng.standard_normal((5, 6))
    model = p_orthogonal_svd(X, C, 4)
    U = model.stacked_u()
    V = model.stacked_v()
    G = (X @ U).T @ (X @ U) / 10
    for j in range(4):
        for k in range(4):
            if j != k:
                assert abs(G[j, k]) < 1e-8
                assert abs(V[:, j] @ V[:, k]) < 1e-8
    assert np.all(np.diff(model.d_values()) <= 1e-12)


def test_porth_svd_truncates_below_tolerance_without_warning():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((7, 4))
    u = rng.standard_normal(4)
    v = rng.standard_normal(3)
    C = np.outer(u, v)  # exactly rank 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = p_orthogonal_svd(X, C, 3)
    assert model.rank == 1


# ---------------------------------------------------------------------------
# hard_threshold_layer


def test_hard_threshold_examples():
    M = np.array([[3.0, -1.0], [0.5, 2.0]])
    np.testing.assert_allclose(hard_threshold_layer(M, 0), np.zeros((2, 2)))
    np.testing.assert_allclose(
        hard_threshold_layer(M, 2), np.array([[3.0, 0.0], [0.0, 2.0]])
    )
    np.testing.assert_allclose(hard_threshold_layer(M, 4), M)
    np.testing.assert_allclose(hard_threshold_layer(M, 99), M)


def test_hard_threshold_matches_full_sort_oracle():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((5, 5))
    s = 7
    out = hard_threshold_layer(M, s)
    order = sorted(
        ((abs(M[i, j]), -(i * 5 + j)) for i in range(5) for j in range(5)),
        reverse=True,
    )
    keep = {-pos for _, pos in order[:s]}
    for i in range(5):
        for j in range(5):
            want = M[i, j] if (i * 5 + j) in keep else 0.0
            assert out[i, j] == want
    assert np.count_nonzero(out) == s


def test_hard_threshold_breaks_ties_row_major():
    M = np.array([[1.0, -1.0], [1.0, 1.0]])
    out = hard_threshold_layer(M, 2)
    np.testing.assert_allclose(out, np.array([[1.0, -1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# renormalize_factor


def test_renormalize_is_idempotent():
    fac = UnitRankFactor(
        2.0, np.array([0.25, -0.75]), np.array([0.5, 0.5]), NormMode.L1
    )
    out = renormalize_factor(fac, NormMode.L1)
    assert out.d == pytest.approx(fac.d)
    np.testing.assert_allclose(out.u, fac.u, atol=1e-15)
    np.testing.assert_allclose(out.v, fac.v, atol=1e-15)


def test_renormalize_l1_example():
    fac = UnitRankFactor(1.0, np.array([2.0, 0.0]), np.array([0.0, 3.0]))
    out = renormalize_factor(fac, NormMode.L1)
    assert out.d == pytest.approx(6.0)
    np.testing.assert_allclose(out.u, [1.0, 0.0])
    np.testing.assert_allclose(out.v, [0.0, 1.0])


def test_renormalize_round_trip_preserves_product():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((9, 4))
    fac = random_factor(rng, 4, 3)
    l1 = renormalize_factor(fac, NormMode.L1)
    porth = renormalize_factor(l1, NormMode.PORTH, X)
    back = renormalize_factor(porth, NormMode.L1)
    porth.validate(X)
    back.validate()
    np.testing.assert_allclose(back.to_matrix(), fac.to_matrix(), atol=1e-10)
    np.testing.assert_allclose(l1.to_matrix(), fac.to_matrix(), atol=1e-12)


def test_renormalize_sign_convention_first_nonzero_of_v_positive():
    fac = UnitRankFactor(1.0, np.array([1.0, 1.0]), np.array([-2.0, 1.0]))
    out = renormalize_factor(fac, NormMode.L1)
    assert out.v[0] > 0
    np.testing.assert_allclose(out.to_matrix(), fac.to_matrix(), atol=1e-12)


def test_objective_invariant_under_renormalization():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 4))
    prob = ProblemData(X, Y)
    fac = random_factor(rng, 3, 4)
    lam, mu = 0.3, 0.2
    base = eval_loss(prob, fac, mu) + lam * np.abs(fac.to_matrix()).sum()
    for mode in (NormMode.L1, NormMode.PORTH):
        out = renormalize_factor(fac, mode, X)
        val = eval_loss(prob, out, mu) + lam * np.abs(out.to_matrix()).sum()
        assert val == pytest.approx(base, rel=1e-10)


def test_renormalize_rejects_degenerate_input():
    with pytest.raises(ValueError):
        renormalize_factor(
            UnitRankFactor(1.0, np.array([0.0, 0.0]), np.array([1.0, 0.0])),
            NormMode.L1,
        )
    # Xu = 0 cannot be normalized in the predictor metric
    X = np.array([[0.0, 1.0], [0.0, 2.0]])
    fac = UnitRankFactor(1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        renormalize_factor(fac, NormMode.PORTH, X)
    with pytest.raises(ValueError):
        renormalize_factor(fac, NormMode.PORTH)  # X required


def test_zero_factor_renormalizes_to_zero():
    out = renormalize_factor(UnitRankFactor.zero(3, 2), NormMode.L1)
    assert out.is_zero


# ---------------------------------------------------------------------------
# column scaling helpers


def test_column_normalize_and_rescale_round_trip():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((12, 5)) * rng.uniform(0.1, 4.0, size=5)
    Xn, scale = column_normalize(X)
    np.testing.assert_allclose(
        np.linalg.norm(Xn, axis=0), np.full(5, np.sqrt(12)), rtol=1e-12
    )
    fac = renormalize_factor(random_factor(rng, 5, 3), NormMode.L1)
    raw = rescale_factor_rows(fac, scale)
    # the fitted product on the scaled design equals the raw product on X
    np.testing.assert_allclose(
        Xn @ fac.to_matrix(), X @ raw.to_matrix(), atol=1e-10
    )
    raw.validate()


def test_column_normalize_leaves_zero_columns():
    X = np.zeros((4, 2))
    X[:, 1] = 1.0
    Xn, scale = column_normalize(X)
    assert scale[0] == 1.0
    np.testing.assert_allclose(Xn[:, 0], 0.0)


# ---------------------------------------------------------------------------
# UnitRankFactor / FactorModel


def test_factor_validation_modes():
    with pytest.raises(ValueError):
        UnitRankFactor(-1.0, np.ones(2), np.ones(2))
    fac = UnitRankFactor(1.0, np.array([0.6, 0.4]), np.array([1.0, 0.0]), NormMode.L1)
    fac.validate()
    bad = UnitRankFactor(1.0, np.array([0.6, 0.6]), np.array([1.0, 0.0]), NormMode.L1)
    with pytest.raises(ValueError):
        bad.validate()


def test_factor_model_roundup():
    rng = np.random.default_rng(16)
    lays = tuple(random_factor(rng, 3, 2) for _ in range(2))
    model = FactorModel(lays)
    assert model.rank == 2
    np.testing.assert_allclose(
        model.to_matrix(), lays[0].to_matrix() + lays[1].to_matrix()
    )
    empty = FactorModel(())
    with pytest.raises(ValueError):
        empty.to_matrix()
    np.testing.assert_allclose(empty.to_matrix(shape=(3, 2)), np.zeros((3, 2)))

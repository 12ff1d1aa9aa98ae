import math

import numpy as np
import pytest
from scipy import linalg

from curereg.core import FactorModel, UnitRankFactor
from curereg.simgen import (
    SimSpec,
    _ar1_cov,
    _ar1_factor,
    _ar1_factor_keyed,
    gen_coefficient,
    gen_dataset,
    gen_design,
    gen_response,
    operator_norm,
)


# ---------------------------------------------------------------------------
# coefficient models


def test_model_one_fixed_vectors():
    spec = SimSpec(model="I", n=10, p=16, q=25)
    model = gen_coefficient(spec, np.random.default_rng(0))
    assert model.rank == 1
    lay = model.layers[0]
    assert lay.d == 20.0
    ubar = np.array([10, -10, 8, -8, 5, -5] + [3] * 5 + [-3] * 5, dtype=float)
    vbar = np.array([10, -9, 8, -7, 6, -5, 4, -3] + [2] * 17, dtype=float)
    np.testing.assert_allclose(lay.u, ubar / np.linalg.norm(ubar), atol=1e-15)
    np.testing.assert_allclose(lay.v, vbar / np.linalg.norm(vbar), atol=1e-15)
    # first entry before normalization is 10
    assert lay.u[0] * math.sqrt(468.0) == pytest.approx(10.0, rel=1e-12)
    assert abs(np.linalg.norm(lay.u) - 1) <= 1e-12
    assert abs(np.linalg.norm(lay.v) - 1) <= 1e-12
    # extra predictors and responses stay zero
    wide = gen_coefficient(
        SimSpec(model="I", n=10, p=20, q=30), np.random.default_rng(0)
    ).layers[0]
    np.testing.assert_array_equal(wide.u[16:], 0.0)
    np.testing.assert_array_equal(wide.v[25:], 0.0)


def test_model_two_strengths_and_orthogonal_v():
    spec = SimSpec(model="II", n=10, p=12, q=10, r_star=3)
    model = gen_coefficient(spec, np.random.default_rng(1))
    np.testing.assert_allclose(model.d_values(), [20.0, 15.0, 10.0])
    V = model.stacked_v()
    for j in range(3):
        for k in range(j + 1, 3):
            assert abs(V[:, j] @ V[:, k]) <= 1e-10
    for lay in model.layers:
        assert abs(np.linalg.norm(lay.u) - 1) <= 1e-12
        assert abs(np.linalg.norm(lay.v) - 1) <= 1e-12
    # u supports are staggered by one index per layer
    for k, lay in enumerate(model.layers):
        assert set(np.nonzero(lay.u)[0]) == set(range(k, k + 3))


def test_model_three_disjoint_supports():
    spec = SimSpec(model="III", n=10, p=12, q=10, r_star=2, s_u=3, s_v=4)
    model = gen_coefficient(spec, np.random.default_rng(2))
    u_supports = [set(np.nonzero(l.u)[0]) for l in model.layers]
    v_supports = [set(np.nonzero(l.v)[0]) for l in model.layers]
    assert u_supports == [{0, 1, 2}, {3, 4, 5}]
    assert v_supports == [{0, 1, 2, 3}, {4, 5, 6, 7}]
    assert abs(model.layers[0].v @ model.layers[1].v) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(model="IV", n=10, p=16, q=25)
    with pytest.raises(ValueError):
        SimSpec(model="I", n=10, p=16, q=25, r_star=2)
    with pytest.raises(ValueError):
        SimSpec(model="I", n=10, p=15, q=25)
    with pytest.raises(ValueError):
        SimSpec(model="II", n=10, p=4, q=10, r_star=3)  # 3 + 3 - 1 > 4
    with pytest.raises(ValueError):
        SimSpec(model="III", n=10, p=5, q=10, r_star=2, s_u=3)
    with pytest.raises(ValueError):
        SimSpec(model="II", n=10, p=10, q=10, snr=0.0)
    with pytest.raises(ValueError):
        SimSpec(model="II", n=10, p=10, q=10, rho=1.0)
    with pytest.raises(ValueError):
        SimSpec(model="II", n=10, p=10, q=2, r_star=3, s_v=1)


# ---------------------------------------------------------------------------
# design generation


def test_design_square_boundary_case():
    spec = SimSpec(model="II", n=9, p=3, q=4, r_star=3, s_u=1, s_v=1)
    U = gen_coefficient(spec, np.random.default_rng(3)).stacked_u()
    X = gen_design(U, spec, np.random.default_rng(4))
    assert X.shape == (9, 3)
    assert np.all(np.isfinite(X))


def test_design_rejects_bad_loadings():
    spec = SimSpec(model="II", n=8, p=6, q=5, r_star=2)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        gen_design(np.zeros((6, 2)), spec, rng)  # rank deficient
    with pytest.raises(ValueError):
        gen_design(np.ones((4, 2)), spec, rng)  # wrong p


def test_design_is_seed_reproducible():
    spec = SimSpec(model="II", n=15, p=8, q=6, r_star=2)
    U = gen_coefficient(spec, np.random.default_rng(6)).stacked_u()
    X1 = gen_design(U, spec, np.random.default_rng(7))
    X2 = gen_design(U, spec, np.random.default_rng(7))
    np.testing.assert_array_equal(X1, X2)


def test_design_latent_factors_are_standardized():
    spec = SimSpec(model="II", n=20_000, p=8, q=6, r_star=2)
    U = gen_coefficient(spec, np.random.default_rng(8)).stacked_u()
    X = gen_design(U, spec, np.random.default_rng(9))
    Z = X @ U
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=0.05)
    assert abs(np.corrcoef(Z[:, 0], Z[:, 1])[0, 1]) <= 0.05


def oracle_design(U, n, rng):
    """Independent re-implementation of the constrained design draw."""
    p, r = U.shape
    U_perp = linalg.null_space(U.T)
    P = np.hstack([U, U_perp])
    idx = np.arange(p)
    Gamma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    S = P.T @ Gamma @ P
    A = np.linalg.solve(S[:r, :r], S[:r, r:])
    cond = S[r:, r:] - S[:r, r:].T @ A
    L = np.linalg.cholesky(0.5 * (cond + cond.T))
    Z1 = rng.standard_normal((n, r))
    Z2 = Z1 @ A + rng.standard_normal((n, p - r)) @ L.T
    return np.linalg.solve(P.T, np.hstack([Z1, Z2]).T).T


def test_design_adjacent_correlations_match_construction_oracle():
    n = 20_000
    spec = SimSpec(model="II", n=n, p=8, q=6, r_star=2)
    U = gen_coefficient(spec, np.random.default_rng(10)).stacked_u()
    X = gen_design(U, spec, np.random.default_rng(11))
    X_oracle = oracle_design(U, n, np.random.default_rng(12))
    for j in range(7):
        got = np.corrcoef(X[:, j], X[:, j + 1])[0, 1]
        want = np.corrcoef(X_oracle[:, j], X_oracle[:, j + 1])[0, 1]
        assert abs(got - want) <= 0.05


# ---------------------------------------------------------------------------
# response generation


def make_truth(spec, seeds=(0, 1)):
    model = gen_coefficient(spec, np.random.default_rng(seeds[0]))
    X = gen_design(model.stacked_u(), spec, np.random.default_rng(seeds[1]))
    return model, X


def test_high_snr_means_negligible_noise():
    spec = SimSpec(model="II", n=30, p=10, q=8, r_star=2, snr=1e9)
    model, X = make_truth(spec)
    Y, E, sigma = gen_response(X, model, spec, np.random.default_rng(2))
    C = model.to_matrix((10, 8))
    assert np.linalg.norm(E) / np.linalg.norm(X @ C) <= 1e-6
    assert sigma > 0


@pytest.mark.parametrize("snr", [math.nan, math.inf])
def test_spec_rejects_a_non_finite_snr(snr):
    with pytest.raises(ValueError, match="snr must be positive and finite"):
        SimSpec(model="II", n=10, p=10, q=10, snr=snr)


def test_an_snr_too_small_for_a_finite_sigma_raises():
    spec = SimSpec(model="II", n=30, p=10, q=8, r_star=2, snr=1e-320)
    model, X = make_truth(spec)
    with pytest.raises(ValueError, match="sigma of inf"):
        gen_response(X, model, spec, np.random.default_rng(2))


def test_realized_snr_is_exact():
    spec = SimSpec(model="II", n=25, p=9, q=7, r_star=2, snr=1.7, rho=0.4)
    model, X = make_truth(spec, seeds=(3, 4))
    Y, E, sigma = gen_response(X, model, spec, np.random.default_rng(5))
    weakest = min(model.layers, key=lambda l: l.d)
    signal = weakest.d * np.outer(X @ weakest.u, weakest.v)
    snr = np.linalg.norm(signal, 2) / np.linalg.norm(E)
    assert snr == pytest.approx(1.7, rel=1e-10)
    np.testing.assert_array_equal(Y, X @ model.to_matrix((9, 7)) + E)


def test_error_columns_follow_ar_structure():
    n = 20_000
    spec0 = SimSpec(model="II", n=n, p=6, q=5, r_star=2, rho=0.0)
    model, X = make_truth(spec0, seeds=(6, 7))
    _, E, _ = gen_response(X, model, spec0, np.random.default_rng(8))
    for k in range(4):
        assert abs(np.corrcoef(E[:, k], E[:, k + 1])[0, 1]) <= 0.05
    spec6 = SimSpec(model="II", n=n, p=6, q=5, r_star=2, rho=0.6)
    _, E6, _ = gen_response(X, model, spec6, np.random.default_rng(8))
    for k in range(4):
        assert np.corrcoef(E6[:, k], E6[:, k + 1])[0, 1] == pytest.approx(0.6, abs=0.05)


def test_response_rejects_degenerate_signal():
    spec = SimSpec(model="II", n=10, p=6, q=5, r_star=2)
    model, X = make_truth(spec, seeds=(9, 10))
    rng = np.random.default_rng(11)
    zero_layer = FactorModel((UnitRankFactor.zero(6, 5),))
    with pytest.raises(ValueError, match="zero signal"):
        gen_response(X, zero_layer, spec, rng)
    with pytest.raises(ValueError, match="weakest layer"):
        gen_response(X, model.to_matrix((6, 5)), spec, rng)  # bare matrix


@pytest.mark.parametrize("dim", [1, 2, 37, 1000])
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, -0.7, 0.99])
def test_ar1_cov_power_table_matches_elementwise_power(dim, rho):
    idx = np.arange(dim)
    want = rho ** np.abs(idx[:, None] - idx[None, :])
    got = _ar1_cov(dim, rho)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 200, 700])
@pytest.mark.parametrize("rho", [-0.3, -0.0, 0.0, 0.3, 0.5])
def test_ar1_factor_is_lapacks_factor_and_read_only(dim, rho):
    got = _ar1_factor(dim, rho)
    assert got.tobytes() == np.linalg.cholesky(_ar1_cov(dim, rho)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 1.0


def test_ar1_factor_keys_the_sign_of_a_zero_rho():
    # -0.0 == 0.0, but the factors differ in the signs of their zeros
    neg, pos = _ar1_factor(3, -0.0), _ar1_factor(3, 0.0)
    assert neg.tobytes() == np.linalg.cholesky(_ar1_cov(3, -0.0)).tobytes()
    assert pos.tobytes() == np.linalg.cholesky(_ar1_cov(3, 0.0)).tobytes()
    assert neg.tobytes() != pos.tobytes()


def test_reused_noise_factor_draws_the_same_bytes():
    # 0.3 ** k is subnormal from k = 589 on, so q = 700 factors through them
    wide = SimSpec(model="II", n=20, p=10, q=700, r_star=2, rho=0.3, seed=6)
    narrow = SimSpec(model="II", n=20, p=10, q=200, r_star=2, rho=0.3, seed=7)
    _ar1_factor_keyed.cache_clear()
    cold = gen_dataset(wide)
    gen_dataset(narrow)
    warm = gen_dataset(wide)
    info = _ar1_factor_keyed.cache_info()
    assert (info.maxsize, info.misses, info.hits) == (2, 2, 1)
    for field in ("X", "Y", "E"):
        assert getattr(warm, field).tobytes() == getattr(cold, field).tobytes()
    assert warm.sigma == cold.sigma


SPECS_BY_MODEL = [
    SimSpec(model="I", n=30, p=20, q=30, snr=0.7, rho=0.4, seed=3),
    SimSpec(model="II", n=25, p=12, q=10, r_star=3, snr=1.3, rho=0.5, seed=4),
    SimSpec(model="III", n=25, p=12, q=16, r_star=3, snr=0.9, rho=-0.3, seed=5),
]


@pytest.mark.parametrize("spec", SPECS_BY_MODEL, ids=lambda s: s.model)
def test_matrix_form_response_matches_factor_form(spec):
    model, X = make_truth(spec, seeds=(spec.seed, spec.seed + 1))
    weakest = min(model.layers, key=lambda lay: lay.d)
    want = gen_response(X, model, spec, np.random.default_rng(6))
    got = gen_response(X, model.to_matrix((spec.p, spec.q)), spec,
                       np.random.default_rng(6), last_layer=weakest)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    # gen_dataset passes its C and weakest layer; the noise stream is the third
    truth = gen_dataset(spec)
    rng_noise = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[2])
    Y, E, sigma = gen_response(truth.X, truth.factors, spec, rng_noise)
    assert truth.Y.tobytes() == Y.tobytes() and truth.E.tobytes() == E.tobytes()
    assert truth.sigma == sigma


# ---------------------------------------------------------------------------
# full datasets


def test_dataset_same_seed_is_identical():
    spec = SimSpec(model="II", n=20, p=10, q=8, r_star=2, snr=0.8, rho=0.3, seed=13)
    a = gen_dataset(spec)
    b = gen_dataset(spec)
    for field in ("X", "Y", "E", "c_star"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert a.sigma == b.sigma
    c = gen_dataset(SimSpec(model="II", n=20, p=10, q=8, r_star=2, seed=14))
    assert not np.array_equal(a.Y, c.Y)


def test_dataset_model_one_is_unit_rank():
    truth = gen_dataset(SimSpec(model="I", n=40, p=40, q=40, seed=0))
    assert np.linalg.matrix_rank(truth.c_star) == 1
    assert truth.X.shape == (40, 40)
    assert truth.Y.shape == (40, 40)


def test_dataset_reconstruction_identity():
    truth = gen_dataset(SimSpec(model="II", n=15, p=9, q=8, r_star=3, seed=1))
    C = np.zeros((9, 8))
    for lay in truth.factors.layers:
        C += lay.d * np.outer(lay.u, lay.v)
    np.testing.assert_allclose(truth.c_star, C, atol=1e-12)
    np.testing.assert_array_equal(truth.Y, truth.X @ truth.c_star + truth.E)


# ---------------------------------------------------------------------------
# operator norm helper


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(15)
    for shape in ((6, 6), (10, 4), (4, 10), (30, 25)):
        M = rng.standard_normal(shape)
        assert operator_norm(M) == pytest.approx(
            np.linalg.norm(M, 2), rel=1e-8
        )
    assert operator_norm(np.zeros((5, 3))) == 0.0
    rank1 = np.outer(rng.standard_normal(7), rng.standard_normal(5))
    assert operator_norm(rank1) == pytest.approx(np.linalg.norm(rank1, 2), rel=1e-8)

"""Tests of the loss and penalty oracles in ``oracles.py``."""

import numpy as np
import pytest

from curereg.core import ProblemData, UnitRankFactor
from oracles import eval_loss, eval_penalty
from test_core import random_factor


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

"""Synthetic low-rank sparse regression instances (models I, II, III).

All three models build a truth ``C* = sum_k d_k u_k v_k^T`` with unit-l2
loading vectors, a correlated Gaussian design whose latent factors
``X u_k`` are standardized, and correlated Gaussian noise scaled to a target
signal-to-noise ratio measured on the weakest layer:

    snr = ||d_r X u_r v_r^T||_2 / ||E||_F      (spectral norm over Frobenius)

Model I is a single fixed dense-ish layer.  Model II draws random sparse
layers on staggered supports and orthogonalizes the v's.  Model III uses
disjoint supports so no orthogonalization is needed.

Randomness is a seeded PCG64 generator; the seed is split into three child
streams (coefficients, design, noise) via ``SeedSequence.spawn``, in that
order, so each piece is reproducible on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import FactorModel, NormMode, UnitRankFactor

__all__ = [
    "SimSpec",
    "SimTruth",
    "gen_coefficient",
    "gen_design",
    "gen_response",
    "gen_dataset",
    "operator_norm",
]

MODELS = ("I", "II", "III")


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one simulated instance."""

    model: str
    n: int
    p: int
    q: int
    r_star: int = 1
    snr: float = 1.0
    rho: float = 0.0
    s_u: int = 3
    s_v: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if min(self.n, self.p, self.q) < 1:
            raise ValueError("n, p, q must be positive")
        if not 0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.r_star < 1:
            raise ValueError("r_star must be at least 1")
        # Each rule below also keeps r_star within min(p, q).
        if self.model == "I":
            if self.r_star != 1:
                raise ValueError("model I is unit rank; r_star must be 1")
            if self.p < 16 or self.q < 25:
                raise ValueError("model I needs p >= 16 and q >= 25")
        elif self.s_u < 1 or self.s_v < 1:
            raise ValueError("support sizes must be positive")
        elif self.model == "II":
            if self.s_u + self.r_star - 1 > self.p or self.s_v + self.r_star - 1 > self.q:
                raise ValueError("staggered supports exceed the dimensions")
        elif self.r_star * self.s_u > self.p or self.r_star * self.s_v > self.q:
            raise ValueError("disjoint supports exceed the dimensions")


@dataclass(frozen=True)
class SimTruth:
    """A generated dataset plus everything needed to score an estimate."""

    spec: SimSpec
    factors: FactorModel
    c_star: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    E: np.ndarray
    sigma: float


def _model_one_vectors(p, q):
    ubar = np.zeros(p)
    ubar[:16] = [10, -10, 8, -8, 5, -5] + [3] * 5 + [-3] * 5
    vbar = np.zeros(q)
    vbar[:25] = [10, -9, 8, -7, 6, -5, 4, -3] + [2] * 17
    return ubar, vbar


def _draw_u_entries(rng, size):
    # i.i.d. uniform on {1, -1}
    return rng.choice(np.array([1.0, -1.0]), size=size)


def _draw_v_entries(rng, size):
    # i.i.d. uniform on [-1, -0.3] U [0.3, 1]: sign then magnitude
    signs = rng.choice(np.array([1.0, -1.0]), size=size)
    mags = rng.uniform(0.3, 1.0, size=size)
    return signs * mags


def gen_coefficient(spec, rng):
    """Build the true factors.  Returns a FactorModel with unit-l2 u and v.

    Model II orthogonalizes the raw v vectors by Gram-Schmidt against the
    earlier layers before normalizing, which can spread a support into the
    union of the earlier ones; model III supports are disjoint so the same
    projection is a no-op.  Draw order per layer: u entries, v signs, v
    magnitudes.
    """
    p, q, r = spec.p, spec.q, spec.r_star
    ubars, vbars = [], []
    if spec.model == "I":
        ub, vb = _model_one_vectors(p, q)
        ubars.append(ub)
        vbars.append(vb)
        d_vals = [20.0]
    else:
        step_u = 1 if spec.model == "II" else spec.s_u
        step_v = 1 if spec.model == "II" else spec.s_v
        for k in range(r):
            ub = np.zeros(p)
            off_u = step_u * k
            ub[off_u : off_u + spec.s_u] = _draw_u_entries(rng, spec.s_u)
            vb = np.zeros(q)
            off_v = step_v * k
            vb[off_v : off_v + spec.s_v] = _draw_v_entries(rng, spec.s_v)
            for prev in vbars:
                vb = vb - (vb @ prev) / (prev @ prev) * prev
            if np.linalg.norm(vb) <= 1e-12:
                raise ValueError("orthogonalization annihilated a v vector")
            ubars.append(ub)
            vbars.append(vb)
        d_vals = [5.0 + 5.0 * (r - k) for k in range(r)]
    layers = []
    for ub, vb, d in zip(ubars, vbars, d_vals):
        u = ub / np.linalg.norm(ub)
        v = vb / np.linalg.norm(vb)
        layers.append(UnitRankFactor(float(d), u, v, NormMode.RAW))
    return FactorModel(tuple(layers))


def _ar1_cov(dim, rho):
    # Entry (i, j) is rho ** |i - j|, taken from a table of the dim distinct
    # powers (so its bits are those of the elementwise power): row i is the
    # window at dim - 1 - i of [rho**(dim-1) .. rho**1, rho**0 .. rho**(dim-1)].
    powers = rho ** np.arange(dim)
    table = np.concatenate([powers[:0:-1], powers])
    return np.lib.stride_tricks.sliding_window_view(table, dim)[::-1].copy()


def _ar1_factor(dim, rho):
    """Lower Cholesky factor of ``_ar1_cov(dim, rho)``, shared and read-only.

    It is LAPACK's own factor, so its bits are those of a fresh
    factorization.  Replicated draws ask for the same (dim, rho) again and
    again, and at small |rho| the factorization is slow: the powers of rho
    and their products run into subnormal numbers, which the processor
    handles slowly.
    """
    return _ar1_factor_keyed(dim, rho, math.copysign(1.0, rho) < 0.0)


# Two entries, so that draws alternating two widths (the two instances of a
# benchmark set) still hit.  The sign is part of the key: -0.0 == 0.0 and
# both hash alike, but _ar1_cov spells their zero entries differently.
@functools.lru_cache(maxsize=2)
def _ar1_factor_keyed(dim, rho, negative):
    L = np.linalg.cholesky(_ar1_cov(dim, rho))
    L.flags.writeable = False
    return L


def gen_design(U_star, spec, rng):
    """Sample the design so the latent factors X u_k are iid standard normal.

    The marginal law of x is built from an AR(1) covariance with parameter
    0.5 rotated into the basis ``P = [U*, U*_perp]``: the first block is
    forced to N(0, I_r) and the complement is drawn from its conditional law
    given the first block.  Rows of X are iid.
    """
    U_star = np.asarray(U_star, dtype=float)
    p, r = U_star.shape
    if p != spec.p or r != spec.r_star:
        raise ValueError("U_star shape does not match (spec.p, spec.r_star)")
    if np.linalg.matrix_rank(U_star) < r:
        raise ValueError("U_star must have full column rank")
    n = spec.n
    X1 = rng.standard_normal((n, r))
    if r == p:
        return np.linalg.solve(U_star.T, X1.T).T
    # Null space of U*^T: the rows of vh past its rank r (checked above), in
    # C order, since the products below round differently in another order.
    U_perp = np.ascontiguousarray(np.linalg.svd(U_star.T)[2][r:].T)
    P = np.hstack([U_star, U_perp])
    Gamma = _ar1_cov(p, 0.5)
    S = P.T @ Gamma @ P
    S11 = S[:r, :r]
    S12 = S[:r, r:]
    S22 = S[r:, r:]
    A = np.linalg.solve(S11, S12)
    cond = S22 - S12.T @ A
    cond = 0.5 * (cond + cond.T)
    L = np.linalg.cholesky(cond)
    X2 = X1 @ A + rng.standard_normal((n, p - r)) @ L.T
    return np.linalg.solve(P.T, np.hstack([X1, X2]).T).T


def operator_norm(M):
    """Largest singular value by power iteration on M^T M.

    Deterministic start vector; stops when successive estimates agree to a
    relative 1e-10 or after 10,000 iterations.
    """
    M = np.asarray(M, dtype=float)
    v = M.T @ M.sum(axis=1)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(M.shape[1]) / np.sqrt(M.shape[1])
    else:
        v = v / nv
    est = 0.0
    for _ in range(10_000):
        w = M.T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = np.sqrt(nw)
        v = w / nw
        if abs(new_est - est) <= 1e-10 * max(new_est, 1e-300):
            return float(new_est)
        est = new_est
    return float(est)


def gen_response(X, C, spec, rng, weakest):
    """Add correlated noise calibrated to the target snr.

    ``C`` is the coefficient matrix and ``weakest`` its smallest-d unit-rank
    layer.  Noise rows are iid N(0, sigma^2 * Delta) with AR(1) Delta(rho);
    sigma is set so the spectral norm of the weakest layer's signal over the
    Frobenius norm of the realized noise equals ``spec.snr`` exactly.
    Delta's Cholesky factor is reused across calls (``_ar1_factor``).
    """
    X = np.asarray(X, dtype=float)
    n, q = X.shape[0], C.shape[1]
    signal = weakest.d * np.outer(X @ weakest.u, weakest.v)
    s_norm = operator_norm(signal)
    if s_norm <= 0.0:
        raise ValueError("the weakest layer has zero signal; snr calibration impossible")
    E0 = rng.standard_normal((n, q)) @ _ar1_factor(q, spec.rho).T
    e_norm = float(np.linalg.norm(E0))
    if e_norm == 0.0:
        raise ValueError("degenerate zero noise draw")
    sigma = s_norm / (spec.snr * e_norm)
    if not math.isfinite(sigma):
        raise ValueError(f"snr {spec.snr} gives a noise scale sigma of {sigma}")
    E = sigma * E0
    return X @ C + E, E, float(sigma)


def gen_dataset(spec):
    """Generate a full instance; see the module docstring for stream layout."""
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    rng_coef = np.random.default_rng(streams[0])
    rng_design = np.random.default_rng(streams[1])
    rng_noise = np.random.default_rng(streams[2])
    factors = gen_coefficient(spec, rng_coef)
    X = gen_design(factors.stacked_u(), spec, rng_design)
    C = factors.to_matrix((spec.p, spec.q))
    Y, E, sigma = gen_response(X, C, spec, rng_noise,
                               min(factors.layers, key=lambda lay: lay.d))
    return SimTruth(spec, factors, C, X, Y, E, sigma)

"""Core containers and primitives for co-sparse unit-rank factor models.

A multivariate regression coefficient matrix is represented as a sum of
unit-rank layers ``C = sum_k d_k u_k v_k^T``.  Everything downstream (path
solvers, deflation, metrics) works in terms of the types defined here:

* :class:`ProblemData` -- design ``X``, response ``Y``, optional observation
  mask for partially observed responses,
* :class:`UnitRankFactor` -- one layer ``(d, u, v)`` under a declared
  normalization mode,
* :class:`FactorModel` -- an ordered list of layers.

Two normalization modes are supported for a nonzero layer.  Under ``L1`` both
``u`` and ``v`` have unit l1 norm.  Under ``PORTH`` the loadings satisfy
``||X u||_2 / sqrt(n) = 1`` and ``||v||_2 = 1``, so distinct layers can be
orthogonal in the predictor metric.  ``RAW`` places no constraint and is used
for intermediate values (for example simulation truths with unit l2 columns).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "NormMode",
    "ProblemData",
    "UnitRankFactor",
    "FactorModel",
    "eval_loss",
    "eval_penalty",
    "residual",
    "p_orthogonal_svd",
    "hard_threshold_layer",
    "renormalize_factor",
    "column_normalize",
    "rescale_factor_rows",
]

# Singular values at or below this share of the largest are treated as zero
# when extracting layers.
SV_TOL = 1e-10
# Entries with magnitude at or below this count as zero in supports.
ZERO_TOL = 1e-12


class NormMode(str, enum.Enum):
    L1 = "l1"
    PORTH = "porth"
    RAW = "raw"


def _as_float_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def check_finite(M, name, observed=None):
    """Raise one ValueError line naming the first cell of ``M`` that must
    hold a value (any cell, or one that ``observed`` marks) and is not
    finite: ``X: row 4, column 3 is not finite (nan)``.  Rows and columns
    count from 1."""
    ok = np.isfinite(M)
    if observed is not None:
        ok |= ~observed
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(f"{name}: row {i + 1}, column {j + 1} is not finite ({M[i, j]})")


def check_xy(X, Y, mask, names=("X", "Y")):
    """Raise one ValueError line unless X and Y have the same rows and every
    cell of X and every observed cell of Y is finite; ``names`` name the two
    in it: ``X has 5 rows, but Y has 6``."""
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"{names[0]} has {X.shape[0]} rows, but {names[1]} has {Y.shape[0]}")
    check_finite(X, names[0])
    check_finite(Y, names[1], mask)


@dataclass(frozen=True)
class ProblemData:
    """A regression problem: design X (n x p), response Y (n x q).

    ``mask`` marks observed response entries (True = observed).  An absent
    mask means fully observed; an all-true mask is normalized to absent so
    the two spell the same problem.  Y may hold non-finite values only at
    unobserved entries.
    """

    X: np.ndarray
    Y: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        X = _as_float_matrix(self.X, "X")
        Y = _as_float_matrix(self.Y, "Y")
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != Y.shape:
                raise ValueError(
                    f"mask shape {mask.shape} does not match Y shape {Y.shape}"
                )
            if mask.all():
                mask = None  # all-true mask is the same problem as no mask
        check_xy(X, Y, mask)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    @property
    def q(self):
        return self.Y.shape[1]

    @property
    def n_observed(self):
        """Number of observed response entries; ``n * q`` without a mask."""
        if self.mask is None:
            return self.Y.size
        return int(self.mask.sum())

    def observed_response(self):
        """Y with unobserved entries replaced by zero."""
        if self.mask is None:
            return self.Y.copy()
        Y0 = np.where(self.mask, self.Y, 0.0)
        return Y0

    def rss(self, fit):
        """``||P(Y - fit)||_F^2``: the residual sum of squares over observed cells."""
        R = self.Y - fit
        if self.mask is not None:
            R[~self.mask] = 0.0
        return float(np.vdot(R, R))

    def rows(self, index):
        """The problem restricted to the rows ``index`` (with their mask)."""
        mask = None if self.mask is None else self.mask[index]
        return ProblemData(self.X[index], self.Y[index], mask)

    @cached_property
    def gram(self):
        """Unweighted :class:`GramCache` of X, kept for the problem's lifetime."""
        return GramCache(self.X)

    @cached_property
    def column_grams(self):
        """The :class:`GramCache` of each response column's lasso.

        Column k weights the rows by its mask column; without a mask every
        column shares :attr:`gram`.  Kept for the problem's lifetime.
        """
        if self.mask is None:
            return [self.gram] * self.q
        H = self.mask.astype(float)
        return [GramCache(self.X, H[:, k]) for k in range(self.q)]


class GramCache:
    """Columns of ``H = X^T diag(weights) X / n``, each formed on first use.

    ``diag`` is the whole diagonal.  Without weights column j is ``X^T x_j / n``.
    """

    def __init__(self, X, weights=None):
        self.X = X
        self.n = X.shape[0]
        self.weights = weights
        if weights is None:
            self.diag = np.einsum("ij,ij->j", X, X) / self.n
        else:
            self.diag = weights @ (X * X) / self.n
        self._cols = {}

    def col(self, j):
        col = self._cols.get(j)
        if col is None:
            xj = self.X[:, j] if self.weights is None else self.weights * self.X[:, j]
            col = self._cols[j] = self.X.T @ xj / self.n
        return col

    def block(self, index):
        """The columns ``index`` side by side, as a C-ordered (p, k) array."""
        return np.array([self.col(j) for j in index]).T.copy()


@dataclass(frozen=True)
class UnitRankFactor:
    """One unit-rank layer ``d * u v^T`` with d >= 0.

    The zero layer is encoded as ``d = 0`` with zero vectors.  For d > 0 the
    vectors must be nonzero and, depending on ``norm_mode``, normalized as
    described in the module docstring.  Construction only checks cheap
    invariants; :meth:`validate` checks the mode-specific ones.
    """

    d: float
    u: np.ndarray
    v: np.ndarray
    norm_mode: NormMode = NormMode.RAW

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or v.ndim != 1:
            raise ValueError("u and v must be 1-d arrays")
        d = float(self.d)
        if not np.isfinite(d) or d < 0:
            raise ValueError(f"d must be a finite nonnegative scalar, got {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "norm_mode", NormMode(self.norm_mode))

    @classmethod
    def zero(cls, p, q, norm_mode=NormMode.RAW):
        return cls(0.0, np.zeros(p), np.zeros(q), norm_mode)

    @property
    def is_zero(self):
        return self.d == 0.0

    def to_matrix(self):
        return self.d * np.outer(self.u, self.v)

    def validate(self, X=None, tol=1e-8):
        """Check the mode invariants; raises ValueError on violation."""
        if self.is_zero:
            return
        if not np.any(self.u) or not np.any(self.v):
            raise ValueError("nonzero d with a zero loading vector")
        mode = self.norm_mode
        if mode == NormMode.L1:
            for name, vec in (("u", self.u), ("v", self.v)):
                s = np.abs(vec).sum()
                if abs(s - 1.0) > tol:
                    raise ValueError(f"||{name}||_1 = {s}, expected 1 under L1 mode")
        elif mode == NormMode.PORTH:
            if X is None:
                raise ValueError("validating PORTH mode requires X")
            n = X.shape[0]
            s = np.linalg.norm(X @ self.u) / np.sqrt(n)
            if abs(s - 1.0) > tol:
                raise ValueError(f"||X u||_2 / sqrt(n) = {s}, expected 1 under PORTH mode")
            sv = np.linalg.norm(self.v)
            if abs(sv - 1.0) > tol:
                raise ValueError(f"||v||_2 = {sv}, expected 1 under PORTH mode")


@dataclass(frozen=True)
class FactorModel:
    """An ordered collection of unit-rank layers."""

    layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        layers = tuple(self.layers)
        for lay in layers:
            if not isinstance(lay, UnitRankFactor):
                raise TypeError("layers must be UnitRankFactor instances")
        object.__setattr__(self, "layers", layers)

    @property
    def rank(self):
        return len(self.layers)

    def to_matrix(self, shape=None):
        """Sum of the layer matrices.  ``shape`` is required when empty."""
        if not self.layers:
            if shape is None:
                raise ValueError("empty model needs an explicit shape")
            return np.zeros(shape)
        C = self.layers[0].to_matrix()
        for lay in self.layers[1:]:
            C = C + lay.to_matrix()
        return C

    def stacked_u(self):
        if not self.layers:
            raise ValueError("empty model has no loadings")
        return np.column_stack([lay.u for lay in self.layers])

    def stacked_v(self):
        if not self.layers:
            raise ValueError("empty model has no loadings")
        return np.column_stack([lay.v for lay in self.layers])

    def d_values(self):
        return np.array([lay.d for lay in self.layers])


def eval_loss(problem, factor, mu=0.0):
    """Squared-error loss of a unit-rank fit, plus an optional ridge term.

    Returns ``||P(Y - d X u v^T)||_F^2 / (2n) + (mu/2) ||d u v^T||_F^2``
    where ``P`` zeroes unobserved entries.  Only observed response entries
    contribute to the first term.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    R = residual(problem, factor)
    n = problem.n
    rss = float(np.vdot(R, R))
    ridge = factor.d ** 2 * float(np.dot(factor.u, factor.u)) * float(np.dot(factor.v, factor.v))
    loss = rss / (2.0 * n) + 0.5 * mu * ridge
    if not np.isfinite(loss):
        raise FloatingPointError("loss evaluated to a non-finite value")
    return loss


def eval_penalty(factor, lam):
    """Multiplicative l1 penalty ``lam * d * ||u||_1 * ||v||_1``.

    For a factor in L1 mode this is just ``lam * d``; the general form is
    evaluated so RAW factors are handled too.
    """
    if factor.d < 0:
        raise ValueError("d must be nonnegative")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return lam * factor.d * float(np.abs(factor.u).sum()) * float(np.abs(factor.v).sum())


def residual(problem, factor):
    """Observed-entry residual ``P(Y - d X u v^T)``; unobserved entries are 0."""
    if factor.u.shape != (problem.p,) or factor.v.shape != (problem.q,):
        raise ValueError(
            f"factor shapes u{factor.u.shape}, v{factor.v.shape} do not match "
            f"problem (p={problem.p}, q={problem.q})"
        )
    Y0 = problem.observed_response()
    if factor.is_zero:
        return Y0
    z = problem.X @ (factor.d * factor.u)
    fit = np.outer(z, factor.v)
    if problem.mask is not None:
        fit[~problem.mask] = 0.0
    return Y0 - fit


def _fix_layer_sign(u, v):
    """Flip signs of both vectors so the first nonzero entry of v is positive."""
    nz = np.nonzero(np.abs(v) > ZERO_TOL)[0]
    if nz.size and v[nz[0]] < 0:
        return -u, -v
    return u, v


def p_orthogonal_svd(X, C, r):
    """Decompose C into layers orthogonal in the predictor metric.

    Writes ``X C / sqrt(n) = sum_k d_k a_k v_k^T`` via the SVD and recovers
    ``u_k = C v_k / d_k``, so that ``(X U / sqrt(n))`` has orthonormal columns
    and ``V`` is orthonormal.  Layers come out ordered by nonincreasing d.
    Requesting more layers than the decomposition supports truncates, so the
    returned model can have rank below ``r``: a layer is cut once its singular
    value is at most ``SV_TOL`` times the largest, so the cut does not move
    when C is scaled.
    """
    X = _as_float_matrix(X, "X")
    C = _as_float_matrix(C, "C")
    if X.shape[1] != C.shape[0]:
        raise ValueError("X and C have incompatible shapes")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return FactorModel(())
    n = X.shape[0]
    M = (X @ C) / np.sqrt(n)
    _, svals, Vt = np.linalg.svd(M, full_matrices=False)
    cut = SV_TOL * float(svals.max(initial=0.0))
    layers = []
    for k in range(min(r, svals.size)):
        d = float(svals[k])
        if d <= cut:
            break
        v = Vt[k].copy()
        u = (C @ v) / d
        u, v = _fix_layer_sign(u, v)
        layers.append(UnitRankFactor(d, u, v, NormMode.PORTH))
    return FactorModel(tuple(layers))


def hard_threshold_layer(M, s):
    """Keep the s largest-magnitude entries of M, zeroing the rest.

    Ties at the cutoff are broken by row-major position: among equal
    magnitudes the earlier entry survives.  ``s >= M.size`` returns a copy.
    """
    M = np.asarray(M, dtype=float)
    if s < 0:
        raise ValueError("s must be nonnegative")
    out = np.zeros_like(M)
    if s == 0:
        return out
    flat = M.ravel()
    if s >= flat.size:
        return M.copy()
    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[:s]
    out_flat = out.ravel()
    out_flat[keep] = flat[keep]
    return out_flat.reshape(M.shape)


def renormalize_factor(factor, target, X=None):
    """Re-express a factor in the target normalization, preserving d*u*v^T.

    Signs are absorbed so that d stays nonnegative and the first nonzero
    entry of v is positive.  The zero factor maps to the zero factor.  PORTH
    requires X, and fails if ``X u = 0`` for a nonzero factor.
    """
    target = NormMode(target)
    if target == NormMode.RAW:
        raise ValueError("target must be L1 or PORTH")
    p, q = factor.u.shape[0], factor.v.shape[0]
    if factor.is_zero:
        return UnitRankFactor.zero(p, q, target)
    su1 = float(np.abs(factor.u).sum())
    sv = factor.v
    if su1 == 0.0 or not np.any(sv):
        raise ValueError("nonzero d with a zero loading vector")
    if target == NormMode.L1:
        ualpha = su1
    else:
        if X is None:
            raise ValueError("PORTH normalization requires X")
        n = X.shape[0]
        ualpha = float(np.linalg.norm(X @ factor.u)) / np.sqrt(n)
        if ualpha <= 0.0:
            raise ValueError("X u = 0: factor invisible in the predictor metric")
    if target == NormMode.L1:
        valpha = float(np.abs(sv).sum())
    else:
        valpha = float(np.linalg.norm(sv))
    d_new = factor.d * ualpha * valpha
    u_new = factor.u / ualpha
    v_new = factor.v / valpha
    u_new, v_new = _fix_layer_sign(u_new, v_new)
    return UnitRankFactor(d_new, u_new, v_new, target)


def column_normalize(X):
    """Scale columns of X to l2 norm sqrt(n); returns (X_scaled, scale).

    ``X_scaled[:, j] = X[:, j] / scale[j]`` with ``scale[j] = ||x_j|| / sqrt(n)``.
    Zero columns get scale 1 and stay zero.  A coefficient matrix fitted on
    the scaled design maps back to the raw scale by dividing row j by
    ``scale[j]`` (see :func:`rescale_factor_rows`).
    """
    X = _as_float_matrix(X, "X")
    n = X.shape[0]
    scale = np.linalg.norm(X, axis=0) / np.sqrt(n)
    scale = np.where(scale > 0, scale, 1.0)
    return X / scale, scale


def rescale_factor_rows(factor, scale):
    """Map a factor fitted on a column-scaled design back to the raw scale."""
    if factor.is_zero:
        return factor
    u_raw = factor.u / scale
    raw = UnitRankFactor(factor.d, u_raw, factor.v, NormMode.RAW)
    return renormalize_factor(raw, NormMode.L1)

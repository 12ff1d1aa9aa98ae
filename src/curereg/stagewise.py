"""Stagewise unit-rank path solver with competing forward/backward moves.

The solver traces the whole regularization path of the unit-rank problem

    min  ||P(Y - d X u v^T)||_F^2 / (2n) + (mu/2) ||d u v^T||_F^2
            + lam * d ||u||_1 ||v||_1

in a single run.  The working parameterization is the pair of scaled
loadings ``du = d*u`` and ``dv = d*v`` with ``||du||_1 = ||dv||_1 = d`` and
``||u||_1 = ||v||_1 = 1``.  Each step perturbs one coordinate of one side by
the step size epsilon:

* a *backward* move shrinks an active coordinate, is allowed only when it
  reduces the loss by less than ``lam * eps - xi``, and keeps lam fixed;
* otherwise the best *forward* move (over all coordinates of both sides)
  executes, and lam is lowered to ``min(lam, (loss_drop - xi) / eps)`` if
  the move no longer pays for itself at the current level.

Both proposals price their candidates with closed-form loss changes from
one set of quantities per step: the gradients ``gu = X^T E v / n`` and
``Ew = E^T w / (n d)`` of the projected residual ``E = P(Y0 - w v^T)``
along ``v = dv/d`` and ``w = X du``.  With ``S = X^T Y0 / n``, the 0/1 mask
``H`` and ``h = H (v o v)``, ``E v = Y0 v - w o h`` and
``E^T w = n S^T du - v o H^T (w o w)``.  The engine keeps ``S dv`` and
``S^T du`` from one row or column of ``S`` per move, never forms the n x q
residual, and only three terms depend on the mask:

* ``X^T (w o h)`` is ``n ||v||^2 G du`` without a mask (``G = X^T X / n``,
  read one Gram column per move); under a mask, one O(np) product a step.
* ``H^T (w o w)`` is ``||w||^2`` in every entry without a mask; under a
  mask it is recomputed, O(nq), after a u move and rescaled by a v move.
* ``(X o X)^T h`` is ``col_x2 ||v||^2`` without a mask; under a mask it is
  kept as ``(X o X)^T H dv^2``, which a v move updates by one column.

An unmasked step thus costs O(p + q).

Every ``RECOMPUTE_EVERY`` steps the maintained quantities are rebuilt from
``du``/``dv`` and the largest relative gap to the rebuilt values is kept
as ``StagewisePath.max_drift``.

The per-step objective bookkeeping gives, by construction,

    Q(step t+1; lam_{t+1}) <= Q(step t; lam_{t+1}) - xi

for every executed step, where ``Q = loss + lam * d`` is the penalized
objective; tests assert this on recorded paths.  The path terminates when
lam reaches zero, when ``max_steps`` is hit, or when the tracked information
criterion has not improved for ``early_stop_window`` consecutive steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import GramCache, NormMode, UnitRankFactor
from .tuning import CriterionInput, EarlyStop, information_criterion

__all__ = [
    "StagewiseConfig",
    "StagewiseState",
    "PathStep",
    "StagewisePath",
    "initialize_path",
    "propose_backward",
    "propose_forward",
    "run_path",
    "select_on_path",
]

SNAP_TOL = 1e-12
FORWARD_TIE_TOL = 1e-12
RECOMPUTE_EVERY = 1000

MOVE_INIT = "init"
MOVE_FORWARD_U = "forward_u"
MOVE_FORWARD_V = "forward_v"
MOVE_BACKWARD_U = "backward_u"
MOVE_BACKWARD_V = "backward_v"

CRITERIA = ("gic", "aic", "bic", "none")


@dataclass
class StagewiseConfig:
    """Knobs for the path solver.

    ``xi`` defaults to ``1e-6 * epsilon**2`` when left as None; it must stay
    well below ``epsilon * lam`` scales or every move would be rejected.
    ``criterion`` selects the per-step information criterion used for early
    stopping and path selection ("none" disables both).
    """

    epsilon: float = 1.0
    xi: float | None = None
    mu: float = 1e-4
    max_steps: int = 100_000
    early_stop_window: int = 300
    criterion: str = "gic"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.xi is not None and self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.early_stop_window < 1:
            raise ValueError("early_stop_window must be at least 1")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")

    @property
    def xi_resolved(self):
        return 1e-6 * self.epsilon ** 2 if self.xi is None else self.xi


class _Prices(NamedTuple):
    """Quantities that price every candidate move of one step.

    The arrays run over the stacked coordinates ``(du, dv)``: ``g`` holds
    the gradients ``gu`` then ``Ew``, ``quad`` their quadratic terms, and
    ``c22`` the squared l2 norm of the other side's unit loading (``v22`` on
    the du part, ``u22`` on the dv part).
    """

    t: int
    v22: float
    u22: float
    g: np.ndarray
    quad: np.ndarray
    c22: np.ndarray


def _stack_prices(t, v22, u22, gu, Ew, quad_u, quad_v):
    p = gu.size
    c22 = np.empty(p + Ew.size)
    c22[:p] = v22
    c22[p:] = u22
    return _Prices(t, v22, u22, np.concatenate((gu, Ew)),
                   np.concatenate((quad_u, quad_v)), c22)


class _Engine:
    """Problem constants of one path plus the quantities it maintains.

    ``x2h = (X o X)^T H`` holds the per-entry quadratic terms of the first
    move, ``enter`` makes that move, ``move_u``/``move_v`` apply a move and
    return the inner product that prices its rss change, ``scale_du`` and
    ``scale_dv`` follow the rescale that keeps ``||du||_1 = ||dv||_1``,
    ``rebuild`` recomputes everything from ``du``/``dv`` (returns the rss on
    observed cells) and ``tracked`` gives the gradients it checks for drift.
    Without a mask (``H`` is None) it keeps ``G du`` and ``ww = ||w||^2/n``;
    under one, ``w``, ``hdv2 = H dv^2``, ``qdv2 = (X o X)^T H dv^2`` and the
    vector ``ww = H^T (w o w)/n``.
    """

    def __init__(self, problem):
        self.X = np.asfortranarray(problem.X)
        self.Y0 = problem.observed_response()
        self.n, self.p, self.q = problem.n, problem.p, problem.q
        self.S = self.X.T @ self.Y0 / self.n
        self.y2 = float(np.vdot(self.Y0, self.Y0))
        self.observed = None if problem.mask is None else problem.n_observed
        if problem.mask is None:
            self.H = None
            self.gram = GramCache(self.X)
            self.col_x2 = np.einsum("ij,ij->j", self.X, self.X)
            self.x2h = np.broadcast_to(self.col_x2[:, None], self.S.shape)
        else:
            self.H = np.asfortranarray(problem.mask, dtype=float)
            self.x2h = np.asfortranarray((self.X * self.X).T @ self.H)
        self._clear()

    def _clear(self):
        self.Sdv = np.zeros(self.p)
        self.Stdu = np.zeros(self.q)
        if self.H is None:
            self.Gdu = np.zeros(self.p)
            self.ww = 0.0
        else:
            self.w = np.zeros(self.n)
            self.hdv2 = np.zeros(self.n)
            self.qdv2 = np.zeros(self.p)
            self.ww = np.zeros(self.q)

    # The three terms that depend on the mask (see the module docstring).

    def _fit_u(self, d, v22):
        """``X^T (w o h) / n``, the fitted part of ``gu``."""
        if self.H is None:
            return self.Gdu * v22
        return self.X.T @ (self.w * self.hdv2) / (self.n * d * d)

    def _move_w(self, j, s):
        """Bring ``w`` (``G du`` without a mask) and ``ww`` along after
        ``du[j] += s``; under a mask ``H^T (w o w)`` is recomputed."""
        if self.H is None:
            self.ww += 2.0 * s * self.Gdu[j] + s * s * self.gram.diag[j]
            self.Gdu += s * self.gram.col(j)
        else:
            self.w += s * self.X[:, j]
            self.ww = self.H.T @ (self.w * self.w) / self.n

    def _quad_u(self, d, v22):
        """``(X o X)^T h``, the quadratic terms of the u moves."""
        if self.H is None:
            return self.col_x2 * v22
        return self.qdv2 / (d * d)

    def enter(self, j, k, s, eps):
        self.Sdv = s * self.S[:, k]
        self.Stdu = eps * self.S[j]
        if self.H is None:
            self.Gdu = eps * self.gram.col(j)
            self.ww = eps * eps * self.gram.diag[j]
        else:
            self.w = eps * self.X[:, j]
            self.hdv2 = (s * s) * self.H[:, k]
            self.qdv2 = (s * s) * self.x2h[:, k]
            self.ww = (eps * eps / self.n) * self.x2h[j]

    def _gradients(self, state, v22):
        d = state.d
        gu = self.Sdv / d - self._fit_u(d, v22)
        Ew = (self.Stdu - (state.dv / d) * self.ww) / d
        return gu, Ew

    def price(self, state):
        d = state.d
        v22 = float(state.dv @ state.dv) / d ** 2
        gu, Ew = self._gradients(state, v22)
        return _stack_prices(
            state.t,
            v22=v22,
            u22=float(state.du @ state.du) / d ** 2,
            gu=gu,
            Ew=Ew,
            quad_u=self._quad_u(d, v22),
            # ww is a scalar without a mask and a q-vector under one
            quad_v=np.full(self.q, self.n * self.ww / d ** 2),
        )

    def move_u(self, j, s, pr):
        self._move_w(j, s)
        self.Stdu += s * self.S[j]
        return self.n * float(pr.g[j])

    def move_v(self, k, h, dsq, d_old, pr):
        """``dv[k] += h``; ``dsq`` is the change of ``dv[k]**2``."""
        self.Sdv += h * self.S[:, k]
        if self.H is not None:
            self.hdv2 += dsq * self.H[:, k]
            self.qdv2 += dsq * self.x2h[:, k]
        return self.n * d_old * float(pr.g[self.p + k])

    def scale_du(self, r):
        self.Stdu *= r
        self.ww *= r * r
        if self.H is None:
            self.Gdu *= r
        else:
            self.w *= r

    def scale_dv(self, r):
        self.Sdv *= r
        if self.H is not None:
            self.hdv2 *= r * r
            self.qdv2 *= r * r

    def rebuild(self, du, dv, d):
        if d <= 0.0:
            self._clear()
            return self.y2
        w = self.X @ du
        self.Sdv = self.S @ dv
        self.Stdu = self.S.T @ du
        fit = np.outer(w, dv / d)
        if self.H is None:
            self.Gdu = (self.X.T @ w) / self.n
            self.ww = float(w @ w) / self.n
        else:
            self.w = w
            self.hdv2 = self.H @ (dv * dv)
            self.qdv2 = self.x2h @ (dv * dv)
            self.ww = self.H.T @ (w * w) / self.n
            fit *= self.H
        E = self.Y0 - fit
        return float(np.vdot(E, E))

    def tracked(self, state):
        if state.d <= 0.0:
            return ()
        return self._gradients(state, float(state.dv @ state.dv) / state.d ** 2)


def _rel_gap(kept, exact):
    scale = float(np.max(np.abs(exact)))
    gap = float(np.max(np.abs(np.subtract(kept, exact))))
    return gap / scale if scale > 0.0 else gap


@dataclass(slots=True)
class PathStep:
    """One recorded state of the path (after the move named by ``move``).

    The loadings are kept sparse: ``index`` holds the ascending positions
    of the nonzeros of the stacked vector ``(du, dv)`` (length ``p + q``)
    and ``value`` their values; :attr:`factor` rebuilds the dense L1-mode
    factor on demand.
    """

    t: int
    lam: float
    move: str
    d: float
    index: np.ndarray
    value: np.ndarray
    p: int
    q: int
    loss: float
    penalty: float
    criterion_value: float | None = None
    rss: float = np.nan
    df: int = 0

    @property
    def factor(self):
        if self.d <= 0.0:
            return UnitRankFactor.zero(self.p, self.q, NormMode.L1)
        full = np.zeros(self.p + self.q)
        full[self.index] = self.value
        return UnitRankFactor(
            self.d, full[: self.p] / self.d, full[self.p:] / self.d, NormMode.L1
        )


@dataclass
class StagewisePath:
    """A recorded path; ``max_drift`` is the largest relative gap between the
    maintained and the rebuilt bookkeeping seen at the periodic rebuilds."""

    steps: list = field(default_factory=list)
    config: StagewiseConfig | None = None
    terminated_by: str = ""
    n: int = 0
    p: int = 0
    q: int = 0
    observed: int | None = None
    max_drift: float = 0.0

    def lambdas(self):
        return np.array([s.lam for s in self.steps])

    def losses(self):
        return np.array([s.loss for s in self.steps])

    def __len__(self):
        return len(self.steps)


class StagewiseState:
    """Mutable solver state; field names follow the working parameterization.

    ``du`` and ``dv`` are views into one stacked buffer.  After editing them
    by hand, call :meth:`_refresh_exact` to bring the bookkeeping along.
    """

    def __init__(self, engine, config, lam):
        self._engine = engine
        self._config = config
        self._duv = np.zeros(engine.p + engine.q)
        self.du = self._duv[: engine.p]
        self.dv = self._duv[engine.p:]
        self.lam = lam
        self.t = 0
        self.d = 0.0
        self.rss = engine.y2  # ||P(Y0 - fit)||_F^2
        self.l2c = 0.0        # ||d u v^T||_F^2
        self._prices = None
        self._support = None

    @property
    def active_A(self):
        return np.flatnonzero(self.du)

    @property
    def active_B(self):
        return np.flatnonzero(self.dv)

    @property
    def loss(self):
        return self.rss / (2.0 * self._engine.n) + 0.5 * self._config.mu * self.l2c

    def _refresh_exact(self):
        """Rebuild the bookkeeping from du/dv (drift control).

        Returns the largest relative gap between the maintained rss and
        gradients and their rebuilt values.
        """
        engine = self._engine
        kept = (self.rss, *engine.tracked(self))
        self.d = float(np.abs(self.du).sum())
        if self.d <= 0.0:
            self.l2c = 0.0
        else:
            self.l2c = float(self.du @ self.du) * float(self.dv @ self.dv) / self.d ** 2
        self.rss = engine.rebuild(self.du, self.dv, self.d)
        self._prices = self._support = None
        exact = (self.rss, *engine.tracked(self))
        return max(_rel_gap(a, b) for a, b in zip(kept, exact))


def _prices(state):
    """The step's priced quantities, computed once and shared by both proposals."""
    pr = state._prices
    if pr is None or pr.t != state.t:
        pr = state._prices = state._engine.price(state)
    return pr


def _support(state):
    """Positions of the nonzeros of the stacked ``(du, dv)``, found once per step."""
    sup = state._support
    if sup is None or sup[0] != state.t:
        sup = state._support = (state.t, np.flatnonzero(state._duv))
    return sup[1]


def _criterion_value(engine, config, rss, df):
    if config.criterion == "none":
        return None
    if rss <= 0.0:
        return None
    return information_criterion(
        config.criterion,
        CriterionInput(rss, engine.n, engine.p, engine.q, df, engine.observed),
    )


def _record(state, move):
    engine = state._engine
    index = _support(state)
    df = index.size - 1 if state.d > 0 else 0
    return PathStep(
        t=state.t,
        lam=state.lam,
        move=move,
        d=state.d,
        index=index.astype(np.int32),
        value=state._duv[index],
        p=engine.p,
        q=engine.q,
        loss=state.loss,
        penalty=state.lam * state.d,
        criterion_value=_criterion_value(engine, state._config, state.rss, df),
        rss=state.rss,
        df=df,
    )


def _init_search(engine, eps, mu):
    """Best single-entry model of the response.

    Scans every (row, column) pair for the entry s*e_j e_k^T, |s| = eps,
    that minimizes the loss; returns indices, the signed step on the v side,
    the lambda level at which the move exactly pays for itself, and the
    entry's ``S`` and quadratic terms.
    """
    G = engine.S
    quad = engine.x2h
    obj = (eps / (2.0 * engine.n)) * quad - np.abs(G)
    flat = int(np.argmin(obj))
    j, k = np.unravel_index(flat, G.shape)
    lam0 = float(np.abs(G[j, k]) - (eps / (2.0 * engine.n)) * quad[j, k] - 0.5 * mu * eps)
    s = eps if G[j, k] >= 0 else -eps
    return int(j), int(k), s, lam0, float(G[j, k]), float(quad[j, k])


def _enter(state, j, k, s, G_jk, quad_jk):
    """Move from the zero state to the single entry du[j] = eps, dv[k] = s."""
    engine = state._engine
    eps = abs(s)
    state.du[j] = eps
    state.dv[k] = s
    state.d = eps
    state.l2c = eps ** 2
    state.rss = state.rss - 2.0 * s * engine.n * G_jk + eps ** 2 * quad_jk
    engine.enter(j, k, s, eps)


def initialize_path(problem, config):
    """Start a path: pick the best single entry of du x dv and set lambda.

    Returns ``(state, step)``.  When no single epsilon-sized entry improves
    on the zero model (lam0 <= 0, e.g. Y = 0) the recorded step carries the
    zero factor and the path should end immediately.
    """
    if problem.mask is not None and problem.n_observed == 0:
        raise ValueError("no observed entries in Y")
    engine = _Engine(problem)
    eps = config.epsilon
    j, k, s, lam0, G_jk, quad_jk = _init_search(engine, eps, config.mu)
    xi = config.xi_resolved
    if xi >= eps * max(lam0, 1.0):
        raise ValueError(
            f"xi={xi} is too large for epsilon={eps} at lam0={lam0}; "
            "every move would be rejected"
        )
    state = StagewiseState(engine, config, lam0)
    if lam0 > 0.0:
        _enter(state, j, k, s, G_jk, quad_jk)
    return state, _record(state, MOVE_INIT)


def _execute_u(state, j, s, pr):
    """Apply du[j] += s; returns the exact loss change."""
    n = state._engine.n
    d_old = state.d
    old = state.du[j]
    new = old + s
    if abs(new) <= SNAP_TOL:
        new = 0.0
    xe = state._engine.move_u(j, s, pr)
    d_rss = -2.0 * s * xe + s * s * float(pr.quad[j])
    d_l2 = (new * new - old * old) * pr.v22
    state.du[j] = new
    delta = d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or (new == 0.0 and not state.du.any()):
        _zero_out(state)
        return delta
    r = d_new / d_old
    state.dv *= r
    state._engine.scale_dv(r)
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return delta


def _execute_v(state, k, h, pr):
    """Apply dv[k] += h; returns the exact loss change.

    ``pr.quad[p + k]`` is ||X u||^2 restricted to observed rows of column k,
    already divided by d^2 (the same scale as the proposal quantities).
    """
    n, p = state._engine.n, state._engine.p
    d_old = state.d
    old = state.dv[k]
    new = old + h
    if abs(new) <= SNAP_TOL:
        new = 0.0
    dsq = new * new - old * old
    we = state._engine.move_v(k, h, dsq, d_old, pr)
    d_rss = -2.0 * (h / d_old) * we + h * h * float(pr.quad[p + k])
    d_l2 = dsq * pr.u22
    state.dv[k] = new
    delta = d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or (new == 0.0 and not state.dv.any()):
        _zero_out(state)
        return delta
    r = d_new / d_old
    state.du *= r
    state._engine.scale_du(r)
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return delta


def _zero_out(state):
    """Collapse to the exact zero state (both sides empty)."""
    state._duv[:] = 0.0
    state.d = 0.0
    state.l2c = 0.0
    state.rss = state._engine.rebuild(state.du, state.dv, 0.0)


def propose_backward(state, config):
    """Try the best shrinking move inside the active sets.

    Executes it and returns the recorded step when its loss increase stays
    below ``lam * eps - xi``; returns None otherwise (including when there is
    nothing active to shrink).  lambda never changes on a backward move.
    """
    if state.d <= 0.0:
        return None
    eps = config.epsilon
    mu = config.mu
    xi = config.xi_resolved
    n = state._engine.n
    pr = _prices(state)
    nz = _support(state)
    duv = state._duv[nz]
    elig = np.abs(duv) >= eps - SNAP_TOL
    if not elig.any():
        return None
    cand = nz[elig]
    duv = duv[elig]
    c22 = pr.c22[cand]
    dl = (
        (eps ** 2 / (2.0 * n)) * pr.quad[cand]
        + eps * np.sign(duv) * pr.g[cand]
        - mu * eps * np.abs(duv) * c22
        + 0.5 * mu * eps ** 2 * c22
    )
    i = int(dl.argmin())  # du candidates come first, so du wins ties
    if not float(dl[i]) < state.lam * eps - xi:
        return None
    p = state._engine.p
    j = int(cand[i])
    if j < p:
        _execute_u(state, j, -eps if state.du[j] > 0 else eps, pr)
        move = MOVE_BACKWARD_U
    else:
        k = j - p
        _execute_v(state, k, -eps if state.dv[k] > 0 else eps, pr)
        move = MOVE_BACKWARD_V
    state.t += 1
    return _record(state, move)


def propose_forward(state, config):
    """Execute the best growing move over all coordinates of both sides.

    The side whose move yields the smaller post-move loss wins (du on ties).
    Afterwards lambda is updated to ``min(lam, (loss_drop - xi) / eps)``.
    From the all-zero state the search runs over single (j, k) entry pairs,
    exactly like initialization.
    """
    eps = config.epsilon
    mu = config.mu
    xi = config.xi_resolved
    n = state._engine.n
    if state.d <= 0.0:
        j, k, s, lam_val, G_jk, quad_jk = _init_search(state._engine, eps, mu)
        _enter(state, j, k, s, G_jk, quad_jk)
        state.lam = min(state.lam, (eps * lam_val - xi) / eps)
        state.t += 1
        return _record(state, MOVE_FORWARD_U)
    pr = _prices(state)
    p = state._engine.p
    inner = pr.g - mu * state._duv * pr.c22
    score = np.abs(inner) - (eps / (2.0 * n)) * pr.quad
    j = int(score[:p].argmax())
    dl_u = (-eps * abs(inner[j]) + (eps ** 2 / (2.0 * n)) * pr.quad[j]
            + 0.5 * mu * eps ** 2 * pr.v22)
    k = int(score[p:].argmax())
    dl_v = (-eps * abs(inner[p + k]) + (eps ** 2 / (2.0 * n)) * pr.quad[p + k]
            + 0.5 * mu * eps ** 2 * pr.u22)
    if dl_u <= dl_v + FORWARD_TIE_TOL:
        delta_loss = _execute_u(state, j, eps if inner[j] >= 0 else -eps, pr)
        move = MOVE_FORWARD_U
    else:
        delta_loss = _execute_v(state, k, eps if inner[p + k] >= 0 else -eps, pr)
        move = MOVE_FORWARD_V
    state.lam = min(state.lam, (-delta_loss - xi) / eps)
    state.t += 1
    return _record(state, move)


def run_path(problem, config=None):
    """Trace the full path from the data; see the module docstring.

    Returns a :class:`StagewisePath` whose ``terminated_by`` is one of
    ``lambda_nonpositive``, ``max_steps``, or ``early_stop``.
    """
    config = config or StagewiseConfig()
    state, step0 = initialize_path(problem, config)
    path = StagewisePath(
        steps=[step0],
        config=config,
        n=problem.n,
        p=problem.p,
        q=problem.q,
        observed=None if problem.mask is None else problem.n_observed,
    )
    if state.lam <= 0.0:
        path.terminated_by = "lambda_nonpositive"
        return path
    stop = None if config.criterion == "none" else EarlyStop(config.early_stop_window)
    if stop is not None:
        stop.update(step0.criterion_value)
    while True:
        if state.t >= config.max_steps:
            path.terminated_by = "max_steps"
            break
        step = propose_backward(state, config)
        if step is None:
            step = propose_forward(state, config)
        path.steps.append(step)
        if state.t % RECOMPUTE_EVERY == 0:
            path.max_drift = max(path.max_drift, state._refresh_exact())
        stalled = stop is not None and stop.update(step.criterion_value)
        if state.lam <= 0.0:
            path.terminated_by = "lambda_nonpositive"
            break
        if stalled:
            path.terminated_by = "early_stop"
            break
    return path


def select_on_path(path, criterion=None):
    """Return the recorded step minimizing an information criterion.

    ``criterion`` defaults to the one the path was run with.  Values are
    reused when they match and recomputed from the stored residual sums
    otherwise; a perfect fit counts as minus infinity (it cannot be beaten).
    Ties resolve to the earliest step.
    """
    if not path.steps:
        raise ValueError("empty path")
    criterion = criterion or (path.config.criterion if path.config else "gic")
    if criterion == "none":
        raise ValueError("cannot select with criterion 'none'")
    stored_ok = path.config is not None and path.config.criterion == criterion
    best = None
    for idx, step in enumerate(path.steps):
        if stored_ok and step.criterion_value is not None:
            val = float(step.criterion_value)
        else:
            rss = step.rss
            if not np.isfinite(rss):
                continue
            if rss <= 0.0:
                val = -math.inf
            else:
                val = information_criterion(
                    criterion,
                    CriterionInput(rss, path.n, path.p, path.q, step.df, path.observed),
                )
        if not math.isnan(val) and (best is None or val < best[0]):
            best = (val, idx)
    if best is None:
        raise ValueError("no step has a usable criterion value")
    return path.steps[best[1]]

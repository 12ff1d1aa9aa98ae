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

Both proposals price their candidates with closed-form loss changes, so a
step costs O(|B| nq + |A| np) like the surrounding matrix products.  With a
partial observation mask the residual is kept projected onto the observed
entries and the quadratic terms sum only observed rows, which keeps the
bookkeeping identities exact in the masked case as well.

The per-step objective bookkeeping gives, by construction,

    Q(step t+1; lam_{t+1}) <= Q(step t; lam_{t+1}) - xi

for every executed step, where ``Q = loss + lam * d`` is the penalized
objective; tests assert this on recorded paths.  The path terminates when
lam reaches zero, when ``max_steps`` is hit, or when the tracked information
criterion has not improved for ``early_stop_window`` consecutive steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import NormMode, UnitRankFactor
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


class _Workspace:
    """Problem-derived constants shared by every step of one path."""

    def __init__(self, problem):
        self.problem = problem
        self.X = np.asfortranarray(problem.X)
        self.Y0 = problem.observed_response()
        self.n = problem.n
        self.col_x2 = np.einsum("ij,ij->j", self.X, self.X)
        self.masked = problem.mask is not None
        if self.masked:
            self.Hf = problem.mask.astype(float)
            self.X2 = np.asfortranarray(self.X * self.X)
        self.observed = None if not self.masked else problem.n_observed


@dataclass
class PathStep:
    """One recorded state of the path (after the move named by ``move``)."""

    t: int
    lam: float
    move: str
    factor: UnitRankFactor
    loss: float
    penalty: float
    criterion_value: float | None = None
    rss: float = np.nan
    df: int = 0


@dataclass
class StagewisePath:
    steps: list = field(default_factory=list)
    config: StagewiseConfig | None = None
    terminated_by: str = ""
    n: int = 0
    p: int = 0
    q: int = 0
    observed: int | None = None

    def lambdas(self):
        return np.array([s.lam for s in self.steps])

    def losses(self):
        return np.array([s.loss for s in self.steps])

    def __len__(self):
        return len(self.steps)


class StagewiseState:
    """Mutable solver state; field names follow the working parameterization."""

    def __init__(self, ws, config, du, dv, lam, E, w, rss, l2c, t=0):
        self._ws = ws
        self._config = config
        self.du = du
        self.dv = dv
        self.active_A = set(np.nonzero(du)[0].tolist())
        self.active_B = set(np.nonzero(dv)[0].tolist())
        self.lam = lam
        self.E = E
        self.t = t
        self.w = w          # X @ du, cached
        self.rss = rss      # ||E||_F^2 over observed entries
        self.l2c = l2c      # ||d u v^T||_F^2
        self.d = float(np.abs(du).sum())

    @property
    def loss(self):
        return self.rss / (2.0 * self._ws.n) + 0.5 * self._config.mu * self.l2c

    def snapshot_factor(self):
        p, q = self.du.size, self.dv.size
        if self.d <= 0.0:
            return UnitRankFactor.zero(p, q, NormMode.L1)
        return UnitRankFactor(self.d, self.du / self.d, self.dv / self.d, NormMode.L1)

    def _refresh_exact(self):
        """Recompute the cached residual quantities from scratch (drift control)."""
        ws = self._ws
        self.d = float(np.abs(self.du).sum())
        if self.d <= 0.0:
            self.w = np.zeros(ws.n)
            self.E = ws.Y0.copy()
            self.l2c = 0.0
        else:
            self.w = ws.X @ self.du
            fit = np.outer(self.w, self.dv) / self.d
            if ws.masked:
                fit *= ws.Hf
            self.E = ws.Y0 - fit
            self.l2c = float(self.du @ self.du) * float(self.dv @ self.dv) / self.d ** 2
        self.rss = float(np.vdot(self.E, self.E))


def _criterion_value(ws, config, rss, df):
    if config.criterion == "none":
        return None
    if rss <= 0.0:
        return None
    n, p, q = ws.n, ws.X.shape[1], ws.Y0.shape[1]
    return information_criterion(
        config.criterion, CriterionInput(rss, n, p, q, df, ws.observed)
    )


def _record(state, move):
    ws = state._ws
    config = state._config
    df = len(state.active_A) + len(state.active_B) - 1 if state.d > 0 else 0
    return PathStep(
        t=state.t,
        lam=state.lam,
        move=move,
        factor=state.snapshot_factor(),
        loss=state.loss,
        penalty=state.lam * state.d,
        criterion_value=_criterion_value(ws, config, state.rss, df),
        rss=state.rss,
        df=df,
    )


def _init_search(ws, eps, mu):
    """Best single-entry model of the current (residual) response.

    Scans every (row, column) pair for the entry s*e_j e_k^T, |s| = eps,
    that minimizes the loss; returns indices, the signed step on the v side,
    the lambda level at which the move exactly pays for itself, and the loss
    change of executing it from zero.
    """
    n = ws.n
    G = ws.X.T @ ws.Y0 / n
    if ws.masked:
        quad = ws.X2.T @ ws.Hf  # (p, q): column norms over observed rows
    else:
        quad = np.broadcast_to(ws.col_x2[:, None], G.shape)
    obj = (eps / (2.0 * n)) * quad - np.abs(G)
    flat = int(np.argmin(obj))
    j, k = np.unravel_index(flat, G.shape)
    lam0 = float(np.abs(G[j, k]) - (eps / (2.0 * n)) * quad[j, k] - 0.5 * mu * eps)
    s = eps if G[j, k] >= 0 else -eps
    delta_loss = -eps * lam0
    return int(j), int(k), s, lam0, delta_loss, float(G[j, k]), float(quad[j, k])


def initialize_path(problem, config):
    """Start a path: pick the best single entry of du x dv and set lambda.

    Returns ``(state, step)``.  When no single epsilon-sized entry improves
    on the zero model (lam0 <= 0, e.g. Y = 0) the recorded step carries the
    zero factor and the path should end immediately.
    """
    if problem.mask is not None and problem.n_observed == 0:
        raise ValueError("no observed entries in Y")
    ws = _Workspace(problem)
    eps = config.epsilon
    mu = config.mu
    j, k, s, lam0, _, G_jk, quad_jk = _init_search(ws, eps, mu)
    xi = config.xi_resolved
    if xi >= eps * max(lam0, 1.0):
        raise ValueError(
            f"xi={xi} is too large for epsilon={eps} at lam0={lam0}; "
            "every move would be rejected"
        )
    p, q = problem.p, problem.q
    if lam0 <= 0.0:
        state = StagewiseState(
            ws, config,
            du=np.zeros(p), dv=np.zeros(q), lam=lam0,
            E=ws.Y0.copy(), w=np.zeros(ws.n),
            rss=float(np.vdot(ws.Y0, ws.Y0)), l2c=0.0,
        )
        return state, _record(state, MOVE_INIT)
    du = np.zeros(p)
    du[j] = eps
    dv = np.zeros(q)
    dv[k] = s
    E = ws.Y0.copy()
    if ws.masked:
        E[:, k] -= s * ws.X[:, j] * ws.Hf[:, k]
    else:
        E[:, k] -= s * ws.X[:, j]
    rss0 = float(np.vdot(ws.Y0, ws.Y0))
    rss = rss0 - 2.0 * s * ws.n * G_jk + eps ** 2 * quad_jk
    w = eps * ws.X[:, j]
    state = StagewiseState(ws, config, du, dv, lam0, E, w, rss, l2c=eps ** 2)
    return state, _record(state, MOVE_INIT)


def _u_side_quantities(state):
    ws = state._ws
    d = state.d
    v = state.dv / d
    Ev = state.E @ v
    v22 = float(state.dv @ state.dv) / d ** 2
    if ws.masked:
        quad_u = ws.X2.T @ (ws.Hf @ (v * v))
    else:
        quad_u = ws.col_x2 * v22
    return v, Ev, v22, quad_u


def _v_side_quantities(state):
    ws = state._ws
    d = state.d
    u22 = float(state.du @ state.du) / d ** 2
    Ew = (state.E.T @ state.w) / (ws.n * d)
    if ws.masked:
        quad_v = ((state.w * state.w) @ ws.Hf) / d ** 2
    else:
        quad_v = np.full(state.dv.size, float(state.w @ state.w) / d ** 2)
    return u22, Ew, quad_v


def _execute_u(state, j, s, Ev, v, v22, quad_fit):
    """Apply du[j] += s; returns the exact loss change."""
    ws = state._ws
    n = ws.n
    xj = ws.X[:, j]
    xe = float(xj @ Ev)
    d_old = state.d
    old = state.du[j]
    new = old + s
    if abs(new) <= SNAP_TOL:
        new = 0.0
    d_rss = -2.0 * s * xe + s * s * quad_fit
    d_l2 = (new * new - old * old) * v22
    if ws.masked:
        state.E -= s * (xj[:, None] * ws.Hf) * v[None, :]
    else:
        state.E -= s * np.outer(xj, v)
    state.w = state.w + s * xj
    state.du[j] = new
    if new == 0.0:
        state.active_A.discard(j)
    elif old == 0.0:
        state.active_A.add(j)
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or not state.active_A:
        _zero_out(state)
        return d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2
    state.dv *= d_new / d_old
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2


def _execute_v(state, k, h, u22, quad_fit_scaled):
    """Apply dv[k] += h; returns the exact loss change.

    ``quad_fit_scaled`` is ||X u||^2 restricted to observed rows of column k,
    already divided by d^2 (the same scale as the proposal quantities).
    """
    ws = state._ws
    n = ws.n
    d_old = state.d
    we = float(state.w @ state.E[:, k])
    old = state.dv[k]
    new = old + h
    if abs(new) <= SNAP_TOL:
        new = 0.0
    d_rss = -2.0 * (h / d_old) * we + h * h * quad_fit_scaled
    d_l2 = (new * new - old * old) * u22
    if ws.masked:
        state.E[:, k] -= (h / d_old) * state.w * ws.Hf[:, k]
    else:
        state.E[:, k] -= (h / d_old) * state.w
    state.dv[k] = new
    if new == 0.0:
        state.active_B.discard(k)
    elif old == 0.0:
        state.active_B.add(k)
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or not state.active_B:
        _zero_out(state)
        return d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2
    state.du *= d_new / d_old
    state.w *= d_new / d_old
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return d_rss / (2.0 * n) + 0.5 * state._config.mu * d_l2


def _zero_out(state):
    """Collapse to the exact zero state (both sides empty)."""
    ws = state._ws
    state.du[:] = 0.0
    state.dv[:] = 0.0
    state.active_A.clear()
    state.active_B.clear()
    state.d = 0.0
    state.w = np.zeros(ws.n)
    state.E = ws.Y0.copy()
    state.rss = float(np.vdot(ws.Y0, ws.Y0))
    state.l2c = 0.0


def propose_backward(state, config):
    """Try the best shrinking move inside the active sets.

    Executes it and returns the recorded step when its loss increase stays
    below ``lam * eps - xi``; returns None otherwise (including when there is
    nothing active to shrink).  lambda never changes on a backward move.
    """
    if state.d <= 0.0 or not state.active_A or not state.active_B:
        return None
    ws = state._ws
    eps = config.epsilon
    mu = config.mu
    xi = config.xi_resolved
    n = ws.n
    v, Ev, v22, quad_u = _u_side_quantities(state)
    A = np.fromiter(state.active_A, int)
    A.sort()
    duA = state.du[A]
    elig_u = np.abs(duA) >= eps - SNAP_TOL
    best_u = None
    if np.any(elig_u):
        Ae = A[elig_u]
        duAe = duA[elig_u]
        geA = (ws.X[:, Ae].T @ Ev) / n
        dl = (
            (eps ** 2 / (2.0 * n)) * quad_u[Ae]
            + eps * np.sign(duAe) * geA
            - mu * eps * np.abs(duAe) * v22
            + 0.5 * mu * eps ** 2 * v22
        )
        i = int(np.argmin(dl))
        best_u = (float(dl[i]), int(Ae[i]))
    u22, Ew, quad_v = _v_side_quantities(state)
    B = np.fromiter(state.active_B, int)
    B.sort()
    dvB = state.dv[B]
    elig_v = np.abs(dvB) >= eps - SNAP_TOL
    best_v = None
    if np.any(elig_v):
        Be = B[elig_v]
        dvBe = dvB[elig_v]
        dl = (
            (eps ** 2 / (2.0 * n)) * quad_v[Be]
            + eps * np.sign(dvBe) * Ew[Be]
            - mu * eps * np.abs(dvBe) * u22
            + 0.5 * mu * eps ** 2 * u22
        )
        i = int(np.argmin(dl))
        best_v = (float(dl[i]), int(Be[i]))
    if best_u is None and best_v is None:
        return None
    take_u = best_v is None or (best_u is not None and best_u[0] <= best_v[0])
    predicted = best_u[0] if take_u else best_v[0]
    if not predicted < state.lam * eps - xi:
        return None
    if take_u:
        j = best_u[1]
        s = -eps if state.du[j] > 0 else eps
        _execute_u(state, j, s, Ev, v, v22, float(quad_u[j]))
        move = MOVE_BACKWARD_U
    else:
        k = best_v[1]
        h = -eps if state.dv[k] > 0 else eps
        _execute_v(state, k, h, u22, float(quad_v[k]))
        move = MOVE_BACKWARD_V
    state.t += 1
    return _record(state, move)


def propose_forward(state, config):
    """Execute the best growing move over all coordinates of both sides.

    The side whose move yields the smaller post-move loss wins (du on ties).
    Afterwards lambda is updated to ``min(lam, (loss_drop - xi) / eps)``.
    From the all-zero state the search runs over single (j, k) entry pairs,
    exactly like initialization, against the current residual.
    """
    ws = state._ws
    eps = config.epsilon
    mu = config.mu
    xi = config.xi_resolved
    n = ws.n
    if state.d <= 0.0:
        j, k, s, lam_val, delta_loss, G_jk, quad_jk = _init_search(ws, eps, mu)
        state.du[j] = eps
        state.dv[k] = s
        state.active_A = {j}
        state.active_B = {k}
        state.d = eps
        if ws.masked:
            state.E[:, k] -= s * ws.X[:, j] * ws.Hf[:, k]
        else:
            state.E[:, k] -= s * ws.X[:, j]
        state.w = eps * ws.X[:, j]
        state.rss += -2.0 * s * n * G_jk + eps ** 2 * quad_jk
        state.l2c = eps ** 2
        state.lam = min(state.lam, (-delta_loss - xi) / eps)
        state.t += 1
        return _record(state, MOVE_FORWARD_U)
    v, Ev, v22, quad_u = _u_side_quantities(state)
    gu = (ws.X.T @ Ev) / n
    inner_u = gu - mu * state.du * v22
    score_u = np.abs(inner_u) - (eps / (2.0 * n)) * quad_u
    j = int(np.argmax(score_u))
    dl_u = -eps * abs(inner_u[j]) + (eps ** 2 / (2.0 * n)) * quad_u[j] + 0.5 * mu * eps ** 2 * v22
    u22, Ew, quad_v = _v_side_quantities(state)
    inner_v = Ew - mu * state.dv * u22
    score_v = np.abs(inner_v) - (eps / (2.0 * n)) * quad_v
    k = int(np.argmax(score_v))
    dl_v = -eps * abs(inner_v[k]) + (eps ** 2 / (2.0 * n)) * quad_v[k] + 0.5 * mu * eps ** 2 * u22
    if dl_u <= dl_v + FORWARD_TIE_TOL:
        s = eps if inner_u[j] >= 0 else -eps
        delta_loss = _execute_u(state, j, s, Ev, v, v22, float(quad_u[j]))
        move = MOVE_FORWARD_U
    else:
        h = eps if inner_v[k] >= 0 else -eps
        delta_loss = _execute_v(state, k, h, u22, float(quad_v[k]))
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
            state._refresh_exact()
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

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

One engine holds B paths as its rows (:func:`run_paths`; :func:`run_path`
is the case B = 1): each maintained vector is a (B, .) array, one numpy
call prices every row of a step, and one call each runs every row's
backward test and forward argmax.  The rows then move one at a time.  What
depends on a path's own data stays per row, in the same arithmetic as a
lone path: the ``v22``/``u22`` dot products, the masked ``X^T (w o h)`` and
``H^T (w o w)`` products, the rebuilds and the step records.  Every path is
therefore bitwise equal to the one traced for its problem alone, and a
path that stops drops out of the engine while the others go on.

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

from . import tuning
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
    "run_paths",
    "select_on_path",
]

SNAP_TOL = 1e-12
SMALLEST = math.ulp(0.0)
FORWARD_TIE_TOL = 1e-12
RECOMPUTE_EVERY = 1000

MOVE_INIT = "init"
MOVE_FORWARD_U = "forward_u"
MOVE_FORWARD_V = "forward_v"
MOVE_BACKWARD_U = "backward_u"
MOVE_BACKWARD_V = "backward_v"

CRITERIA = tuning.CRITERIA + ("none",)


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
    """Quantities that price every candidate move of one step, a row per path.

    The (B, p + q) arrays run over the stacked coordinates ``(du, dv)``:
    ``g`` holds the gradients ``gu`` then ``Ew``, ``quad`` their quadratic
    terms, and ``c22`` the squared l2 norm of the other side's unit loading
    (``v22`` on the du part, ``u22`` on the dv part); the lists ``v22`` and
    ``u22`` hold one entry per row.
    """

    v22: list
    u22: list
    g: np.ndarray
    quad: np.ndarray
    c22: np.ndarray


def _cols(*values):
    """Per-row scalars as (B, 1) columns, one per list; the lone entries
    themselves when there is one row."""
    if len(values[0]) == 1:
        return [v[0] for v in values]
    return list(np.array(values)[:, :, None])


def _row_dots(a):
    """``[float(r @ r) for r in a]``; several rows take one stacked matmul,
    whose inner loop is the one each ``r @ r`` runs."""
    if len(a) == 1:
        r = a[0]
        return [float(r @ r)]
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0].tolist()


class _Engine:
    """Problem constants of B paths plus the quantities they maintain.

    The problems share p and q and are all masked or all unmasked.  Each
    maintained vector is a (B, .) array with a row per path; what depends on
    a problem's rows (``X``, ``S``, ``H``, ``x2h = (X o X)^T H``, ``w``,
    ``hdv2``) is a list with an entry per path.  ``enter`` makes a path's
    first move, ``move_u``/``move_v`` apply a move to row ``b`` and return
    the inner product that prices its rss change, ``scale_du`` and
    ``scale_dv`` follow the rescale that keeps ``||du||_1 = ||dv||_1``,
    ``rebuild`` recomputes a row from its ``du``/``dv`` (returns the rss on
    observed cells), ``tracked`` gives the gradients it checks for drift,
    ``price`` prices every row at once and ``keep`` drops the rows of paths
    that stopped.  Without a mask (``H`` is None) it keeps ``G du`` and
    ``ww = ||w||^2/n``; under one, ``w``, ``hdv2 = H dv^2``,
    ``qdv2 = (X o X)^T H dv^2`` and the vector ``ww = H^T (w o w)/n``.
    """

    def __init__(self, problems):
        self.p, self.q = problems[0].p, problems[0].q
        self.X = [np.asfortranarray(pb.X) for pb in problems]
        self.Y0 = [pb.observed_response() for pb in problems]
        self.n = [pb.n for pb in problems]
        self.S = [X.T @ Y0 / n for X, Y0, n in zip(self.X, self.Y0, self.n)]
        self.y2 = [float(np.vdot(Y0, Y0)) for Y0 in self.Y0]
        self.observed = [None if pb.mask is None else pb.n_observed for pb in problems]
        B = len(problems)
        self.Sdv = np.zeros((B, self.p))
        self.Stdu = np.zeros((B, self.q))
        listed = ["X", "Y0", "n", "S", "y2", "observed", "x2h"]
        stacked = ["Sdv", "Stdu", "ww"]
        if problems[0].mask is None:
            self.H = None
            self.gram = [GramCache(X) for X in self.X]
            self.col_x2 = np.array([np.einsum("ij,ij->j", X, X) for X in self.X])
            self.x2h = [np.broadcast_to(c[:, None], (self.p, self.q)) for c in self.col_x2]
            self.Gdu = np.zeros((B, self.p))
            self.ww = np.zeros(B)
            listed.append("gram")
            stacked += ["col_x2", "Gdu"]
        else:
            self.H = [np.asfortranarray(pb.mask, dtype=float) for pb in problems]
            self.x2h = [np.asfortranarray((X * X).T @ H) for X, H in zip(self.X, self.H)]
            self.w = [np.zeros(n) for n in self.n]
            self.hdv2 = [np.zeros(n) for n in self.n]
            self.qdv2 = np.zeros((B, self.p))
            self.ww = np.zeros((B, self.q))
            listed += ["H", "w", "hdv2"]
            stacked.append("qdv2")
        self._fields = (listed, stacked)
        self._shape()

    def _shape(self):
        """The column of n, ``ww`` as a column, and the buffers that hold
        each step's prices (``g``, ``quad``, ``c22``) with their halves."""
        (self.n_col,) = _cols(self.n)
        self.ww_col = self.ww[:, None] if self.H is None else self.ww
        p = self.p
        self._priced = g, quad, c22 = tuple(np.empty((3, len(self.n), p + self.q)))
        self._halves = (g[:, :p], g[:, p:], quad[:, :p], quad[:, p:], c22[:, :p], c22[:, p:])

    def keep(self, rows):
        """Keep only ``rows``, in that order."""
        listed, stacked = self._fields
        for name in listed:
            old = getattr(self, name)
            setattr(self, name, [old[b] for b in rows])
        for name in stacked:
            setattr(self, name, getattr(self, name)[rows])
        self._shape()

    def _clear(self, b):
        self.Sdv[b] = 0.0
        self.Stdu[b] = 0.0
        self.ww[b] = 0.0
        if self.H is None:
            self.Gdu[b] = 0.0
        else:
            self.w[b] = np.zeros(self.n[b])
            self.hdv2[b] = np.zeros(self.n[b])
            self.qdv2[b] = 0.0

    # The three terms that depend on the mask (see the module docstring).

    def _fit_u(self, rows, d, v22):
        """``X^T (w o h) / n``, the fitted part of ``gu``, of ``rows``;
        ``v22`` is a column."""
        if self.H is None:
            return self.Gdu[rows] * v22
        rows = range(len(self.n))[rows]
        fit = np.empty((len(rows), self.p))
        for f, b, x in zip(fit, rows, d):
            np.divide(self.X[b].T @ (self.w[b] * self.hdv2[b]), self.n[b] * x * x, out=f)
        return fit

    def _move_w(self, b, j, s):
        """Bring ``w`` (``G du`` without a mask) and ``ww`` along after
        ``du[j] += s``; under a mask ``H^T (w o w)`` is recomputed."""
        if self.H is None:
            self.ww[b] += 2.0 * s * self.Gdu.item(b, j) + s * s * self.gram[b].diag.item(j)
            Gdu = self.Gdu[b]
            Gdu += s * self.gram[b].col(j)
        else:
            w = self.w[b]
            w += s * self.X[b][:, j]
            np.divide(self.H[b].T @ (w * w), self.n[b], out=self.ww[b])

    def _quad(self, d2, D2, DD, V, quad_u, quad_v):
        """``(X o X)^T h`` and ``n H^T (w o w)``, the quadratic terms of the u
        and the v moves (over ``d^2``), into ``quad_u`` and ``quad_v``;
        ``d2`` lists ``d ** 2`` and the columns hold it, ``d * d`` and
        ``v22``."""
        if self.H is None:
            np.multiply(self.col_x2, V, out=quad_u)
            # ww is a scalar per row without a mask
            quad_v[...] = _cols([n * w / x for n, w, x in zip(self.n, self.ww, d2)])[0]
        else:
            np.divide(self.qdv2, DD, out=quad_u)
            np.multiply(self.n_col, self.ww, out=quad_v)
            quad_v /= D2

    def enter(self, b, j, k, s, eps):
        self.Sdv[b] = s * self.S[b][:, k]
        self.Stdu[b] = eps * self.S[b][j]
        if self.H is None:
            self.Gdu[b] = eps * self.gram[b].col(j)
            self.ww[b] = eps * eps * self.gram[b].diag[j]
        else:
            self.w[b] = eps * self.X[b][:, j]
            self.hdv2[b] = (s * s) * self.H[b][:, k]
            self.qdv2[b] = (s * s) * self.x2h[b][:, k]
            self.ww[b] = (eps * eps / self.n[b]) * self.x2h[b][j]

    @staticmethod
    def _gradients(Sdv, Stdu, ww, fit, dv, D, gu=None, Ew=None):
        """``gu = S dv / d - fit`` and ``Ew = (S^T du - (dv / d) o ww) / d``
        (into ``gu`` and ``Ew`` when given); ``D`` is the column of d."""
        gu = np.divide(Sdv, D, out=gu)
        gu -= fit
        Ew = np.divide(dv, D, out=Ew)
        Ew *= ww
        np.subtract(Stdu, Ew, out=Ew)
        Ew /= D
        return gu, Ew

    def price(self, duv, d):
        """Prices of every row of the stacked loadings ``duv`` at sizes ``d``
        (a list with a positive entry per row).

        The arrays it returns are overwritten by the next call.
        """
        p = self.p
        dv = duv[:, p:]
        d2 = [x ** 2 for x in d]
        v22 = [x / y for x, y in zip(_row_dots(dv), d2)]
        u22 = [x / y for x, y in zip(_row_dots(duv[:, :p]), d2)]
        D, D2, DD, V, U = _cols(d, d2, [x * x for x in d], v22, u22)
        g_u, g_v, quad_u, quad_v, c22_u, c22_v = self._halves
        self._gradients(self.Sdv, self.Stdu, self.ww_col,
                        self._fit_u(slice(None), d, V), dv, D, g_u, g_v)
        self._quad(d2, D2, DD, V, quad_u, quad_v)
        c22_u[...] = V
        c22_v[...] = U
        return _Prices(v22, u22, *self._priced)

    def move_u(self, b, j, s, pr):
        self._move_w(b, j, s)
        Stdu = self.Stdu[b]
        Stdu += s * self.S[b][j]
        return self.n[b] * pr.g.item(b, j)

    def move_v(self, b, k, h, dsq, d_old, pr):
        """``dv[k] += h`` on row ``b``; ``dsq`` is the change of ``dv[k]**2``."""
        Sdv = self.Sdv[b]
        Sdv += h * self.S[b][:, k]
        if self.H is not None:
            self.hdv2[b] += dsq * self.H[b][:, k]
            qdv2 = self.qdv2[b]
            qdv2 += dsq * self.x2h[b][:, k]
        return self.n[b] * d_old * pr.g.item(b, self.p + k)

    def scale_du(self, b, r):
        Stdu = self.Stdu[b]
        Stdu *= r
        self.ww[b] *= r * r
        if self.H is None:
            Gdu = self.Gdu[b]
            Gdu *= r
        else:
            self.w[b] *= r

    def scale_dv(self, b, r):
        Sdv = self.Sdv[b]
        Sdv *= r
        if self.H is not None:
            self.hdv2[b] *= r * r
            qdv2 = self.qdv2[b]
            qdv2 *= r * r

    def rebuild(self, b, du, dv, d):
        if d <= 0.0:
            self._clear(b)
            return self.y2[b]
        X, S, n = self.X[b], self.S[b], self.n[b]
        w = X @ du
        self.Sdv[b] = S @ dv
        self.Stdu[b] = S.T @ du
        fit = np.outer(w, dv / d)
        if self.H is None:
            self.Gdu[b] = (X.T @ w) / n
            self.ww[b] = float(w @ w) / n
        else:
            H = self.H[b]
            self.w[b] = w
            self.hdv2[b] = H @ (dv * dv)
            self.qdv2[b] = self.x2h[b] @ (dv * dv)
            self.ww[b] = H.T @ (w * w) / n
            fit *= H
        E = self.Y0[b] - fit
        return float(np.vdot(E, E))

    def tracked(self, b, state):
        if state.d <= 0.0:
            return ()
        d = state.d
        rows = slice(b, b + 1)
        v22 = float(state.dv @ state.dv) / d ** 2
        return self._gradients(self.Sdv[rows], self.Stdu[rows], self.ww_col[rows],
                               self._fit_u(rows, [d], v22), state.dv[None], d)


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

    def __len__(self):
        return len(self.steps)


class _Rows:
    """Paths that step in lockstep as the rows of one engine.

    ``duv`` stacks the paths' loadings ``(du, dv)``, a row per path, and
    ``states`` holds their :class:`StagewiseState` in row order.  The first
    proposal of a step prices every row at once, and the backward and
    forward scans likewise run once per step for all rows; the results are
    kept until the step count moves on or a row is rebuilt.
    """

    def __init__(self, engine, config):
        self.engine = engine
        self.duv = np.zeros((len(engine.n), engine.p + engine.q))
        self.states = []
        self._eps = config.epsilon
        self._factors()
        self.forget()

    def _factors(self):
        """The per-row factors eps^2 / 2n and eps / 2n of the proposals."""
        eps = self._eps
        self.a_back = np.array([eps ** 2 / (2.0 * n) for n in self.engine.n])
        self.a_back_full = np.repeat(self.a_back, self.duv.shape[1]).reshape(self.duv.shape)
        (self.a_fwd,) = _cols([eps / (2.0 * n) for n in self.engine.n])

    def forget(self):
        self._t = self._prices = self._back = self._fwd = None

    def keep(self, states):
        """Carry on with ``states`` only; the other paths have stopped."""
        rows = [s._row for s in states]
        self.engine.keep(rows)
        self.duv = self.duv[rows]
        self._factors()
        self.states = list(states)
        for b, state in enumerate(self.states):
            state._bind(b)
        self.forget()

    def prices(self, t):
        """The priced quantities of step ``t``, for every row.

        A row in the zero state is priced at d = 1 and never read.
        """
        if self._t != t:
            d = [s.d if s.d > 0.0 else 1.0 for s in self.states]
            self.forget()
            self._prices = self.engine.price(self.duv, d)
            self._t = t
        return self._prices

    def backward(self, t, config):
        """``(prices, shrinks)``: per row, the best shrink as ``(position in
        (du, dv), loss change)``; the change is +inf when the row has no
        coordinate of size epsilon or more."""
        pr = self.prices(t)
        if self._back is None:
            self._back = _best_shrinks(self, pr, config)
        return pr, self._back

    def forward(self, t, config):
        """``(prices, inner, j, k)``: the forward scores' inner products and,
        per row, the best u and v coordinates."""
        pr = self.prices(t)
        if self._fwd is None:
            p = self.engine.p
            inner = pr.g - config.mu * self.duv * pr.c22
            score = np.abs(inner) - self.a_fwd * pr.quad
            self._fwd = (inner, score[:, :p].argmax(axis=1).tolist(),
                         score[:, p:].argmax(axis=1).tolist())
        return (pr, *self._fwd)


def _best_shrinks(rows, pr, config):
    """Per row, ``(position, loss change)`` of its best shrink (first on ties).

    A lone path prices only its support, which is faster on long rows;
    several paths price their whole rows at once, which is faster than
    gathering their supports.
    """
    eps = config.epsilon
    mu = config.mu
    B = len(rows.states)
    if B == 1:
        nz = rows.states[0]._nonzeros()
        duv, g, quad, c22 = rows.duv.take(nz), pr.g.take(nz), pr.quad.take(nz), pr.c22.take(nz)
        a = rows.a_back
    else:
        duv, g, quad, c22, a = rows.duv, pr.g, pr.quad, pr.c22, rows.a_back_full
    ax = np.abs(duv)
    dl = (
        a * quad
        + eps * np.sign(duv) * g
        - mu * eps * ax * c22
        + 0.5 * mu * eps ** 2 * c22
    )
    # Only nonzero entries of size eps or more may shrink; +inf fails every test.
    dl = np.where(ax >= max(eps - SNAP_TOL, SMALLEST), dl, np.inf)
    # du candidates come first, so du wins ties
    if B == 1:
        if not dl.size:
            return [(0, math.inf)]
        i = int(dl.argmin())
        return [(nz.item(i), dl.item(i))]
    first = dl.argmin(axis=1)
    return list(zip(first.tolist(), dl[np.arange(B), first].tolist()))


class StagewiseState:
    """Mutable solver state of one path; field names follow the working
    parameterization.

    The path is one row of an engine that may hold other paths run
    alongside (see :func:`run_paths`).  ``du`` and ``dv`` are views into
    that row of the stacked loadings.  After editing them by hand, call
    :meth:`_refresh_exact` to bring the bookkeeping along.
    """

    def __init__(self, rows, row, config, lam):
        engine = rows.engine
        self._rows = rows
        self._engine = engine
        self._config = config
        self._n = engine.n[row]
        self._observed = engine.observed[row]
        self._bind(row)
        self.lam = lam
        self.t = 0
        self.d = 0.0
        self.rss = engine.y2[row]  # ||P(Y0 - fit)||_F^2
        self.l2c = 0.0             # ||d u v^T||_F^2
        self._support = None

    def _bind(self, row):
        p = self._engine.p
        self._row = row
        self._duv = self._rows.duv[row]
        self.du = self._duv[:p]
        self.dv = self._duv[p:]

    @property
    def loss(self):
        return self.rss / (2.0 * self._n) + 0.5 * self._config.mu * self.l2c

    def _nonzeros(self):
        """Positions of the nonzeros of the stacked ``(du, dv)``, found once per step."""
        sup = self._support
        if sup is None or sup[0] != self.t:
            sup = self._support = (self.t, self._duv.nonzero()[0])
        return sup[1]

    def _refresh_exact(self):
        """Rebuild the bookkeeping from du/dv (drift control).

        Returns the largest relative gap between the maintained rss and
        gradients and their rebuilt values.
        """
        engine = self._engine
        b = self._row
        kept = (self.rss, *engine.tracked(b, self))
        self.d = float(np.abs(self.du).sum())
        if self.d <= 0.0:
            self.l2c = 0.0
        else:
            self.l2c = float(self.du @ self.du) * float(self.dv @ self.dv) / self.d ** 2
        self.rss = engine.rebuild(b, self.du, self.dv, self.d)
        self._rows.forget()
        self._support = None
        exact = (self.rss, *engine.tracked(b, self))
        return max(_rel_gap(a, b) for a, b in zip(kept, exact))


def _criterion_value(state, df):
    config = state._config
    if config.criterion == "none":
        return None
    if state.rss <= 0.0:
        return None
    engine = state._engine
    return information_criterion(
        config.criterion,
        CriterionInput(state.rss, state._n, engine.p, engine.q, df, state._observed),
    )


def _record(state, move):
    engine = state._engine
    index = state._nonzeros()
    df = index.size - 1 if state.d > 0 else 0
    # Positional, in PathStep's field order: a step records one per row.
    return PathStep(
        state.t, state.lam, move, state.d, index.astype(np.int32),
        state._duv[index], engine.p, engine.q, state.loss,
        state.lam * state.d, _criterion_value(state, df), state.rss, df,
    )


def _init_search(engine, b, eps, mu):
    """Best single-entry model of row ``b``'s response.

    Scans every (row, column) pair for the entry s*e_j e_k^T, |s| = eps,
    that minimizes the loss; returns indices, the signed step on the v side,
    the lambda level at which the move exactly pays for itself, and the
    entry's ``S`` and quadratic terms.
    """
    G = engine.S[b]
    quad = engine.x2h[b]
    n = engine.n[b]
    obj = (eps / (2.0 * n)) * quad - np.abs(G)
    flat = int(np.argmin(obj))
    j, k = np.unravel_index(flat, G.shape)
    lam0 = float(np.abs(G[j, k]) - (eps / (2.0 * n)) * quad[j, k] - 0.5 * mu * eps)
    s = eps if G[j, k] >= 0 else -eps
    return int(j), int(k), s, lam0, float(G[j, k]), float(quad[j, k])


def _enter(state, j, k, s, G_jk, quad_jk):
    """Move from the zero state to the single entry du[j] = eps, dv[k] = s."""
    eps = abs(s)
    state.du[j] = eps
    state.dv[k] = s
    state.d = eps
    state.l2c = eps ** 2
    state.rss = state.rss - 2.0 * s * state._n * G_jk + eps ** 2 * quad_jk
    state._engine.enter(state._row, j, k, s, eps)


def _start(problems, config):
    """Start one path per problem as the rows of one engine.

    Returns the paths' states and first records (see :func:`initialize_path`).
    """
    engine = _Engine(problems)
    rows = _Rows(engine, config)
    eps = config.epsilon
    xi = config.xi_resolved
    steps = []
    for b, problem in enumerate(problems):
        if problem.mask is not None and problem.n_observed == 0:
            raise ValueError("no observed entries in Y")
        j, k, s, lam0, G_jk, quad_jk = _init_search(engine, b, eps, config.mu)
        if xi >= eps * max(lam0, 1.0):
            raise ValueError(
                f"xi={xi} is too large for epsilon={eps} at lam0={lam0}; "
                "every move would be rejected"
            )
        state = StagewiseState(rows, b, config, lam0)
        rows.states.append(state)
        if lam0 > 0.0:
            _enter(state, j, k, s, G_jk, quad_jk)
        steps.append(_record(state, MOVE_INIT))
    return rows.states, steps


def initialize_path(problem, config):
    """Start a path: pick the best single entry of du x dv and set lambda.

    Returns ``(state, step)``.  When no single epsilon-sized entry improves
    on the zero model (lam0 <= 0, e.g. Y = 0) the recorded step carries the
    zero factor and the path should end immediately.
    """
    states, steps = _start([problem], config)
    return states[0], steps[0]


def _execute_u(state, j, s, pr):
    """Apply du[j] += s; returns the exact loss change."""
    b = state._row
    d_old = state.d
    old = state.du.item(j)
    new = old + s
    if abs(new) <= SNAP_TOL:
        new = 0.0
    xe = state._engine.move_u(b, j, s, pr)
    d_rss = -2.0 * s * xe + s * s * pr.quad.item(b, j)
    d_l2 = (new * new - old * old) * pr.v22[b]
    state.du[j] = new
    delta = d_rss / (2.0 * state._n) + 0.5 * state._config.mu * d_l2
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or (new == 0.0 and not state.du.any()):
        _zero_out(state)
        return delta
    r = d_new / d_old
    state.dv *= r
    state._engine.scale_dv(b, r)
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return delta


def _execute_v(state, k, h, pr):
    """Apply dv[k] += h; returns the exact loss change.

    ``pr.quad[b, p + k]`` is ||X u||^2 restricted to observed rows of column
    k, already divided by d^2 (the same scale as the proposal quantities).
    """
    b = state._row
    p = state._engine.p
    d_old = state.d
    old = state.dv.item(k)
    new = old + h
    if abs(new) <= SNAP_TOL:
        new = 0.0
    dsq = new * new - old * old
    we = state._engine.move_v(b, k, h, dsq, d_old, pr)
    d_rss = -2.0 * (h / d_old) * we + h * h * pr.quad.item(b, p + k)
    d_l2 = dsq * pr.u22[b]
    state.dv[k] = new
    delta = d_rss / (2.0 * state._n) + 0.5 * state._config.mu * d_l2
    d_new = d_old + abs(new) - abs(old)
    if d_new <= SNAP_TOL or (new == 0.0 and not state.dv.any()):
        _zero_out(state)
        return delta
    r = d_new / d_old
    state.du *= r
    state._engine.scale_du(b, r)
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return delta


def _zero_out(state):
    """Collapse to the exact zero state (both sides empty)."""
    state._duv[:] = 0.0
    state.d = 0.0
    state.l2c = 0.0
    state.rss = state._engine.rebuild(state._row, state.du, state.dv, 0.0)


def propose_backward(state, config):
    """Try the best shrinking move inside the active sets.

    Executes it and returns the recorded step when its loss increase stays
    below ``lam * eps - xi``; returns None otherwise (including when there is
    nothing active to shrink).  lambda never changes on a backward move.
    The candidates of every row of the state's engine are scanned at once.
    """
    if state.d <= 0.0:
        return None
    eps = config.epsilon
    pr, shrinks = state._rows.backward(state.t, config)
    j, dl = shrinks[state._row]
    if not dl < state.lam * eps - config.xi_resolved:
        return None
    p = state._engine.p
    if j < p:
        _execute_u(state, j, -eps if state.du.item(j) > 0 else eps, pr)
        move = MOVE_BACKWARD_U
    else:
        k = j - p
        _execute_v(state, k, -eps if state.dv.item(k) > 0 else eps, pr)
        move = MOVE_BACKWARD_V
    state.t += 1
    return _record(state, move)


def propose_forward(state, config):
    """Execute the best growing move over all coordinates of both sides.

    The side whose move yields the smaller post-move loss wins (du on ties).
    Afterwards lambda is updated to ``min(lam, (loss_drop - xi) / eps)``.
    From the all-zero state the search runs over single (j, k) entry pairs,
    exactly like initialization.  The scores of every row of the state's
    engine are computed at once.
    """
    eps = config.epsilon
    mu = config.mu
    xi = config.xi_resolved
    b = state._row
    if state.d <= 0.0:
        j, k, s, lam_val, G_jk, quad_jk = _init_search(state._engine, b, eps, mu)
        _enter(state, j, k, s, G_jk, quad_jk)
        state.lam = min(state.lam, (eps * lam_val - xi) / eps)
        state.t += 1
        return _record(state, MOVE_FORWARD_U)
    pr, inner, js, ks = state._rows.forward(state.t, config)
    p = state._engine.p
    j = js[b]
    k = p + ks[b]
    inner_u = inner.item(b, j)
    inner_v = inner.item(b, k)
    a = eps ** 2 / (2.0 * state._n)
    c = 0.5 * mu * eps ** 2
    dl_u = -eps * abs(inner_u) + a * pr.quad.item(b, j) + c * pr.v22[b]
    dl_v = -eps * abs(inner_v) + a * pr.quad.item(b, k) + c * pr.u22[b]
    if dl_u <= dl_v + FORWARD_TIE_TOL:
        delta_loss = _execute_u(state, j, eps if inner_u >= 0 else -eps, pr)
        move = MOVE_FORWARD_U
    else:
        delta_loss = _execute_v(state, k - p, eps if inner_v >= 0 else -eps, pr)
        move = MOVE_FORWARD_V
    state.lam = min(state.lam, (-delta_loss - xi) / eps)
    state.t += 1
    return _record(state, move)


def _run_rows(problems, config):
    """The paths of ``problems`` (one engine kind, same p and q) in lockstep."""
    states, first = _start(problems, config)
    rows = states[0]._rows
    paths = []
    live = []
    for problem, state, step0 in zip(problems, states, first):
        path = StagewisePath(
            steps=[step0],
            config=config,
            n=problem.n,
            p=problem.p,
            q=problem.q,
            observed=None if problem.mask is None else problem.n_observed,
        )
        paths.append(path)
        if state.lam <= 0.0:
            path.terminated_by = "lambda_nonpositive"
            continue
        stop = None if config.criterion == "none" else EarlyStop(config.early_stop_window)
        if stop is not None:
            stop.update(step0.criterion_value)
        live.append((state, path, stop))
    while live:
        if len(live) < len(rows.states):
            rows.keep([state for state, _, _ in live])
        going = []
        for state, path, stop in live:
            if state.t >= config.max_steps:
                path.terminated_by = "max_steps"
                continue
            step = propose_backward(state, config)
            if step is None:
                step = propose_forward(state, config)
            path.steps.append(step)
            if state.t % RECOMPUTE_EVERY == 0:
                path.max_drift = max(path.max_drift, state._refresh_exact())
            stalled = stop is not None and stop.update(step.criterion_value)
            if state.lam <= 0.0:
                path.terminated_by = "lambda_nonpositive"
            elif stalled:
                path.terminated_by = "early_stop"
            else:
                going.append((state, path, stop))
        live = going
    rows.states.clear()  # no cycle keeps the engine alive
    return paths


def run_paths(problems, config=None):
    """Trace the paths of several problems in lockstep; see the module docstring.

    Problems of one engine kind (masked or not) and the same p and q run as
    the rows of one engine, so each step prices all of them at once; every
    path equals the one :func:`run_path` traces for its problem alone.
    Returns one :class:`StagewisePath` per problem, in order.
    """
    config = config or StagewiseConfig()
    problems = list(problems)
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault((problem.mask is None, problem.p, problem.q), []).append(i)
    paths = [None] * len(problems)
    for members in groups.values():
        for i, path in zip(members, _run_rows([problems[i] for i in members], config)):
            paths[i] = path
    return paths


def run_path(problem, config=None):
    """Trace the full path from the data; see the module docstring.

    Returns a :class:`StagewisePath` whose ``terminated_by`` is one of
    ``lambda_nonpositive``, ``max_steps``, or ``early_stop``.
    """
    return run_paths([problem], config)[0]


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

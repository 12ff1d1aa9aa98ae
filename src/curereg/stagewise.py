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

An unmasked step thus costs O(p + q), but up to p + q of a few thousand
its time is mostly the fixed cost of its few dozen small numpy calls.

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

Besides the inputs and the Gram columns of active coordinates, a path's
working memory is ``S`` (plus ``(X o X)^T H`` under a mask) and vectors of
length n, p or q: the first search for the best single entry scans ``S``
in blocks of rows instead of forming a p x q objective.  A step record
holds its scalars and its path's :class:`MoveLog` its move, or a checkpoint
of its loadings, so the records take O(1) memory a step at any df.

The per-step objective bookkeeping gives, by construction,

    Q(step t+1; lam_{t+1}) <= Q(step t; lam_{t+1}) - xi

for every executed step, where ``Q = loss + lam * d`` is the penalized
objective; tests assert this on recorded paths.  The path terminates when
lam reaches zero, when ``max_steps`` is hit, or when the tracked information
criterion has not improved for ``EARLY_STOP_WINDOW`` consecutive steps.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import tuning
from .core import GramCache, NormMode, UnitRankFactor
from .tuning import EarlyStop, information_criterion

__all__ = [
    "StagewiseConfig",
    "StagewiseState",
    "PathStep",
    "MoveLog",
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
# A path with a criterion stops once it has not improved for this many
# steps; read by each path as it starts.
EARLY_STOP_WINDOW = 300
# Entries of S per block of the first search, whose temporaries then take
# two blocks instead of two p x q arrays.
_SEARCH_BLOCK = 1 << 15

MOVE_INIT = "init"
# A move's name, indexed by the side of its position i in (du, dv): i >= p.
MOVES_FORWARD = ("forward_u", "forward_v")
MOVES_BACKWARD = ("backward_u", "backward_v")

CRITERIA = tuning.CRITERIA + ("none",)


@dataclass
class StagewiseConfig:
    """Knobs for the path solver.

    ``epsilon`` must exceed ``SNAP_TOL``, below which a move off zero would
    be snapped back to zero.  ``xi`` defaults to ``1e-6 * epsilon**2`` when
    left as None; it must stay well below ``epsilon * lam`` scales or every
    move would be rejected.  ``criterion`` selects the per-step information
    criterion used for early stopping and path selection ("none" disables
    both).  ``max_steps`` is the one per-call step budget; the early-stop
    window is the module constant ``EARLY_STOP_WINDOW``.
    """

    epsilon: float = 1.0
    xi: float | None = None
    mu: float = 1e-4
    max_steps: int = 100_000
    criterion: str = "gic"

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.epsilon <= SNAP_TOL:
            raise ValueError(f"epsilon {self.epsilon} is too small:"
                             f" it must exceed the snap tolerance {SNAP_TOL}")
        try:
            self.epsilon ** 2  # as xi_resolved and the engine square it
        except OverflowError:
            raise ValueError(f"epsilon {self.epsilon} is too large:"
                             " its square overflows") from None
        if self.xi is not None and not 0 <= self.xi < math.inf:
            raise ValueError("xi must be finite and nonnegative")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and nonnegative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")

    @property
    def xi_resolved(self):
        return 1e-6 * self.epsilon ** 2 if self.xi is None else self.xi


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
    ``hdv2``) is a list with an entry per path.  Without a mask (``H`` is
    None) it keeps ``G du`` and ``ww = ||w||^2/n``; under one, ``w``,
    ``hdv2 = H dv^2``, ``qdv2 = (X o X)^T H dv^2`` and the vector
    ``ww = H^T (w o w)/n``.

    A move is addressed by its position ``i`` in the stacked loadings
    ``(du, dv)``.  ``price`` prices every row at once; ``move(b, i, h, dsq,
    d_old)`` adds ``h`` at ``i`` on row ``b`` and returns the ``c`` of its
    rss change ``-2 c + h^2 quad[b, i]``; ``scale(b, i, r)`` follows the
    rescale, by ``r``, of the side the move at ``i`` did not set.  ``enter``
    makes a path's first move, ``rebuild`` recomputes a row from its
    ``du``/``dv`` (returns the rss on observed cells), ``tracked`` gives
    the gradients it checks for drift and ``keep`` drops the rows of paths
    that stopped.
    """

    def __init__(self, problems):
        self.p, self.q = problems[0].p, problems[0].q
        self.X = [np.asfortranarray(pb.X) for pb in problems]
        self.problems = problems
        self.n = [pb.n for pb in problems]
        Y0 = [self._observed(b) for b in range(len(problems))]
        self.S = [X.T @ Y / n for X, Y, n in zip(self.X, Y0, self.n)]
        self.y2 = [float(np.vdot(Y, Y)) for Y in Y0]
        del Y0
        B = len(problems)
        self.Sdv = np.zeros((B, self.p))
        self.Stdu = np.zeros((B, self.q))
        listed = ["X", "problems", "n", "S", "y2", "x2h"]
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

    def _observed(self, b):
        """Row ``b``'s ``Y0``; a masked row's is formed on each call, not kept."""
        pb = self.problems[b]
        return np.ascontiguousarray(pb.Y) if pb.mask is None else pb.observed_response()

    def _shape(self):
        """The column of n, ``ww`` as a column, and the buffers of each
        step's prices with their halves and of the fitted part of ``gu``."""
        (self.n_col,) = _cols(self.n)
        self.ww_col = self.ww[:, None] if self.H is None else self.ww
        p = self.p
        self._priced = g, quad, c22 = tuple(np.empty((3, len(self.n), p + self.q)))
        self._halves = (g[:, :p], g[:, p:], quad[:, :p], quad[:, p:], c22[:, :p], c22[:, p:])
        self._fit = np.empty((len(self.n), p))

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

        Returns ``(g, quad, c22)``, (B, p + q) arrays over the positions of
        ``(du, dv)``: the gradients ``gu`` then ``Ew``, their quadratic terms
        (over ``d^2``: ``(X o X)^T h`` and ``n H^T (w o w)``, one scalar per
        row without a mask), and the squared l2 norm of the other side's
        unit loading (``v22`` on the du part, ``u22`` on the dv part).  The
        three are views of one (3, B, p + q) array, their ``base``, so that
        one ``take`` gathers all three; the next call overwrites them.
        """
        p = self.p
        dv = duv[:, p:]
        d2 = [x ** 2 for x in d]
        v22 = [x / y for x, y in zip(_row_dots(dv), d2)]
        u22 = [x / y for x, y in zip(_row_dots(duv[:, :p]), d2)]
        g_u, g_v, quad_u, quad_v, c22_u, c22_v = self._halves
        if self.H is None:
            D, V, U, Q = _cols(d, v22, u22, [
                n * w / x for n, w, x in zip(self.n, self.ww.tolist(), d2)])
            fit = np.multiply(self.Gdu, V, out=self._fit)
            np.multiply(self.col_x2, V, out=quad_u)
            quad_v[...] = Q
        else:
            D, D2, DD, V, U = _cols(d, d2, [x * x for x in d], v22, u22)
            fit = self._fit_u(slice(None), d, V)
            np.divide(self.qdv2, DD, out=quad_u)
            np.multiply(self.n_col, self.ww, out=quad_v)
            quad_v /= D2
        self._gradients(self.Sdv, self.Stdu, self.ww_col, fit, dv, D, g_u, g_v)
        c22_u[...] = V
        c22_v[...] = U
        return self._priced

    def move(self, b, i, h, dsq, d_old):
        """``(du, dv)[i] += h`` on row ``b``, priced by the last :meth:`price`;
        ``dsq`` is the change of the entry's square."""
        g = self._priced[0].item(b, i)
        n = self.n[b]
        j = i - self.p
        if j >= 0:
            Sdv = self.Sdv[b]
            Sdv += h * self.S[b][:, j]
            if self.H is not None:
                self.hdv2[b] += dsq * self.H[b][:, j]
                qdv2 = self.qdv2[b]
                qdv2 += dsq * self.x2h[b][:, j]
            return (h / d_old) * (n * d_old * g)
        if self.H is None:
            self.ww[b] += 2.0 * h * self.Gdu.item(b, i) + h * h * self.gram[b].diag.item(i)
            Gdu = self.Gdu[b]
            Gdu += h * self.gram[b].col(i)
        else:
            w = self.w[b]
            w += h * self.X[b][:, i]
            np.divide(self.H[b].T @ (w * w), n, out=self.ww[b])
        Stdu = self.Stdu[b]
        Stdu += h * self.S[b][i]
        return h * (n * g)

    def scale(self, b, i, r):
        """Multiply the side that the move at ``i`` did not set by ``r``."""
        if i < self.p:
            Sdv = self.Sdv[b]
            Sdv *= r
            if self.H is not None:
                self.hdv2[b] *= r * r
                qdv2 = self.qdv2[b]
                qdv2 *= r * r
        else:
            Stdu = self.Stdu[b]
            Stdu *= r
            self.ww[b] *= r * r
            if self.H is None:
                Gdu = self.Gdu[b]
                Gdu *= r
            else:
                self.w[b] *= r

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
        E = self._observed(b) - fit
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

    A step keeps only its own scalars and its path's :class:`MoveLog`
    ``_log``, which holds the loadings.  ``index``, the ascending positions
    of the nonzeros of the stacked vector ``(du, dv)`` (length ``p + q``),
    ``value``, their values, and :attr:`factor`, the dense L1-mode factor,
    are rebuilt from the log on each read and never kept on the step.
    """

    t: int
    lam: float
    move: str
    d: float
    loss: float
    criterion_value: float | None
    rss: float
    df: int
    _log: MoveLog = field(repr=False, compare=False)

    @property
    def index(self):
        return self._log.loadings(self.t)[0]

    @property
    def value(self):
        return self._log.loadings(self.t)[1]

    @property
    def penalty(self):
        return self.lam * self.d

    @property
    def factor(self):
        p, q = self._log.p, self._log.q
        if self.d <= 0.0:
            return UnitRankFactor.zero(p, q, NormMode.L1)
        index, value = self._log.loadings(self.t)
        full = np.zeros(p + q)
        full[index] = value
        return UnitRankFactor(self.d, full[:p] / self.d, full[p:] / self.d, NormMode.L1)


class MoveLog:
    """The stacked loadings ``(du, dv)`` of a ``p``-by-``q`` path's steps:
    step ``t``'s move ``(i, new, r)``, ``(du, dv)[i] = new`` then the other
    side times ``r``, or a checkpoint of its sparse loadings.  :meth:`loadings`
    replays the engine's numpy operations (so bitwise) from one cursor:
    ascending reads cost O(1) moves a step, others replay from the latest
    checkpoint before."""

    __slots__ = ("p", "q", "moves", "marks", "saved", "_duv", "_at")

    def __init__(self, p, q):
        self.p, self.q = p, q
        self.moves = array("d")  # i, new, r of each step; i is -1 at a checkpoint
        self.marks, self.saved = [], []  # the checkpoints' steps and (index, value)
        self._duv, self._at = np.zeros(p + q), -1

    def append(self, move, index=None, value=None):
        """Log the next step: its ``move``, or if None its loadings' nonzeros."""
        if move is None:
            self.marks.append(len(self.moves) // 3)
            self.saved.append((index, value))
        self.moves.extend(move or (-1, 0, 0))

    def loadings(self, t):
        """Step ``t``'s nonzeros: ascending int32 ``index``, float64 ``value``."""
        k = bisect_right(self.marks, t) - 1
        duv, p = self._duv, self.p
        if not self.marks[k] <= self._at <= t:
            duv[:] = 0.0
            duv[self.saved[k][0]] = self.saved[k][1]
            self._at = self.marks[k]
        m = self.moves[3 * self._at + 3:3 * t + 3].tolist()
        u, v = duv[:p], duv[p:]
        for i, new, r in zip(m[::3], m[1::3], m[2::3]):
            duv[int(i)] = new
            side = v if i < p else u
            side *= r
        self._at = t
        index = duv.nonzero()[0].astype(np.int32)
        return index, duv.take(index)


@dataclass
class StagewisePath:
    """A recorded path; ``max_drift`` is the largest relative gap between the
    maintained and the rebuilt bookkeeping seen at the periodic rebuilds."""

    steps: list = field(default_factory=list)
    config: StagewiseConfig | None = None
    terminated_by: str = ""
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
        # Constants of every path, spelled as their formulas spell them; the
        # scans take 0-d arrays, which numpy reads faster than Python floats.
        eps, mu = config.epsilon, config.mu
        self.eps, self.mu, self.xi = eps, mu, config.xi_resolved
        self.c, self.half_mu = 0.5 * mu * eps ** 2, 0.5 * mu
        self._scan = tuple(np.array(x) for x in (
            eps, mu, mu * eps, self.c, max(eps - SNAP_TOL, SMALLEST), math.inf))
        self._shape()

    def _shape(self):
        """The per-row factors eps^2 / 2n (listed in ``a``) and eps / 2n, as
        0-d arrays or columns, and the buffers of the forward scores."""
        eps, n = self.eps, self.engine.n
        self.a = [eps ** 2 / (2.0 * x) for x in n]
        self.a_back, self.a_fwd = (
            np.array(v).reshape(()) if len(n) == 1 else np.array(v)[:, None]
            for v in (self.a, [eps / (2.0 * x) for x in n]))
        self._inner, self._score, self._tmp = np.empty((3, *self.duv.shape))
        self._score_halves = self._score[:, :self.engine.p], self._score[:, self.engine.p:]
        self.forget()

    def forget(self):
        self._t = self._prices = self._back = self._fwd = None

    def keep(self, states):
        """Carry on with ``states`` only; the other paths have stopped."""
        rows = [s._row for s in states]
        self.engine.keep(rows)
        self.duv = self.duv[rows]
        self._shape()
        self.states = list(states)
        for b, state in enumerate(self.states):
            state._bind(b)

    def prices(self, t):
        """The prices ``(g, quad, c22)`` of step ``t``, for every row (see
        :meth:`_Engine.price`).

        A row in the zero state is priced at d = 1 and never read.
        """
        if self._t != t:
            d = [s.d if s.d > 0.0 else 1.0 for s in self.states]
            self._back = self._fwd = None
            self._prices = self.engine.price(self.duv, d)
            self._t = t
        return self._prices

    def backward(self, t):
        """``(prices, shrinks)``: per row, the best shrink as ``(position in
        (du, dv), loss change)``; the change is +inf when the row has no
        coordinate of size epsilon or more."""
        pr = self.prices(t)
        if self._back is None:
            self._back = _best_shrinks(self, pr)
        return pr, self._back

    def forward(self, t):
        """``(prices, inner, j, k)``: the forward scores' inner products
        ``g - mu duv c22`` (a buffer the next step overwrites) and, per row,
        the best u and v coordinates."""
        pr = self.prices(t)
        if self._fwd is None:
            g, quad, c22 = pr
            inner, score, tmp = self._inner, self._score, self._tmp
            np.multiply(self._scan[1], self.duv, out=inner)
            inner *= c22
            np.subtract(g, inner, out=inner)
            np.abs(inner, out=score)
            score -= np.multiply(self.a_fwd, quad, out=tmp)
            score_u, score_v = self._score_halves
            self._fwd = (inner, score_u.argmax(axis=1).tolist(),
                         score_v.argmax(axis=1).tolist())
        return (pr, *self._fwd)


def _best_shrinks(rows, pr):
    """Per row, ``(position, loss change)`` of its best shrink (first on ties).

    The change is ``a quad + eps sign(duv) g - mu eps |duv| c22 + (mu eps^2
    / 2) c22``, summed in that order.  A lone path prices only its support,
    which is faster on long rows; several paths price their whole rows at
    once, which is faster than gathering their supports.
    """
    B = len(rows.states)
    if B == 1:
        nz = rows.states[0]._nonzeros()
        duv = rows.duv.take(nz, axis=1)
        g, quad, c22 = pr[0].base.take(nz, axis=2)
    else:
        duv = rows.duv
        g, quad, c22 = pr
    eps, _, mu_eps, c, shrink_min, inf = rows._scan
    dl = np.multiply(rows.a_back, quad)
    # copysign(eps, x) is eps * sign(x) wherever x != 0; the zeros are masked
    t = np.copysign(eps, duv)
    t *= g
    dl += t
    ax = np.abs(duv)
    np.multiply(mu_eps, ax, out=t)
    t *= c22
    dl -= t
    np.multiply(c, c22, out=t)
    dl += t
    # Only nonzero entries of size eps or more may shrink; +inf fails every test.
    dl = np.where(ax >= shrink_min, dl, inf)
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

    def __init__(self, rows, row, config, lam, n_observed):
        engine = rows.engine
        self._rows = rows
        self._engine = engine
        self._n = engine.n[row]
        self._two_n = 2.0 * self._n
        self._criterion = None if config.criterion == "none" else config.criterion
        self._observed = n_observed
        self._bind(row)
        self.lam = lam
        self.t = 0
        self.d = 0.0
        self.rss = engine.y2[row]  # ||P(Y0 - fit)||_F^2
        self.l2c = 0.0             # ||d u v^T||_F^2
        self._log = MoveLog(engine.p, engine.q)
        # The move since the last record, () if none, None when the loadings
        # were set otherwise (_enter, _zero_out, _refresh_exact, or by hand).
        self._support = self._pending = None

    def _bind(self, row):
        p = self._engine.p
        self._row = row
        self._duv = self._rows.duv[row]
        self.du = self._duv[:p]
        self.dv = self._duv[p:]

    @property
    def loss(self):
        return self.rss / self._two_n + self._rows.half_mu * self.l2c

    def _nonzeros(self):
        """Positions of the nonzeros of the stacked ``(du, dv)`` as a
        read-only int32 array, searched for only after it was dropped.

        A move that adds or drops an entry edits the index (:meth:`_toggle`);
        ``_enter``, ``_zero_out`` and ``_refresh_exact`` drop it.  A rescale
        keeps the support: it multiplies entries above ``SNAP_TOL`` by
        ``d_new / d_old`` with both sizes above ``SNAP_TOL``.
        """
        if self._support is None:
            self._support = self._duv.nonzero()[0].astype(np.int32)
            self._support.flags.writeable = False
        return self._support

    def _toggle(self, i):
        """Position ``i`` of ``(du, dv)`` entered or left the support: a kept
        index is replaced by a read-only copy with ``i`` added or removed."""
        sup = self._support
        if sup is not None:
            k = int(sup.searchsorted(i))
            drop = k < sup.size and sup.item(k) == i
            parts = (sup[:k], sup[k + 1:]) if drop else (sup[:k], [i], sup[k:])
            self._support = np.concatenate(parts, dtype=np.int32)
            self._support.flags.writeable = False

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
        self._support = self._pending = None
        exact = (self.rss, *engine.tracked(b, self))
        return max(_rel_gap(a, b) for a, b in zip(kept, exact))


def _record(state, move):
    engine = state._engine
    index = state._nonzeros()
    d, rss = state.d, state.rss
    df = index.size - 1 if d > 0 else 0
    crit = None
    if state._criterion is not None and rss > 0.0:
        crit = information_criterion(state._criterion, rss, df, engine.p, engine.q,
                                     state._observed)
    # A checkpoint unless one move changed the loadings since the last record.
    value = None if state._pending else state._duv.take(index)
    state._log.append(state._pending or None, index, value)
    state._pending = ()
    # Positional, in PathStep's field order: a step records one per row.
    return PathStep(state.t, state.lam, move, d, state.loss, crit, rss, df, state._log)


def _init_search(engine, b, eps, mu):
    """Best single-entry model of row ``b``'s response.

    Scans every (row, column) pair for the entry s*e_j e_k^T, |s| = eps,
    that minimizes the loss; returns indices, the signed step on the v side,
    the lambda level at which the move exactly pays for itself, and the
    entry's ``S`` and quadratic terms.

    The scan reads whole rows of ``S`` and ``x2h``, ``_SEARCH_BLOCK``
    entries or one row at a time, into two reused buffers, and keeps the
    first minimum; a NaN wins, as it does under ``np.argmin``.
    """
    G = engine.S[b]
    quad = engine.x2h[b]
    a = eps / (2.0 * engine.n[b])
    p, q = G.shape
    rows = max(1, _SEARCH_BLOCK // q)
    obj_buf, abs_buf = np.empty((2, min(rows, p), q))
    best, flat = math.inf, 0
    for r0 in range(0, p, rows):
        m = min(rows, p - r0)
        obj = np.multiply(a, quad[r0:r0 + m], out=obj_buf[:m])
        obj -= np.abs(G[r0:r0 + m], out=abs_buf[:m])
        i = int(obj.argmin())
        val = obj.item(i)
        if not val >= best:  # smaller, or NaN
            best, flat = val, r0 * q + i
            if math.isnan(val):
                break
    j, k = divmod(flat, q)
    lam0 = float(np.abs(G[j, k]) - a * quad[j, k] - 0.5 * mu * eps)
    s = eps if G[j, k] >= 0 else -eps
    return j, k, s, lam0, float(G[j, k]), float(quad[j, k])


def _enter(state, j, k, s, G_jk, quad_jk):
    """Move from the zero state to the single entry du[j] = eps, dv[k] = s."""
    eps = abs(s)
    state.du[j] = eps
    state.dv[k] = s
    state.d = eps
    state.l2c = eps ** 2
    state.rss = state.rss - 2.0 * s * state._n * G_jk + eps ** 2 * quad_jk
    state._support = state._pending = None
    state._engine.enter(state._row, j, k, s, eps)


def _start(problems, config):
    """Start one path per problem as the rows of one engine.

    Returns the paths' states and first records (see :func:`initialize_path`).
    """
    engine = _Engine(problems)
    rows = _Rows(engine, config)
    eps, xi = rows.eps, rows.xi
    steps = []
    for b, problem in enumerate(problems):
        if problem.n_observed == 0:
            raise ValueError("no observed entries in Y")
        j, k, s, lam0, G_jk, quad_jk = _init_search(engine, b, eps, rows.mu)
        if xi >= eps * max(lam0, 1.0):
            raise ValueError(
                f"xi={xi} is too large for epsilon={eps} at lam0={lam0}; "
                "every move would be rejected"
            )
        state = StagewiseState(rows, b, config, lam0, problem.n_observed)
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


def _execute(state, i, h, prices):
    """Apply ``(du, dv)[i] += h``, priced by ``prices``, and rescale the
    other side so that ``||du||_1 = ||dv||_1``; returns the exact loss change."""
    b = state._row
    engine = state._engine
    d_old = state.d
    old = state._duv.item(i)
    new = old + h
    if abs(new) <= SNAP_TOL:
        new = 0.0
    dsq = new * new - old * old
    c = engine.move(b, i, h, dsq, d_old)
    _, quad, c22 = prices
    d_rss = -2.0 * c + h * h * quad.item(b, i)
    d_l2 = dsq * c22.item(b, i)
    state._duv[i] = new
    if (old == 0.0) != (new == 0.0):
        state._toggle(i)
    delta = d_rss / state._two_n + state._rows.half_mu * d_l2
    d_new = d_old + abs(new) - abs(old)
    own, other = (state.du, state.dv) if i < engine.p else (state.dv, state.du)
    if d_new <= SNAP_TOL or (new == 0.0 and not own.any()):
        _zero_out(state)
        return delta
    r = d_new / d_old
    other *= r
    state._pending = (i, new, r) if state._pending == () else None
    engine.scale(b, i, r)
    state.d = d_new
    state.rss += d_rss
    state.l2c += d_l2
    return delta


def _zero_out(state):
    """Collapse to the exact zero state (both sides empty)."""
    state._duv[:] = 0.0
    state._support = state._pending = None
    state.d = 0.0
    state.l2c = 0.0
    state.rss = state._engine.rebuild(state._row, state.du, state.dv, 0.0)


def propose_backward(state):
    """Try the best shrinking move inside the active sets.

    Executes it and returns the recorded step when its loss increase stays
    below ``lam * eps - xi``; returns None otherwise (including when there is
    nothing active to shrink).  lambda never changes on a backward move.
    The candidates of every row of the state's engine are scanned at once.
    Every setting comes from the config the path was started with.
    """
    if state.d <= 0.0:
        return None
    rows = state._rows
    eps = rows.eps
    pr, shrinks = rows.backward(state.t)
    j, dl = shrinks[state._row]
    if not dl < state.lam * eps - rows.xi:
        return None
    _execute(state, j, -eps if state._duv.item(j) > 0 else eps, pr)
    state.t += 1
    return _record(state, MOVES_BACKWARD[j >= state._engine.p])


def propose_forward(state):
    """Execute the best growing move over all coordinates of both sides.

    The side whose move yields the smaller post-move loss wins (du on ties).
    Afterwards lambda is updated to ``min(lam, (loss_drop - xi) / eps)``.
    From the all-zero state the search runs over single (j, k) entry pairs,
    exactly like initialization.  The scores of every row of the state's
    engine are computed at once; the settings are as for
    :func:`propose_backward`.
    """
    rows = state._rows
    eps, xi = rows.eps, rows.xi
    b = state._row
    if state.d <= 0.0:
        j, k, s, lam_val, G_jk, quad_jk = _init_search(state._engine, b, eps, rows.mu)
        _enter(state, j, k, s, G_jk, quad_jk)
        state.lam = min(state.lam, (eps * lam_val - xi) / eps)
        state.t += 1
        return _record(state, MOVES_FORWARD[0])
    pr, inner, js, ks = rows.forward(state.t)
    _, quad, c22 = pr
    p = state._engine.p
    j = js[b]
    k = p + ks[b]
    inner_u = inner.item(b, j)
    inner_v = inner.item(b, k)
    a = rows.a[b]
    c = rows.c
    dl_u = -eps * abs(inner_u) + a * quad.item(b, j) + c * c22.item(b, j)
    dl_v = -eps * abs(inner_v) + a * quad.item(b, k) + c * c22.item(b, k)
    i, x = (j, inner_u) if dl_u <= dl_v + FORWARD_TIE_TOL else (k, inner_v)
    delta_loss = _execute(state, i, eps if x >= 0 else -eps, pr)
    state.lam = min(state.lam, (-delta_loss - xi) / eps)
    state.t += 1
    return _record(state, MOVES_FORWARD[i >= p])


def _run_rows(problems, config):
    """The paths of ``problems`` (one engine kind, same p and q) in lockstep."""
    states, first = _start(problems, config)
    rows = states[0]._rows
    paths = []
    live = []
    for state, step0 in zip(states, first):
        path = StagewisePath(steps=[step0], config=config)
        paths.append(path)
        if state.lam <= 0.0:
            path.terminated_by = "lambda_nonpositive"
            continue
        stop = None if config.criterion == "none" else EarlyStop(EARLY_STOP_WINDOW)
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
            step = propose_backward(state)
            if step is None:
                step = propose_forward(state)
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


def _column_major(problem):
    """``problem`` with the column-major X that :class:`_Engine` works on."""
    X = np.asfortranarray(problem.X)
    return problem if X is problem.X else replace(problem, X=X)


def run_paths(problems, config=None):
    """Trace the paths of several problems in lockstep; see the module docstring.

    Problems of one engine kind (masked or not) and the same p and q run as
    the rows of one engine, so each step prices all of them at once; every
    path equals the one :func:`run_path` traces for its problem alone.
    Returns one :class:`StagewisePath` per problem, in order.

    Each problem is held, from the moment it is drawn from ``problems``,
    with its X in the engine's column-major layout, so a caller that builds
    its problems as they are drawn keeps one copy of each design.
    """
    config = config or StagewiseConfig()
    problems = [_column_major(pb) for pb in problems]
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


def select_on_path(path):
    """Return the recorded step minimizing the criterion the path ran with.

    That criterion also early-stopped the path, so the step is picked from
    the path it recorded, by :class:`~curereg.tuning.EarlyStop`; a perfect
    fit counts as minus infinity.  A path run with criterion "none" has
    nothing to select on.
    """
    if not path.steps:
        raise ValueError("empty path")
    if path.config is not None and path.config.criterion == "none":
        raise ValueError("cannot select with criterion 'none'")
    scan = EarlyStop(math.inf)
    for step in path.steps:
        value = step.criterion_value
        scan.update(-math.inf if value is None and step.rss <= 0.0 else value)
    if scan.best is None:
        raise ValueError("no step has a usable criterion value")
    return path.steps[scan.best]

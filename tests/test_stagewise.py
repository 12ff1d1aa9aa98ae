import math

import numpy as np
import pytest

from curereg.core import (
    NormMode,
    ProblemData,
    UnitRankFactor,
    eval_loss,
    eval_penalty,
    residual,
)
from curereg.stagewise import (
    RECOMPUTE_EVERY,
    PathStep,
    StagewiseConfig,
    StagewisePath,
    _Prices,
    initialize_path,
    propose_backward,
    propose_forward,
    run_path,
    select_on_path,
)
from curereg.tuning import CriterionInput, EarlyStop, information_criterion


def rank1_problem(rng, n, p, q, noise=0.3, mask_frac=0.0):
    X = rng.standard_normal((n, p))
    u = np.zeros(p)
    u[: max(2, p // 2)] = rng.standard_normal(max(2, p // 2))
    v = rng.standard_normal(q)
    Y = X @ np.outer(u, v) + noise * rng.standard_normal((n, q))
    mask = None
    if mask_frac > 0:
        mask = rng.uniform(size=(n, q)) > mask_frac
        mask[0, :] = True
    return ProblemData(X, Y, mask)


def product_loss(prob, left, right, denom, mu):
    """Loss of the rank-one coefficient matrix outer(left, right) / denom.

    This is the oracle's only entry point into the objective: everything is
    re-evaluated from scratch through eval_loss, never through the solver's
    own bookkeeping.
    """
    if denom <= 0.0 or not np.any(left) or not np.any(right):
        return eval_loss(prob, UnitRankFactor.zero(prob.p, prob.q), mu)
    return eval_loss(
        prob, UnitRankFactor(1.0 / denom, left, right, NormMode.RAW), mu
    )


def snap(x):
    return 0.0 if abs(x) <= 1e-12 else x


def backward_deltas(prob, du, dv, d, eps, mu, base):
    """Loss change of every eligible shrink move, via direct re-evaluation."""
    out = {}
    for j in np.nonzero(du)[0]:
        if abs(du[j]) >= eps - 1e-12:
            du2 = du.copy()
            du2[j] = snap(du[j] - eps * np.sign(du[j]))
            out[("u", int(j))] = product_loss(prob, du2, dv, d, mu) - base
    for k in np.nonzero(dv)[0]:
        if abs(dv[k]) >= eps - 1e-12:
            dv2 = dv.copy()
            dv2[k] = snap(dv[k] - eps * np.sign(dv[k]))
            out[("v", int(k))] = product_loss(prob, du, dv2, d, mu) - base
    return out


def forward_deltas(prob, du, dv, d, eps, mu, base):
    """Loss change of every growing move (both signs), via re-evaluation."""
    out = {}
    for j in range(prob.p):
        for s in (eps, -eps):
            du2 = du.copy()
            du2[j] = snap(du[j] + s)
            out[("u", j, s)] = product_loss(prob, du2, dv, d, mu) - base
    for k in range(prob.q):
        for h in (eps, -eps):
            dv2 = dv.copy()
            dv2[k] = snap(dv[k] + h)
            out[("v", k, h)] = product_loss(prob, du, dv2, d, mu) - base
    return out


def drive_and_check(prob, cfg, max_moves):
    """Run the path move by move, validating each step against the oracle.

    Before every move the full candidate sets of both proposal kinds are
    scored by re-evaluating eval_loss on the perturbed factor.  The executed
    move must (a) match the brute-force winner up to ties, (b) satisfy the
    acceptance rule it claims, and (c) leave the recorded loss, penalty, rss
    and the d-consistency invariant exact.
    """
    eps, mu, xi = cfg.epsilon, cfg.mu, cfg.xi_resolved
    state, step0 = initialize_path(prob, cfg)
    steps = [step0]
    for _ in range(max_moves):
        if state.lam <= 0.0:
            break
        du, dv = state.du.copy(), state.dv.copy()
        d, lam = state.d, state.lam
        base = product_loss(prob, du, dv, d, mu)
        assert state.loss == pytest.approx(base, abs=1e-10)

        step = propose_backward(state, cfg)
        back = backward_deltas(prob, du, dv, d, eps, mu, base)
        if step is not None:
            assert step.move in ("backward_u", "backward_v")
            if step.move == "backward_u":
                moved = ("u", int(np.argmax(np.abs(state.du - du))))
            else:
                moved = ("v", int(np.argmax(np.abs(state.dv - dv))))
            got = step.loss - base
            best = min(back.values())
            assert back[moved] == pytest.approx(got, abs=1e-9)
            assert got <= best + 1e-9
            assert got < lam * eps - xi + 1e-9
            # lambda frozen, penalty down by exactly lam * eps
            assert step.lam == lam
            assert (lam * d) - step.penalty == pytest.approx(
                lam * eps, abs=1e-9
            )
        else:
            if back:
                assert min(back.values()) >= lam * eps - xi - 1e-9
            step = propose_forward(state, cfg)
            fwd = forward_deltas(prob, du, dv, d, eps, mu, base)
            got = step.loss - base
            assert got <= min(fwd.values()) + 1e-9
            assert step.lam == pytest.approx(
                min(lam, (-got - xi) / eps), abs=1e-8
            )
        steps.append(step)

        # recorded-state identities after every executed move
        fac = step.factor
        assert step.loss == pytest.approx(eval_loss(prob, fac, mu), abs=1e-10)
        if step.lam >= 0:
            assert step.penalty == pytest.approx(
                eval_penalty(fac, step.lam), abs=1e-10
            )
        if not fac.is_zero:
            assert abs(np.abs(fac.u).sum() - 1.0) <= 1e-9
            assert abs(np.abs(fac.v).sum() - 1.0) <= 1e-9
        R = residual(prob, fac)
        assert step.rss == pytest.approx(float(np.vdot(R, R)), abs=1e-8)
        assert abs(np.abs(state.du).sum() - np.abs(state.dv).sum()) <= 1e-9
    return steps


def check_descent_and_lambda(steps, cfg):
    xi = cfg.xi_resolved
    lams = [s.lam for s in steps]
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
    for prev, cur in zip(steps, steps[1:]):
        if cur.lam < 0:
            continue
        q_prev = prev.loss + cur.lam * prev.factor.d
        q_cur = cur.loss + cur.lam * cur.factor.d
        assert q_cur <= q_prev - xi + 1e-9
        if cur.move.startswith("backward"):
            assert cur.lam == prev.lam


# ---------------------------------------------------------------------------
# initialization


def test_init_zero_response_terminates_immediately():
    rng = np.random.default_rng(0)
    prob = ProblemData(rng.standard_normal((6, 4)), np.zeros((6, 3)))
    path = run_path(prob, StagewiseConfig())
    assert len(path) == 1
    assert path.terminated_by == "lambda_nonpositive"
    assert path.steps[0].lam <= 0
    assert path.steps[0].factor.is_zero


def test_init_symmetry_forced_winner():
    # two orthogonal columns of equal norm, response along the first
    X = math.sqrt(2.0) * np.eye(2)
    Y = np.array([[2.0], [0.0]])
    cfg = StagewiseConfig(epsilon=1.0, mu=0.0, criterion="none")
    state, step = initialize_path(ProblemData(X, Y), cfg)
    assert np.flatnonzero(state.du).tolist() == [0]
    assert np.flatnonzero(state.dv).tolist() == [0]
    np.testing.assert_allclose(state.du, [1.0, 0.0])
    np.testing.assert_allclose(state.dv, [1.0])
    assert state.dv[0] > 0  # sign follows x_1' y > 0
    # lam0 = |G_jk| - (eps / 2n) ||x_j||^2 - mu eps / 2, G = X'Y / n
    assert step.lam == pytest.approx(math.sqrt(2.0) - 0.5, abs=1e-14)


def test_init_matches_exhaustive_single_entry_scan():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3))
    Y = rng.standard_normal((4, 2))
    prob = ProblemData(X, Y)
    cfg = StagewiseConfig(epsilon=0.7, mu=1e-3)
    state, step = initialize_path(prob, cfg)
    base = product_loss(prob, np.zeros(3), np.zeros(2), 0.0, cfg.mu)
    best = None
    for j in range(3):
        for k in range(2):
            for s in (cfg.epsilon, -cfg.epsilon):
                du = np.zeros(3)
                du[j] = cfg.epsilon
                dv = np.zeros(2)
                dv[k] = s
                val = product_loss(prob, du, dv, cfg.epsilon, cfg.mu)
                if best is None or val < best[0]:
                    best = (val, j, k, s)
    val, j, k, s = best
    assert np.flatnonzero(state.du).tolist() == [j]
    assert np.flatnonzero(state.dv).tolist() == [k]
    assert state.dv[k] == pytest.approx(s)
    assert step.loss == pytest.approx(val, abs=1e-12)
    # lam0 is the per-unit loss drop of that best entry
    assert step.lam == pytest.approx((base - val) / cfg.epsilon, abs=1e-10)


def test_init_rejects_fully_masked_response():
    X = np.eye(3)
    Y = np.full((3, 2), np.nan)
    prob = ProblemData(X, Y, np.zeros((3, 2), dtype=bool))
    with pytest.raises(ValueError, match="no observed entries"):
        initialize_path(prob, StagewiseConfig())


def test_init_rejects_oversized_xi():
    rng = np.random.default_rng(2)
    prob = rank1_problem(rng, 8, 4, 3)
    with pytest.raises(ValueError, match="xi"):
        initialize_path(prob, StagewiseConfig(epsilon=1.0, xi=50.0))


# ---------------------------------------------------------------------------
# backward proposals


def test_backward_refused_right_after_init():
    # removing the only active entry raises the loss by exactly lam0 * eps,
    # which never beats lam0 * eps - xi
    rng = np.random.default_rng(3)
    prob = rank1_problem(rng, 10, 5, 4)
    cfg = StagewiseConfig(epsilon=0.5)
    state, _ = initialize_path(prob, cfg)
    assert state.lam > 0
    assert propose_backward(state, cfg) is None


def test_backward_penalty_decrement_identity():
    # a two-step-tall single coordinate on a one-response problem: shrinking
    # it must cost the penalty exactly lam * eps while lam stays put
    X = np.array([[1.0, 0.3], [-0.5, 1.2], [0.8, -0.7]])
    Y = 0.4 * X[:, :1]
    prob = ProblemData(X, Y)
    cfg = StagewiseConfig(epsilon=1.0, mu=0.0)
    state, _ = initialize_path(prob, cfg)
    state.du[:] = [2.0, 0.0]
    state.dv[:] = [2.0]
    state._refresh_exact()
    state.lam = 5.0  # high enough that the shrink is accepted
    pre_penalty = state.lam * state.d
    step = propose_backward(state, cfg)
    assert step is not None
    assert step.move == "backward_u"
    assert step.lam == 5.0
    assert pre_penalty - step.penalty == pytest.approx(5.0 * 1.0, abs=1e-10)
    np.testing.assert_allclose(state.du, [1.0, 0.0])
    np.testing.assert_allclose(state.dv, [1.0])


def test_backward_choice_matches_candidate_oracle():
    # exercised in bulk by drive_and_check; this pins one mid-size instance
    # where backward moves are known to fire
    rng = np.random.default_rng(4)
    prob = rank1_problem(rng, 14, 6, 5, noise=0.5)
    cfg = StagewiseConfig(epsilon=0.2, mu=1e-3, criterion="none")
    steps = drive_and_check(prob, cfg, max_moves=140)
    moves = {s.move for s in steps}
    assert moves & {"backward_u", "backward_v"}


# ---------------------------------------------------------------------------
# forward proposals


def test_forward_on_perfect_fit_sends_lambda_negative():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    u = np.array([2.0, 0.0])
    v = np.array([1.0])
    prob = ProblemData(X, np.outer(X @ u, v))
    cfg = StagewiseConfig(epsilon=1.0, mu=0.0)
    state, _ = initialize_path(prob, cfg)
    state.du[:] = u
    state.dv[:] = 2.0 * v
    state._refresh_exact()
    assert state.rss == pytest.approx(0.0, abs=1e-20)
    state.lam = 1e-3  # small enough that no shrink is acceptable
    assert propose_backward(state, cfg) is None
    step = propose_forward(state, cfg)
    assert step.lam < 0


def test_first_forward_step_matches_exhaustive_scan():
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(SimSpec(model="I", n=40, p=40, q=40, seed=11))
    prob = ProblemData(truth.X, truth.Y)
    cfg = StagewiseConfig(epsilon=0.5)
    state, _ = initialize_path(prob, cfg)
    du, dv, d = state.du.copy(), state.dv.copy(), state.d
    base = product_loss(prob, du, dv, d, cfg.mu)
    assert propose_backward(state, cfg) is None
    step = propose_forward(state, cfg)
    fwd = forward_deltas(prob, du, dv, d, cfg.epsilon, cfg.mu, base)
    got = step.loss - base
    assert got <= min(fwd.values()) + 1e-9


def test_forward_closed_form_equals_reevaluated_loss_change():
    rng = np.random.default_rng(5)
    prob = rank1_problem(rng, 9, 4, 3, noise=0.8)
    cfg = StagewiseConfig(epsilon=0.3, mu=5e-3)
    state, step0 = initialize_path(prob, cfg)
    prev = step0.loss
    for _ in range(12):
        du, dv, d = state.du.copy(), state.dv.copy(), state.d
        step = propose_backward(state, cfg)
        if step is None:
            step = propose_forward(state, cfg)
        want = eval_loss(prob, step.factor, cfg.mu)
        assert step.loss - prev == pytest.approx(want - prev, abs=1e-10)
        prev = step.loss
        if state.lam <= 0:
            break


# ---------------------------------------------------------------------------
# full path runs


def test_lockstep_oracle_unmasked():
    rng = np.random.default_rng(6)
    prob = rank1_problem(rng, 12, 5, 4, noise=0.4)
    cfg = StagewiseConfig(epsilon=0.25, mu=1e-3, criterion="none")
    steps = drive_and_check(prob, cfg, max_moves=160)
    assert len(steps) > 12
    assert steps[0].move == "init"
    assert all(s.t == i for i, s in enumerate(steps))
    check_descent_and_lambda(steps, cfg)


def test_lockstep_oracle_masked():
    rng = np.random.default_rng(7)
    prob = rank1_problem(rng, 12, 5, 4, noise=0.4, mask_frac=0.25)
    assert prob.mask is not None
    cfg = StagewiseConfig(epsilon=0.25, mu=1e-3, criterion="none")
    steps = drive_and_check(prob, cfg, max_moves=120)
    assert len(steps) > 10
    check_descent_and_lambda(steps, cfg)


def test_run_path_invariants_default_config():
    rng = np.random.default_rng(8)
    prob = rank1_problem(rng, 20, 8, 6, noise=0.6)
    cfg = StagewiseConfig(epsilon=0.2)
    path = run_path(prob, cfg)
    assert path.terminated_by in ("lambda_nonpositive", "max_steps", "early_stop")
    check_descent_and_lambda(path.steps, cfg)
    # strict lambda drops happen on forward moves and nowhere else
    lams = [s.lam for s in path.steps]
    drops = [
        i for i in range(1, len(path)) if lams[i] < lams[i - 1]
    ]
    fwd_drops = [
        i
        for i in range(1, len(path))
        if path.steps[i].move.startswith("forward") and lams[i] < lams[i - 1]
    ]
    assert drops == fwd_drops
    for i in drops:
        assert path.steps[i].move in ("forward_u", "forward_v")
    # recorded criterion values agree with a recompute from rss / df
    for s in path.steps:
        if s.criterion_value is not None:
            want = information_criterion(
                "gic", CriterionInput(s.rss, prob.n, prob.p, prob.q, s.df)
            )
            assert s.criterion_value == pytest.approx(want, rel=1e-12)


def test_run_path_agrees_with_acs_at_matched_lambda():
    from curereg.baselines import AcsConfig, acs_cure
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(SimSpec(model="I", n=40, p=40, q=40, seed=11))
    prob = ProblemData(truth.X, truth.Y)
    cfg = StagewiseConfig(epsilon=0.1)
    chosen = select_on_path(run_path(prob, cfg))
    assert chosen.lam > 0
    exact = acs_cure(prob, chosen.lam, config=AcsConfig(mu=cfg.mu))
    gap = np.linalg.norm(chosen.factor.to_matrix() - exact.to_matrix())
    assert gap <= 0.15 * np.linalg.norm(exact.to_matrix())


def test_run_path_max_steps_termination():
    rng = np.random.default_rng(9)
    prob = rank1_problem(rng, 15, 6, 5, noise=0.2)
    cfg = StagewiseConfig(epsilon=0.05, max_steps=5, criterion="none")
    path = run_path(prob, cfg)
    assert path.terminated_by == "max_steps"
    assert len(path) == 6  # init record plus five moves


def test_run_path_early_stop_on_noise():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((20, 15))
    Y = rng.standard_normal((20, 12))
    cfg = StagewiseConfig(epsilon=0.1, early_stop_window=10)
    path = run_path(ProblemData(X, Y), cfg)
    assert path.terminated_by == "early_stop"
    assert len(path) < cfg.max_steps
    stop = EarlyStop(cfg.early_stop_window)
    stalled = [stop.update(s.criterion_value) for s in path.steps]
    assert stalled[-1] is True
    assert not any(stalled[:-1])


def test_all_true_mask_runs_identically():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((10, 6))
    Y = rng.standard_normal((10, 4))
    cfg = StagewiseConfig(epsilon=0.3, criterion="none", max_steps=60)
    a = run_path(ProblemData(X, Y), cfg)
    b = run_path(ProblemData(X, Y, np.ones((10, 4), dtype=bool)), cfg)
    assert [s.move for s in a.steps] == [s.move for s in b.steps]
    assert [s.lam for s in a.steps] == [s.lam for s in b.steps]
    assert [s.loss for s in a.steps] == [s.loss for s in b.steps]


# ---------------------------------------------------------------------------
# selection along the path


def test_select_single_step_path():
    rng = np.random.default_rng(13)
    prob = ProblemData(rng.standard_normal((5, 3)), np.zeros((5, 2)))
    path = run_path(prob, StagewiseConfig())
    assert select_on_path(path, "gic") is path.steps[0]


def make_step(t, value, rss=1.0, df=1):
    return PathStep(
        t=t,
        lam=1.0,
        move="forward_u",
        d=0.0,
        index=np.zeros(0, dtype=np.int32),
        value=np.zeros(0),
        p=2,
        q=2,
        loss=0.5,
        penalty=0.1,
        criterion_value=value,
        rss=rss,
        df=df,
    )


def test_select_convex_sequence_picks_middle():
    cfg = StagewiseConfig(criterion="gic")
    path = StagewisePath(
        steps=[make_step(0, 10.0), make_step(1, 5.0), make_step(2, 7.0)],
        config=cfg,
        n=20,
        p=4,
        q=3,
    )
    assert select_on_path(path).t == 1


def test_select_tie_goes_to_earliest():
    cfg = StagewiseConfig(criterion="gic")
    path = StagewisePath(
        steps=[make_step(0, 5.0), make_step(1, 5.0), make_step(2, 9.0)],
        config=cfg,
        n=20,
        p=4,
        q=3,
    )
    assert select_on_path(path).t == 0


def test_select_recomputes_other_criteria_from_rss():
    rng = np.random.default_rng(14)
    prob = rank1_problem(rng, 16, 6, 5, noise=0.5)
    path = run_path(prob, StagewiseConfig(epsilon=0.2, criterion="gic"))
    got = select_on_path(path, "bic")
    vals = []
    for s in path.steps:
        if not np.isfinite(s.rss) or s.rss <= 0:
            vals.append(np.inf)
            continue
        vals.append(
            information_criterion(
                "bic", CriterionInput(s.rss, prob.n, prob.p, prob.q, s.df)
            )
        )
    assert got is path.steps[int(np.argmin(vals))]


def test_select_perfect_fit_wins():
    cfg = StagewiseConfig(criterion="gic")
    steps = [make_step(0, 5.0), make_step(1, None, rss=0.0, df=3)]
    path = StagewisePath(steps=steps, config=cfg, n=20, p=4, q=3)
    assert select_on_path(path).t == 1


def test_select_rejects_none_criterion_and_empty_path():
    cfg = StagewiseConfig(criterion="none")
    path = StagewisePath(steps=[make_step(0, None)], config=cfg, n=5, p=2, q=2)
    with pytest.raises(ValueError):
        select_on_path(path)
    with pytest.raises(ValueError):
        select_on_path(StagewisePath(steps=[], config=cfg, n=5, p=2, q=2))


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1.0},
        {"xi": -1e-9},
        {"mu": -0.1},
        {"max_steps": 0},
        {"early_stop_window": 0},
        {"criterion": "mdl"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        StagewiseConfig(**kwargs)


def test_config_default_tolerance_scales_with_step():
    assert StagewiseConfig(epsilon=0.5).xi_resolved == pytest.approx(2.5e-7)
    assert StagewiseConfig(epsilon=0.5, xi=1e-9).xi_resolved == 1e-9


# ---------------------------------------------------------------------------
# the engine: unmasked and masked forms, and the residual oracle


def with_all_true_mask(prob):
    """The same problem with an explicit all-true mask.

    ProblemData normalizes such a mask away; setting it afterwards keeps it,
    so the path prices its steps with the engine's mask terms instead of
    their unmasked closed forms.
    """
    masked = ProblemData(prob.X, prob.Y)
    object.__setattr__(masked, "mask", np.ones(prob.Y.shape, dtype=bool))
    return masked


@pytest.mark.parametrize(
    "spec_kwargs, eps",
    [
        (dict(n=60, p=100, q=60, seed=100), 0.1),  # instance A
        (dict(n=200, p=500, q=200, seed=1), 0.05),  # instance B
    ],
    ids=["A", "B"],
)
def test_engines_take_the_same_moves(spec_kwargs, eps):
    # The unmasked and masked forms price the same moves in different
    # arithmetic; a move may only differ on a near-tie below FORWARD_TIE_TOL,
    # and none occurs here.
    from curereg.core import column_normalize
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(
        SimSpec(model="II", r_star=3, snr=1.0, rho=0.3, **spec_kwargs)
    )
    prob = ProblemData(column_normalize(truth.X)[0], truth.Y)
    masked = with_all_true_mask(prob)
    cfg = StagewiseConfig(epsilon=eps, criterion="none", max_steps=2000)
    assert initialize_path(prob, cfg)[0]._engine.H is None
    assert initialize_path(masked, cfg)[0]._engine.H is not None
    a = run_path(prob, cfg)
    b = run_path(masked, cfg)
    assert len(a) == len(b) == 2001
    for sa, sb in zip(a.steps, b.steps):
        assert sa.move == sb.move, f"engines diverge at step {sa.t}"
        np.testing.assert_array_equal(sa.index, sb.index)
        np.testing.assert_array_equal(sa.value, sb.value)
        assert sa.d == sb.d
        assert sa.lam == pytest.approx(sb.lam, rel=1e-9)
        assert sa.loss == pytest.approx(sb.loss, rel=1e-9)


class ResidualOracle:
    """Reference masked engine: keeps each row's projected residual ``E = P(Y0 - w v^T)``.

    It serves the interface of ``stagewise._Engine`` but prices every step
    from the n x q residual with O(n(p + q)) matrix-vector products, and
    rewrites all of ``E`` on a u move.  Only tests use it.
    """

    def __init__(self, problems):
        self.p, self.q = problems[0].p, problems[0].q
        self.X = [np.asfortranarray(pb.X) for pb in problems]
        self.Y0 = [pb.observed_response() for pb in problems]
        self.n = [pb.n for pb in problems]
        self.S = [X.T @ Y0 / n for X, Y0, n in zip(self.X, self.Y0, self.n)]
        self.y2 = [float(np.vdot(Y0, Y0)) for Y0 in self.Y0]
        self.observed = [pb.n_observed for pb in problems]
        self.Hf = [pb.mask.astype(float) for pb in problems]
        self.X2 = [np.asfortranarray(X * X) for X in self.X]
        # (p, q): column norms over observed rows
        self.x2h = [X2.T @ Hf for X2, Hf in zip(self.X2, self.Hf)]
        self.E = [Y0.copy() for Y0 in self.Y0]
        self.w = [np.zeros(n) for n in self.n]
        self.v = [None] * len(problems)
        self.Ev = [None] * len(problems)

    def keep(self, rows):
        for name, old in list(vars(self).items()):
            if isinstance(old, list):
                setattr(self, name, [old[b] for b in rows])

    def enter(self, b, j, k, s, eps):
        self.E[b][:, k] -= s * self.X[b][:, j] * self.Hf[b][:, k]
        self.w[b] = eps * self.X[b][:, j]

    def price(self, duv, d):
        p, q = self.p, self.q
        v22s, u22s, g, quad, c22 = [], [], [], [], []
        for b, (row, db) in enumerate(zip(duv, d)):
            X, E, Hf, w, n = self.X[b], self.E[b], self.Hf[b], self.w[b], self.n[b]
            du, dv = row[:p], row[p:]
            # a move always follows the pricing of its own step
            self.v[b] = v = dv / db
            self.Ev[b] = E @ v
            v22 = float(dv @ dv) / db ** 2
            u22 = float(du @ du) / db ** 2
            gu = (X.T @ self.Ev[b]) / n
            Ew = (E.T @ w) / (n * db)
            quad_u = self.X2[b].T @ (Hf @ (v * v))
            quad_v = ((w * w) @ Hf) / db ** 2
            v22s.append(v22)
            u22s.append(u22)
            g.append(np.concatenate((gu, Ew)))
            quad.append(np.concatenate((quad_u, quad_v)))
            c22.append(np.concatenate((np.full(p, v22), np.full(q, u22))))
        return _Prices(v22s, u22s, np.array(g), np.array(quad), np.array(c22))

    def move_u(self, b, j, s, pr):
        xj = self.X[b][:, j]
        xe = float(xj @ self.Ev[b])
        self.E[b] -= s * (xj[:, None] * self.Hf[b]) * self.v[b][None, :]
        self.w[b] = self.w[b] + s * xj
        return xe

    def move_v(self, b, k, h, dsq, d_old, pr):
        we = float(self.w[b] @ self.E[b][:, k])
        self.E[b][:, k] -= (h / d_old) * self.w[b] * self.Hf[b][:, k]
        return we

    def scale_du(self, b, r):
        self.w[b] *= r

    def scale_dv(self, b, r):
        pass

    def rebuild(self, b, du, dv, d):
        if d <= 0.0:
            self.w[b] = np.zeros(self.n[b])
            self.E[b] = self.Y0[b].copy()
        else:
            self.w[b] = self.X[b] @ du
            fit = np.outer(self.w[b], dv) / d
            fit *= self.Hf[b]
            self.E[b] = self.Y0[b] - fit
        return float(np.vdot(self.E[b], self.E[b]))

    def tracked(self, b, state):
        return ()


@pytest.mark.parametrize("seed, mask_seed", [(1878216440, 3561458197)])
def test_masked_engine_takes_the_oracles_moves(monkeypatch, seed, mask_seed):
    # Instance M of the masked_cv benchmark workload, set 0 of seed 1: model
    # II, n=120, p=200, q=100, r*=2, 20% of Y missing, X column-normalized.
    # Covariance form and the residual oracle price the same moves in
    # different arithmetic; a move may only differ on a near-tie below
    # FORWARD_TIE_TOL, and none occurs in these 1,733 steps (lambda reaches
    # zero before the 2,000-step cap).
    from curereg import stagewise
    from curereg.core import column_normalize
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(
        SimSpec(model="II", n=120, p=200, q=100, r_star=2, snr=1.0, rho=0.3, seed=seed)
    )
    mask = np.random.default_rng(mask_seed).random(truth.Y.shape) >= 0.2
    prob = ProblemData(column_normalize(truth.X)[0], truth.Y, mask)
    cfg = StagewiseConfig(epsilon=0.2, criterion="none", max_steps=2000)
    a = run_path(prob, cfg)
    monkeypatch.setattr(stagewise, "_Engine", ResidualOracle)
    b = run_path(prob, cfg)
    assert a.terminated_by == b.terminated_by == "lambda_nonpositive"
    assert len(a) == len(b) > 1500
    for sa, sb in zip(a.steps, b.steps):
        assert sa.move == sb.move, f"engine and oracle diverge at step {sa.t}"
        np.testing.assert_array_equal(sa.index, sb.index)
        np.testing.assert_array_equal(sa.value, sb.value)
        assert sa.d == sb.d
        assert sa.lam == pytest.approx(sb.lam, rel=1e-9)
        assert sa.loss == pytest.approx(sb.loss, rel=1e-9)


@pytest.mark.parametrize("masked", [False, True], ids=["covariance", "residual"])
def test_bookkeeping_drift_is_measured_and_small(masked):
    # 3,500 steps cross three rebuilds; each compares the maintained rss and
    # both gradients, in u and in v, with the rebuilt values.
    rng = np.random.default_rng(20)
    X = rng.standard_normal((30, 12))
    Y = X[:, :3] @ rng.standard_normal((3, 8)) + rng.standard_normal((30, 8))
    mask = rng.random((30, 8)) > 0.2 if masked else None
    cfg = StagewiseConfig(epsilon=0.005, criterion="none", max_steps=3500)
    path = run_path(ProblemData(X, Y, mask), cfg)
    assert len(path) - 1 >= 3 * RECOMPUTE_EVERY
    assert 0.0 < path.max_drift <= 1e-9


def test_recorded_steps_are_sparse_and_detached():
    import gc
    import weakref

    rng = np.random.default_rng(21)
    prob = rank1_problem(rng, 20, 30, 25, noise=0.5)
    cfg = StagewiseConfig(epsilon=0.2, criterion="none", max_steps=150)
    state, step = initialize_path(prob, cfg)
    steps = [step]
    while state.t < cfg.max_steps and state.lam > 0:
        steps.append(propose_backward(state, cfg) or propose_forward(state, cfg))
        full = np.concatenate([state.du, state.dv])
        np.testing.assert_array_equal(steps[-1].index, np.flatnonzero(full))
        np.testing.assert_array_equal(steps[-1].value, full[full != 0])
        fac = steps[-1].factor
        np.testing.assert_array_equal(fac.u, state.du / state.d)
        np.testing.assert_array_equal(fac.v, state.dv / state.d)
    engine = weakref.ref(state._engine)
    del state
    gc.collect()
    assert engine() is None
    assert len(steps) > 50

import math

import numpy as np
import pytest

from curereg import stagewise, tuning
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
    MoveLog,
    PathStep,
    StagewiseConfig,
    StagewisePath,
    initialize_path,
    propose_backward,
    propose_forward,
    run_path,
    select_on_path,
)
from curereg.tuning import EarlyStop, GridScan, fold_indices, information_criterion


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

        step = propose_backward(state)
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
            step = propose_forward(state)
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


def test_zero_response_with_too_few_entries_for_gic_runs():
    # N = 2 < 3 would make gic raise, but a zero response fits perfectly at
    # the start, so no step carries a criterion value and nothing raises
    prob = ProblemData(np.array([[1.0, 0.5], [-0.3, 2.0]]), np.zeros((2, 1)))
    path = run_path(prob, StagewiseConfig(criterion="gic"))
    assert len(path) == 1 and path.steps[0].criterion_value is None
    assert path.steps[0].rss == 0.0


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
    assert propose_backward(state) is None


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
    step = propose_backward(state)
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
    assert propose_backward(state) is None
    step = propose_forward(state)
    assert step.lam < 0


def test_first_forward_step_matches_exhaustive_scan():
    from curereg.simgen import SimSpec, gen_dataset

    truth = gen_dataset(SimSpec(model="I", n=40, p=40, q=40, seed=11))
    prob = ProblemData(truth.X, truth.Y)
    cfg = StagewiseConfig(epsilon=0.5)
    state, _ = initialize_path(prob, cfg)
    du, dv, d = state.du.copy(), state.dv.copy(), state.d
    base = product_loss(prob, du, dv, d, cfg.mu)
    assert propose_backward(state) is None
    step = propose_forward(state)
    fwd = forward_deltas(prob, du, dv, d, cfg.epsilon, cfg.mu, base)
    got = step.loss - base
    assert got <= min(fwd.values()) + 1e-9


@pytest.mark.parametrize("mask_frac", [0.0, 0.3], ids=["unmasked", "masked"])
def test_forward_closed_form_equals_reevaluated_loss_change(mask_frac):
    # Each move's exact loss change, on both engine kinds and both sides.
    rng = np.random.default_rng(5)
    prob = rank1_problem(rng, 9, 4, 3, noise=0.8, mask_frac=mask_frac)
    assert (prob.mask is not None) == (mask_frac > 0)
    cfg = StagewiseConfig(epsilon=0.3, mu=5e-3)
    state, step0 = initialize_path(prob, cfg)
    prev = step0.loss
    sides = set()
    for _ in range(12):
        step = propose_backward(state)
        if step is None:
            step = propose_forward(state)
        want = eval_loss(prob, step.factor, cfg.mu)
        assert step.loss - prev == pytest.approx(want - prev, abs=1e-10)
        prev = step.loss
        sides.add(step.move[-1])
        if state.lam <= 0:
            break
    assert sides == {"u", "v"}


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
            want = information_criterion("gic", s.rss, s.df, prob.p, prob.q, prob.n * prob.q)
            assert s.criterion_value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mask_frac", [0.0, 0.25], ids=["unmasked", "masked"])
def test_recorded_criterion_is_the_public_one_bit_for_bit(mask_frac):
    rng = np.random.default_rng(15)
    prob = rank1_problem(rng, 18, 7, 6, noise=0.6, mask_frac=mask_frac)
    path = run_path(prob, StagewiseConfig(epsilon=0.1, criterion="gic", max_steps=400))
    assert len(path) > 50
    for s in path.steps:
        assert s.rss > 0.0
        want = information_criterion("gic", s.rss, s.df, prob.p, prob.q, prob.n_observed)
        assert s.criterion_value == want


def test_each_recorded_criterion_is_one_counted_call(monkeypatch):
    # The benchmark counts stagewise.ic_calls through the module attribute
    # stagewise.information_criterion: every step that records a criterion
    # value must make exactly one call through it, with that step's rss and
    # df, or the count would drift from the steps silently.
    seen = []
    orig = stagewise.information_criterion

    def counted(kind, rss, df, p, q, n_observed):
        seen.append((kind, rss, df, n_observed))
        return orig(kind, rss, df, p, q, n_observed)

    monkeypatch.setattr(stagewise, "information_criterion", counted)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((3, 4))
    # a zero response starts at rss = 0, where no criterion is defined
    problems = [ProblemData(X, np.zeros((3, 2))), ProblemData(X, rng.standard_normal((3, 2)))]
    for kind in ("gic", "bic", "none"):
        seen.clear()
        cfg = StagewiseConfig(epsilon=0.2, criterion=kind, max_steps=200)
        paths = stagewise.run_paths(problems, cfg)
        steps = [s for path in paths for s in path.steps]
        recorded = [(kind, s.rss, s.df, 6) for s in steps if s.criterion_value is not None]
        assert sorted(seen) == sorted(recorded)
        want = 0 if kind == "none" else sum(s.rss > 0.0 for s in steps)
        assert len(seen) == want
        assert (want > 10) == (kind != "none")


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


def test_run_path_early_stop_on_noise(monkeypatch):
    rng = np.random.default_rng(10)
    X = rng.standard_normal((20, 15))
    Y = rng.standard_normal((20, 12))
    monkeypatch.setattr(stagewise, "EARLY_STOP_WINDOW", 10)
    cfg = StagewiseConfig(epsilon=0.1)
    path = run_path(ProblemData(X, Y), cfg)
    assert path.terminated_by == "early_stop"
    assert len(path) < cfg.max_steps
    stop = EarlyStop(stagewise.EARLY_STOP_WINDOW)
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
    assert select_on_path(path) is path.steps[0]


def make_step(t, value, rss=1.0, df=1):
    return PathStep(
        t=t,
        lam=1.0,
        move="forward_u",
        d=0.0,
        loss=0.5,
        criterion_value=value,
        rss=rss,
        df=df,
        _log=MoveLog(2, 2),
    )


def test_select_convex_sequence_picks_middle():
    cfg = StagewiseConfig(criterion="gic")
    path = StagewisePath(
        steps=[make_step(0, 10.0), make_step(1, 5.0), make_step(2, 7.0)],
        config=cfg,
    )
    assert select_on_path(path).t == 1


def test_select_tie_goes_to_earliest():
    cfg = StagewiseConfig(criterion="gic")
    path = StagewisePath(
        steps=[make_step(0, 5.0), make_step(1, 5.0), make_step(2, 9.0)],
        config=cfg,
    )
    assert select_on_path(path).t == 0


def test_select_perfect_fit_wins():
    cfg = StagewiseConfig(criterion="gic")
    steps = [make_step(0, 5.0), make_step(1, None, rss=0.0, df=3)]
    path = StagewisePath(steps=steps, config=cfg)
    assert select_on_path(path).t == 1


PERFECT = "perfect fit"


@pytest.mark.parametrize("values, want", [
    ([3.0, 2.0, 2.0, 4.0], 1),  # a tie goes to the earliest
    ([3.0, PERFECT, 1.0, PERFECT], 1),
    ([None, 4.0, None, 3.0], 3),
    ([math.nan, 5.0, 6.0], 1),
    ([math.nan, None, 2.0, math.nan, 2.0], 2),
    ([math.inf, math.inf, 7.0], 2),
    ([math.inf, math.nan], 0),
])
def test_grid_scan_and_select_on_path_pick_alike(monkeypatch, values, want):
    # GridScan scores level i as values[i] (an rss of 0 for a perfect fit);
    # the path records the same values as its steps' criteria.
    monkeypatch.setattr(tuning, "information_criterion", lambda kind, rss, df, *_: values[df])
    scan = GridScan(ProblemData(np.ones((4, 2)), np.ones((4, 3))), "gic")
    for i, value in enumerate(values):
        scan.update(0.0 if value is PERFECT else 1.0, i)
    steps = [make_step(i, None, rss=0.0) if value is PERFECT else make_step(i, value)
             for i, value in enumerate(values)]
    path = StagewisePath(steps=steps, config=StagewiseConfig(criterion="gic"))
    assert scan.best == select_on_path(path).t == want


def test_select_rejects_none_criterion_and_empty_path():
    cfg = StagewiseConfig(criterion="none")
    path = StagewisePath(steps=[make_step(0, None)], config=cfg)
    with pytest.raises(ValueError):
        select_on_path(path)
    with pytest.raises(ValueError):
        select_on_path(StagewisePath(steps=[], config=cfg))


@pytest.mark.parametrize("values", [[None, None], [math.nan]])
def test_select_rejects_a_path_with_nothing_to_pick(values):
    path = StagewisePath(steps=[make_step(i, v) for i, v in enumerate(values)],
                         config=StagewiseConfig(criterion="gic"))
    with pytest.raises(ValueError, match="no step has a usable criterion value"):
        select_on_path(path)


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
        {"criterion": "mdl"},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"xi": math.nan},
        {"xi": math.inf},
        {"mu": math.nan},
        {"mu": math.inf},
        {"epsilon": 1e-12},
        {"epsilon": 1e-13},
        {"epsilon": 1e-200},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        StagewiseConfig(**kwargs)


def test_config_rejects_an_epsilon_whose_square_overflows():
    top = math.sqrt(np.finfo(float).max)
    assert StagewiseConfig(epsilon=top, xi=0.0).epsilon == top
    with pytest.raises(ValueError, match="its square overflows"):
        StagewiseConfig(epsilon=math.nextafter(top, math.inf), xi=0.0)


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
        g, quad, c22 = [], [], []
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
            g.append(np.concatenate((gu, Ew)))
            quad.append(np.concatenate((quad_u, quad_v)))
            c22.append(np.concatenate((np.full(p, v22), np.full(q, u22))))
        return tuple(np.array((g, quad, c22)))

    def move(self, b, i, h, dsq, d_old):
        k = i - self.p
        if k >= 0:
            we = float(self.w[b] @ self.E[b][:, k])
            self.E[b][:, k] -= (h / d_old) * self.w[b] * self.Hf[b][:, k]
            return (h / d_old) * we
        xj = self.X[b][:, i]
        xe = float(xj @ self.Ev[b])
        self.E[b] -= h * (xj[:, None] * self.Hf[b]) * self.v[b][None, :]
        self.w[b] = self.w[b] + h * xj
        return h * xe

    def scale(self, b, i, r):
        if i >= self.p:
            self.w[b] *= r

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


class KeptY0Engine(stagewise._Engine):
    """The masked engine as it was when each row kept a copy of its observed
    response ``Y0`` for :meth:`rebuild`, which is that version's, verbatim."""

    def __init__(self, problems):
        super().__init__(problems)
        self.Y0 = [pb.observed_response() for pb in problems]
        self._fields[0].append("Y0")

    def rebuild(self, b, du, dv, d):
        if d <= 0.0:
            self._clear(b)
            return self.y2[b]
        X, S, n = self.X[b], self.S[b], self.n[b]
        w = X @ du
        self.Sdv[b] = S @ dv
        self.Stdu[b] = S.T @ du
        fit = np.outer(w, dv / d)
        H = self.H[b]
        self.w[b] = w
        self.hdv2[b] = H @ (dv * dv)
        self.qdv2[b] = self.x2h[b] @ (dv * dv)
        self.ww[b] = H.T @ (w * w) / n
        fit *= H
        E = self.Y0[b] - fit
        return float(np.vdot(E, E))


def test_masked_rows_rebuild_as_with_a_kept_y0(monkeypatch):
    # Five masked training folds in lockstep cross two rebuilds, beside a
    # zero response that stops at its start (so the rows are re-kept).
    rng = np.random.default_rng(20)
    X = rng.standard_normal((30, 12))
    Y = X[:, :3] @ rng.standard_normal((3, 8)) + rng.standard_normal((30, 8))
    mask = rng.random((30, 8)) > 0.2
    problems = [ProblemData(X, np.zeros((30, 8)), mask)]
    for test in fold_indices(30, 5, 3):
        train = np.setdiff1d(np.arange(30), test)
        problems.append(ProblemData(X[train], Y[train], mask[train]))
    cfg = StagewiseConfig(epsilon=0.005, criterion="none", max_steps=2 * RECOMPUTE_EVERY + 5)

    def records(paths):
        return [([(s.t, s.lam, s.move, s.d, s.index.tobytes(), s.value.tobytes(), s.loss,
                   s.rss, s.df, s.criterion_value) for s in path.steps],
                 path.max_drift, path.terminated_by) for path in paths]

    got = records(stagewise.run_paths(problems, cfg))
    monkeypatch.setattr(stagewise, "_Engine", KeptY0Engine)
    assert got == records(stagewise.run_paths(problems, cfg))
    assert [len(steps) for steps, _, _ in got] == [1] + [cfg.max_steps + 1] * 5
    assert all(drift > 0.0 for _, drift, _ in got[1:])


def test_recorded_steps_are_sparse_and_detached():
    import gc
    import weakref

    rng = np.random.default_rng(21)
    prob = rank1_problem(rng, 20, 30, 25, noise=0.5)
    cfg = StagewiseConfig(epsilon=0.2, criterion="none", max_steps=150)
    state, step = initialize_path(prob, cfg)
    steps = [step]
    while state.t < cfg.max_steps and state.lam > 0:
        steps.append(propose_backward(state) or propose_forward(state))
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


# ---------------------------------------------------------------------------
# memory: the blocked first search and the move log


def one_shot_search(engine, b, eps, mu):
    """The first search over the whole p x q objective at once: the
    reference the blocked scan must reproduce exactly."""
    G = engine.S[b]
    quad = engine.x2h[b]
    n = engine.n[b]
    obj = (eps / (2.0 * n)) * quad - np.abs(G)
    flat = int(np.argmin(obj))
    j, k = np.unravel_index(flat, G.shape)
    lam0 = float(np.abs(G[j, k]) - (eps / (2.0 * n)) * quad[j, k] - 0.5 * mu * eps)
    s = eps if G[j, k] >= 0 else -eps
    return int(j), int(k), s, lam0, float(G[j, k]), float(quad[j, k])


def search_problem(p, q, tie_row=None, masked=False, seed=30):
    """A random problem; with ``tie_row`` the X columns ``tie_row - 1`` and
    ``tie_row`` are equal and long, and response 2 follows them, so the best
    entry ties between rows ``tie_row - 1`` and ``tie_row``."""
    rng = np.random.default_rng(seed)
    n = 8
    X = rng.standard_normal((n, p))
    Y = rng.standard_normal((n, q))
    if tie_row is not None:
        X[:, tie_row - 1] = X[:, tie_row] = 4.0 * X[:, tie_row]
        Y[:, 2] += X[:, tie_row]
    mask = None
    if masked:
        mask = rng.random((n, q)) > 0.2
        mask[0] = True
    return ProblemData(X, Y, mask)


ENGINES = {
    "unmasked": (False, lambda pb: stagewise._Engine([pb])),
    "masked": (True, lambda pb: stagewise._Engine([pb])),
    "oracle": (True, lambda pb: ResidualOracle([pb])),
}


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("case", ["wide_rows", "one_block", "tie", "nan"])
def test_blocked_first_search_equals_the_one_shot_scan(kind, case):
    block = stagewise._SEARCH_BLOCK
    masked, make = ENGINES[kind]
    if case == "wide_rows":  # a row of S is longer than a block
        prob = search_problem(3, block + 7, masked=masked)
    elif case == "one_block":
        prob = search_problem(20, 30, masked=masked)
    else:  # block // q rows per block; the last of block 0 ties with the first of block 1
        q = 500
        prob = search_problem(2 * block // q + 1, q, tie_row=block // q, masked=masked)
    engine = make(prob)
    eps, mu = 0.05, 1e-3
    want = one_shot_search(engine, 0, eps, mu)
    if case == "tie":
        r = block // q
        for a in (engine.S[0], engine.x2h[0]):
            assert a[r - 1, 2] == a[r, 2]
        assert want[:2] == (r - 1, 2)
    if case == "nan":  # a NaN in the last block beats the finite minimum before it
        engine.S[0][-1, 3] = np.nan
        want = one_shot_search(engine, 0, eps, mu)
        assert want[:2] == (prob.p - 1, 3)
    np.testing.assert_equal(stagewise._init_search(engine, 0, eps, mu), want)


def test_first_search_memory_is_bounded():
    # The one-shot scan of a 1000 x 1000 S holds two 8 MB temporaries.
    import tracemalloc

    engine = stagewise._Engine([search_problem(1000, 1000)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stagewise._init_search(engine, 0, 0.05, 1e-4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def recorder_oracle(monkeypatch):
    """Make every record also snapshot its state's loadings, as the recorder
    kept them before the move log: the support index and ``_duv.take`` of
    it.  Returns the list of ``(step, index, value)`` it fills."""
    record = stagewise._record
    seen = []

    def snapshot(state, move):
        step = record(state, move)
        index = state._nonzeros()
        seen.append((step, index.copy(), state._duv.take(index)))
        return step

    monkeypatch.setattr(stagewise, "_record", snapshot)
    return seen


def assert_replayed(seen, rng, sample=None):
    """Every step rebuilds its snapshot bit for bit: first straight from its
    log in a random order (``sample`` steps of it), then as ``step.index``
    and ``step.value`` in ascending order."""
    def same(got, index, value):
        assert got[0].dtype == np.int32 and got[1].dtype == np.float64
        assert got[0].tobytes() == index.tobytes() and got[1].tobytes() == value.tobytes()

    order = rng.permutation(len(seen))[:sample]
    for k in order:
        step, index, value = seen[k]
        same(step._log.loadings(step.t), index, value)
    for step, index, value in seen:
        same((step.index, step.value), index, value)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_a_lone_path_replays_past_two_rebuilds(monkeypatch, masked):
    seen = recorder_oracle(monkeypatch)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 12))
    Y = X[:, :3] @ rng.standard_normal((3, 8)) + rng.standard_normal((30, 8))
    mask = rng.random((30, 8)) > 0.2 if masked else None
    steps = 2 * RECOMPUTE_EVERY + 300
    path = run_path(ProblemData(X, Y, mask),
                    StagewiseConfig(epsilon=0.005, criterion="none", max_steps=steps))
    assert len(path) == len(seen) == steps + 1
    # Step 0 and the first steps after the two rebuilds are checkpoints.
    assert {0, RECOMPUTE_EVERY + 1, 2 * RECOMPUTE_EVERY + 1} <= set(path.steps[0]._log.marks)
    assert_replayed(seen, rng, sample=300)


def test_rows_that_restart_from_zero_replay(monkeypatch):
    # The problems of test_rows_that_stop_early_or_restart_from_zero in
    # tests/test_run_paths.py: rows 0 and 2 keep collapsing to the zero
    # state and entering again.
    seen = recorder_oracle(monkeypatch)
    rng = np.random.default_rng(28)
    n, p, q = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
    X = rng.standard_normal((n, p)) * rng.choice([0.1, 1, 10], size=p)
    Y = rng.standard_normal((n, q))
    rng.random()
    mask = rng.random((n, q)) > 0.3
    other = np.random.default_rng(77)
    problems = [ProblemData(X, Y, mask)] + [
        ProblemData(other.standard_normal((6, 3)), other.standard_normal((6, 1)),
                    other.random((6, 1)) > 0.3)
        for _ in range(3)
    ]
    problems.append(ProblemData(X, np.zeros((4, 1)), mask))
    monkeypatch.setattr(stagewise, "EARLY_STOP_WINDOW", 30)
    cfg = StagewiseConfig(epsilon=0.5, mu=0.0, xi=0.0, criterion="aic",
                          max_steps=150)
    paths = stagewise.run_paths(problems, cfg)
    assert sum(s.d == 0.0 for s in paths[0].steps[1:-1]) > 5
    assert len(seen) == sum(len(path) for path in paths)
    assert_replayed(seen, rng)


def test_the_rows_of_one_call_replay(monkeypatch):
    seen = recorder_oracle(monkeypatch)
    rng = np.random.default_rng(32)
    problems = [rank1_problem(rng, n, 60, 30, mask_frac=0.2) for n in (30, 40, 50)]
    cfg = StagewiseConfig(epsilon=0.05, criterion="gic", max_steps=1200)
    paths = stagewise.run_paths(problems, cfg)
    assert len(seen) == sum(len(path) for path in paths) > 3 * RECOMPUTE_EVERY
    assert len({id(path.steps[0]._log) for path in paths}) == 3
    assert_replayed(seen, rng, sample=300)


def test_a_state_edited_by_hand_replays(monkeypatch):
    seen = recorder_oracle(monkeypatch)
    rng = np.random.default_rng(16)
    prob = rank1_problem(rng, 12, 6, 5, noise=0.5)
    state, _ = initialize_path(prob, StagewiseConfig(epsilon=0.25, criterion="none"))
    for _ in range(20):
        propose_backward(state) or propose_forward(state)
    state.du[:] = [1.0, 0.0, 0.5, 0.0, 0.0, 1.5]
    state.dv[:] = [0.0, 1.0, 0.0, 2.0, 0.5]
    state._refresh_exact()
    for _ in range(20):
        propose_backward(state) or propose_forward(state)
    assert len(seen) == 41
    assert 21 in seen[0][0]._log.marks  # the first record after the edit
    np.testing.assert_array_equal(seen[21][1], [0, 2, 5, 7, 9, 10])
    assert_replayed(seen, rng)


def test_moves_that_add_or_drop_an_entry_edit_the_kept_index():
    # Backward moves rarely land an entry on exactly zero along a path, so
    # each edit of the kept index is driven here by hand: drops and adds on
    # both sides, at the first and the last position of (du, dv).
    rng = np.random.default_rng(16)
    prob = rank1_problem(rng, 12, 6, 5, noise=0.5)
    state, _ = initialize_path(prob, StagewiseConfig(epsilon=0.5, criterion="none"))
    state.du[:] = [1.0, 0.0, 0.5, 0.0, 0.0, 1.5]
    state.dv[:] = [0.0, 1.0, 0.0, 2.0, 0.5]
    state._refresh_exact()
    p = prob.p
    for side, i, grow in [("u", 2, False), ("v", 0, True), ("u", 4, True), ("u", 0, False),
                          ("v", 4, False), ("v", 2, True), ("v", 4, True), ("u", 0, True)]:
        before = state._nonzeros()
        kept = before.copy()
        pr = state._rows.prices(state.t)
        at = i if side == "u" else p + i
        stagewise._execute(state, at, 0.25 if grow else -state._duv.item(at), pr)
        state.t += 1
        got = state._nonzeros()
        np.testing.assert_array_equal(got, np.flatnonzero(state._duv))
        assert (at in got.tolist()) == grow
        assert got is not before and got.dtype == np.int32 and not got.flags.writeable
        np.testing.assert_array_equal(before, kept)


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_retained_bytes_per_step_do_not_grow_with_df(masked):
    # Both paths run 900 steps on the same X; a dense unit-rank response
    # spreads the loadings over 300 and more coordinates, a sparse one keeps
    # three.  Records that copied their loadings would hold about 2,250
    # against 430 bytes a step here.  The masked case hides a tenth of the
    # cells of both responses; its dense path needs a longer step to reach
    # 300 coordinates within the 900 steps.
    import gc
    import tracemalloc

    rng = np.random.default_rng(34)
    n, p, q = 100, 300, 300
    X = rng.standard_normal((n, p))
    dense = np.outer(X @ rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], q))
    sparse = np.outer(X[:, 0] + X[:, 1], np.r_[1.0, -1.0, np.zeros(q - 2)])
    sparse += 0.01 * rng.standard_normal((n, q))
    mask = rng.random((n, q)) > 0.1 if masked else None
    held = {}
    for name, Y, eps in [("dense", dense, 16.0 if masked else 2.0),
                         ("sparse", sparse, 0.002)]:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            path = run_path(ProblemData(X, Y, mask),
                            StagewiseConfig(epsilon=eps, criterion="none", max_steps=900))
            held[name] = (tracemalloc.get_traced_memory()[0] - base) / len(path)
        finally:
            tracemalloc.stop()
        assert len(path) == 901
        df = max(step.df for step in path.steps)
        assert df >= 300 if name == "dense" else df <= 5
    assert held["dense"] <= 1.25 * held["sparse"]


def test_reading_a_path_never_grows_it():
    # The dense unmasked draw of test_retained_bytes_per_step_do_not_grow_with_df:
    # records that kept their loadings once read would grow by about 2.6 kB
    # a step here.
    import gc
    import tracemalloc

    rng = np.random.default_rng(34)
    n, p, q = 100, 300, 300
    X = rng.standard_normal((n, p))
    Y = np.outer(X @ rng.choice([-1.0, 1.0], p), rng.choice([-1.0, 1.0], q))
    path = run_path(ProblemData(X, Y),
                    StagewiseConfig(epsilon=2.0, criterion="none", max_steps=900))
    assert len(path) == 901 and max(step.df for step in path.steps) >= 300
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in path.steps:
            step.index, step.value, step.factor
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # What stays is the interpreter's free lists, about 1 kB in all.
    assert grown < 4096

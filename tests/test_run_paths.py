"""``run_paths`` traces several paths in lockstep on one engine.

Every path it returns must equal, field for field and bit for bit, the path
``run_path`` traces for the same problem on its own.  The reference here is
a plain loop of ``run_path`` calls.
"""

import json

import numpy as np
import pytest

from curereg import deflation, stagewise
from curereg.cli import main
from curereg.core import ProblemData, column_normalize
from curereg.io import write_matrix_csv
from curereg.simgen import SimSpec, gen_dataset
from curereg.stagewise import RECOMPUTE_EVERY, StagewiseConfig, run_path, run_paths
from curereg.tuning import fold_indices


def fields(path):
    """Everything a path records, with arrays as bytes so == is bitwise."""
    steps = [
        (s.t, s.lam, s.move, s.d, s.index.dtype.str, s.index.tobytes(),
         s.value.tobytes(), s.loss, s.rss, s.df, s.criterion_value)
        for s in path.steps
    ]
    return steps, path.max_drift, path.terminated_by


def reference(problems, cfg):
    return [run_path(pb, cfg) for pb in problems]


def assert_same_paths(problems, cfg):
    got = run_paths(problems, cfg)
    want = reference(problems, cfg)
    assert len(got) == len(want) == len(problems)
    for i, (a, b) in enumerate(zip(got, want)):
        assert fields(a) == fields(b), f"path {i} differs"
    return got


def training_folds(X, Y, mask=None, folds=5, seed=0):
    out = []
    for test in fold_indices(X.shape[0], folds, seed):
        train = np.setdiff1d(np.arange(X.shape[0]), test)
        out.append(ProblemData(X[train], Y[train], None if mask is None else mask[train]))
    return out


def model_two(n, p, q, seed, r_star=2):
    truth = gen_dataset(SimSpec(model="II", n=n, p=p, q=q, r_star=r_star,
                                snr=1.0, rho=0.3, seed=seed))
    return column_normalize(truth.X)[0], truth.Y


def test_masked_training_folds_of_instance_m():
    # Instance M of the masked_cv workload (set 0 of seed 1), as its
    # cross-validation runs it: five masked training folds, criterion none.
    X, Y = model_two(120, 200, 100, 1878216440)
    mask = np.random.default_rng(3561458197).random(Y.shape) >= 0.2
    folds = training_folds(X, Y, mask, seed=1)
    assert all(pb.mask is not None for pb in folds)
    paths = assert_same_paths(folds, StagewiseConfig(epsilon=0.2, criterion="none",
                                                     max_steps=500))
    assert {p.terminated_by for p in paths} == {"max_steps"}


def test_unmasked_training_folds_of_a_normalized_draw():
    X, Y = model_two(60, 100, 60, 100, r_star=3)
    folds = training_folds(X, Y)
    assert all(pb.mask is None for pb in folds)
    assert_same_paths(folds, StagewiseConfig(epsilon=0.1, criterion="none", max_steps=800))


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_unequal_fold_sizes(masked):
    X, Y = model_two(23, 12, 9, 4)
    mask = np.random.default_rng(5).random(Y.shape) >= 0.15 if masked else None
    folds = training_folds(X, Y, mask)
    assert sorted({pb.n for pb in folds}) == [18, 19]
    assert_same_paths(folds, StagewiseConfig(epsilon=0.1, mu=1e-3, criterion="bic"))


def test_a_fold_with_an_all_true_mask_runs_unmasked_among_masked_folds():
    X, Y = model_two(30, 10, 8, 6)
    test_rows = fold_indices(30, 5, 0)
    mask = np.ones(Y.shape, dtype=bool)
    mask[test_rows[2], :3] = False
    # Only the training fold that holds these rows out sees every cell.
    folds = training_folds(X, np.where(mask, Y, np.nan), mask)
    assert [pb.mask is None for pb in folds] == [f == 2 for f in range(5)]
    assert_same_paths(folds, StagewiseConfig(epsilon=0.1, criterion="gic"))


def test_rows_that_stop_early_or_restart_from_zero(monkeypatch):
    # With xi = 0, rows 0 and 2 keep collapsing to the zero state and
    # entering again while the others go on; row 1 ends on lambda <= 0
    # after a few steps, rows 3 and 4 (a zero response) at their start.
    rng = np.random.default_rng(28)
    n, p, q = rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 4)
    X = rng.standard_normal((n, p)) * rng.choice([0.1, 1, 10], size=p)
    Y = rng.standard_normal((n, q))
    rng.random()
    mask = rng.random((n, q)) > 0.3
    assert (n, p, q) == (4, 3, 1) and not mask.all()
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
    paths = assert_same_paths(problems, cfg)
    restarts = [sum(s.d == 0.0 for s in p.steps[1:-1]) for p in paths]
    assert restarts[0] > 5 and restarts[2] > 5 and restarts[1] == restarts[3] == 0
    assert len(paths[-1]) == 1 and paths[-1].terminated_by == "lambda_nonpositive"
    assert len({len(p) for p in paths}) >= 3


def test_gic_early_stop_per_row(monkeypatch):
    X, Y = model_two(120, 200, 100, 1878216440)
    mask = np.random.default_rng(3561458197).random(Y.shape) >= 0.2
    folds = training_folds(X, Y, mask, seed=2)
    monkeypatch.setattr(stagewise, "EARLY_STOP_WINDOW", 40)
    paths = assert_same_paths(folds, StagewiseConfig(epsilon=0.2, criterion="gic"))
    assert {p.terminated_by for p in paths} == {"early_stop"}
    assert len({len(p) for p in paths}) > 1


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_rows_run_past_the_periodic_rebuild(masked):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 12))
    Y = X[:, :3] @ rng.standard_normal((3, 8)) + rng.standard_normal((30, 8))
    mask = rng.random((30, 8)) > 0.2 if masked else None
    problems = [ProblemData(X[rows], Y[rows], None if mask is None else mask[rows])
                for rows in (slice(None), slice(0, 25), slice(3, None))]
    steps = 2 * RECOMPUTE_EVERY + 600
    paths = assert_same_paths(
        problems, StagewiseConfig(epsilon=0.005, criterion="none", max_steps=steps))
    assert all(len(p) == steps + 1 and p.max_drift > 0.0 for p in paths)


def test_problems_of_different_kinds_and_shapes_keep_their_order():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 5))
    Y = X[:, :2] @ rng.standard_normal((2, 4)) + rng.standard_normal((20, 4))
    mask = rng.random((20, 4)) > 0.2
    problems = [
        ProblemData(X, Y, mask),
        ProblemData(X, Y),
        ProblemData(X[:, :3], Y),
        ProblemData(X[:15], Y[:15], mask[:15]),
    ]
    assert_same_paths(problems, StagewiseConfig(epsilon=0.2, criterion="gic"))
    assert run_paths([], StagewiseConfig()) == []


def _cv_fit(tmp_path, name, masked):
    truth = gen_dataset(SimSpec(model="II", n=40, p=12, q=8, r_star=2, snr=2.0, seed=3))
    Y = truth.Y
    mask = None
    if masked:
        mask = np.random.default_rng(4).random(Y.shape) >= 0.2
    write_matrix_csv(tmp_path / "X.csv", truth.X)
    write_matrix_csv(tmp_path / "Y.csv", Y, mask=mask)
    out = tmp_path / name
    argv = ["fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
            "--method", "seqstl", "--rank", "2", "--epsilon", "0.2",
            "--criterion", "cv", "--max-steps", "300", "--out-dir", out]
    assert main([str(a) for a in argv]) == 0
    return (out / "model.json").read_bytes()


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_cv_fit_is_byte_identical_with_one_path_at_a_time(tmp_path, monkeypatch, masked):
    batched = _cv_fit(tmp_path, "batched", masked)
    monkeypatch.setattr(deflation, "run_paths", reference)
    looped = _cv_fit(tmp_path, "looped", masked)
    assert batched == looped
    assert json.loads(batched)["rank"] >= 1

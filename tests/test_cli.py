import argparse
import ast
import concurrent.futures
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curereg.cli as cli
from curereg import baselines, deflation, tuning
from curereg.cli import _benchmark_workers, fit_method, main, score_model
from curereg.core import (
    FactorModel,
    ProblemData,
    UnitRankFactor,
    column_normalize,
    residual,
)
from curereg.io import load_factor_model, read_matrix_csv, read_path_jsonl, write_matrix_csv
from curereg.metrics import EvalReport
from curereg.simgen import SimSpec, gen_dataset
from curereg.stagewise import StagewiseConfig, run_path


def run(*argv):
    return main([str(a) for a in argv])


def fit_opts(**overrides):
    """The fit command's default options, as ``fit_method`` takes them."""
    return {**cli._DEFAULTS["fit"], **overrides}


def simulate_into(tmp_path, **overrides):
    args = {
        "model": "II", "n": 20, "p": 10, "q": 8, "r-star": 2,
        "snr": 5.0, "seed": 3, "out-dir": tmp_path,
    }
    args.update(overrides)
    argv = ["simulate"]
    for key, val in args.items():
        argv += [f"--{key}", val]
    assert run(*argv) == 0
    return tmp_path / "X.csv", tmp_path / "Y.csv", tmp_path / "truth.json"


# ---------------------------------------------------------------------------
# pipeline smoke


def test_simulate_fit_eval_pipeline(tmp_path):
    # p > 16 and q > 25 so the fixed unit-rank truth has genuine zero rows
    x, y, truth = simulate_into(tmp_path / "sim", model="I", n=30, p=20, q=30,
                                **{"r-star": 1})
    for artifact in (x, y, truth):
        assert artifact.exists()

    fit_dir = tmp_path / "fit"
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--truth", truth, "--out-dir", fit_dir) == 0
    model, doc = load_factor_model(fit_dir / "model.json")
    assert doc["method"] == "rrr"
    assert model.rank == 1

    header, row = (fit_dir / "report.csv").read_text().splitlines()
    assert header.split(",")[0] == "er_c"
    er_c = float(row.split(",")[0])
    assert np.isfinite(er_c) and er_c >= 0.0
    assert (fit_dir / "timing.csv").read_text().startswith("stage,seconds\nfit,")

    eval_dir = tmp_path / "eval"
    assert run("eval", "--model-json", fit_dir / "model.json", "--truth", truth,
               "--x", x, "--out-dir", eval_dir) == 0
    assert (eval_dir / "report.csv").read_bytes() == (fit_dir / "report.csv").read_bytes()


def _timing_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "stage,seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert all(float(sec) >= 0.0 for _, sec in rows)
    return [name for name, _ in rows]


def test_timing_csv_has_a_row_per_stage(tmp_path):
    x, y, _ = simulate_into(tmp_path / "sim")
    assert run("fit", "--x", x, "--y", y, "--method", "seqstl", "--rank", 1,
               "--max-steps", 50, "--out-dir", tmp_path / "fit") == 0
    assert _timing_rows(tmp_path / "fit" / "timing.csv") == [
        "fit", "read_x", "read_y", "write"]
    assert run("paths", "--x", x, "--y", y, "--max-steps", 50,
               "--out-dir", tmp_path / "paths") == 0
    assert _timing_rows(tmp_path / "paths" / "timing.csv") == [
        "read_x", "read_y", "path", "write"]


def test_fit_zero_response_writes_zero_model(tmp_path):
    rng = np.random.default_rng(0)
    write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((10, 4)))
    write_matrix_csv(tmp_path / "Y.csv", np.zeros((10, 3)))
    with pytest.warns(RuntimeWarning, match="zero"):
        code = run("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--method", "seqstl", "--rank", 2, "--out-dir", tmp_path)
    assert code == 0
    model, _ = load_factor_model(tmp_path / "model.json")
    assert model.rank == 0
    row = (tmp_path / "report.csv").read_text().splitlines()[1]
    assert row == "NA,NA,NA,NA,0,0,0,0"


def test_a_zero_model_report_scores_the_truth(tmp_path):
    # On Y x 1e-3 the first epsilon step cannot lower the loss, so seqstl
    # returns rank 0; its report still scores the truth.
    x, y, truth = simulate_into(tmp_path / "sim", n=60, p=20, q=15, snr=1.0, seed=1)
    Y, _ = read_matrix_csv(y)
    write_matrix_csv(tmp_path / "Ys.csv", Y * 1e-3)
    with pytest.warns(RuntimeWarning, match="zero"):
        assert run("fit", "--x", x, "--y", tmp_path / "Ys.csv", "--method", "seqstl",
                   "--rank", 2, "--epsilon", 0.2, "--truth", truth,
                   "--out-dir", tmp_path / "fit") == 0
    model, _ = load_factor_model(tmp_path / "fit" / "model.json")
    assert model.rank == 0
    header, row = (tmp_path / "fit" / "report.csv").read_text().splitlines()
    report = dict(zip(header.split(","), row.split(",")))
    C_star = load_factor_model(truth)[0].to_matrix()
    assert float(report["er_c"]) == pytest.approx(np.mean(C_star ** 2), rel=0, abs=1e-12)
    assert (report["fpr"], report["fnr"]) == ("0", "1")
    assert [report[k] for k in ("u_l0", "u_l20", "v_l0", "v_l20")] == ["0"] * 4


def test_fit_lasso_and_parallel_methods(tmp_path):
    x, y, truth = simulate_into(tmp_path)
    for method, extra in (
        ("lasso", []),
        ("parstl_l", ["--rank", "1", "--epsilon", "0.5", "--max-steps", "300"]),
    ):
        out = tmp_path / method
        assert run("fit", "--x", x, "--y", y, "--method", method,
                   "--truth", truth, "--out-dir", out, *extra) == 0
        _, doc = load_factor_model(out / "model.json")
        assert doc["method"] == method


@pytest.mark.parametrize("method", ["parstl_r", "paracs_r", "rrr"])
def test_rank_deficient_tall_x_falls_back_to_the_default_ridge(tmp_path, method):
    # n > p, so the reduced-rank fits try ridge 0 first; an all-zero column
    # makes X^T X singular, and the RRR pilot and the rrr baseline then warn
    # and use default_rrr_ridge instead of exiting.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 8))
    Y = X @ rng.standard_normal((8, 6)) + 0.1 * rng.standard_normal((20, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        B = baselines._ridge_ols(X, Y)  # a full-rank X keeps the zero ridge
    np.testing.assert_allclose(B, np.linalg.lstsq(X, Y, rcond=None)[0], atol=1e-12)
    X[:, 3] = 0.0
    write_matrix_csv(tmp_path / "X.csv", X)
    write_matrix_csv(tmp_path / "Y.csv", Y)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        code = run("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--method", method, "--rank", 2, "--out-dir", tmp_path)
    assert code == 0
    model, _ = load_factor_model(tmp_path / "model.json")
    assert model.rank == 2
    C = model.to_matrix()
    assert np.all(np.isfinite(C)) and not np.any(C[3])


def test_rrr_rank_cv_survives_a_singular_training_fold(tmp_path):
    # X has full column rank, but column 3 is nonzero on row 5 only, so one
    # training fold of the rank CV has a singular X^T X at ridge 0.
    sim = tmp_path / "sim"
    x, y, _ = simulate_into(sim, n=20, p=8, q=6, seed=1)
    X, _ = read_matrix_csv(x)
    X[:, 3] = 0.0
    X[5, 3] = 1.0
    write_matrix_csv(sim / "X3.csv", X)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        code = run("fit", "--x", sim / "X3.csv", "--y", y, "--method", "rrr",
                   "--out-dir", tmp_path / "fit")
    assert code == 0
    model, _ = load_factor_model(tmp_path / "fit" / "model.json")
    assert np.all(np.isfinite(model.to_matrix(shape=(8, 6))))


def test_rrr_rank_cv_fits_training_folds_shorter_than_p(tmp_path):
    # The full X has n > p and takes ridge 0, but each 40-row training fold
    # has fewer rows than p = 45 and takes the default ridge.
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "II", "--n", 50, "--p", 45, "--q", 10,
               "--seed", 1, "--out-dir", sim) == 0
    assert run("fit", "--x", sim / "X.csv", "--y", sim / "Y.csv", "--method", "rrr",
               "--out-dir", tmp_path / "fit") == 0
    model, _ = load_factor_model(tmp_path / "fit" / "model.json")
    assert np.all(np.isfinite(model.to_matrix(shape=(45, 10))))


def test_fit_defaults_are_filled_at_import():
    code = ("from curereg import cli; from curereg.simgen import SimSpec, gen_dataset; "
            "t = gen_dataset(SimSpec(model='II', n=20, p=10, q=8, r_star=2, seed=3)); "
            "m = cli.fit_method(t.X, t.Y, None, 'seqstl', "
            "{**cli._DEFAULTS['fit'], 'rank': 2}); print(m.rank)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


RANK_METHODS = [m for m in cli.METHODS if m != "lasso"]


@pytest.mark.parametrize("method", RANK_METHODS)
def test_rank_above_min_p_q_is_rejected_by_every_method(tmp_path, capsys, method):
    x, y, _ = simulate_into(tmp_path, n=20, p=10, q=8)
    X, _ = read_matrix_csv(x)
    Y, _ = read_matrix_csv(y)
    opts = fit_opts(rank=9)
    with pytest.raises(ValueError, match=r"^rank must lie in \[0, min\(p, q\)\] = \[0, 8\]$"):
        fit_method(X, Y, None, method, opts)
    assert run("fit", "--x", x, "--y", y, "--method", method, "--rank", 9,
               "--out-dir", tmp_path / "fit") == 1
    err = capsys.readouterr().err.strip()
    assert err == "curereg fit: rank must lie in [0, min(p, q)] = [0, 8]"


def _degenerate_case(name):
    """Model II (n=20, p=8, q=6, rank 2) or one of its degenerate variants."""
    if name == "6x15":
        truth = gen_dataset(SimSpec(model="II", n=6, p=15, q=6, r_star=2, seed=4))
        return truth.X, truth.Y, None
    truth = gen_dataset(SimSpec(model="II", n=20, p=8, q=6, r_star=2, seed=3))
    X, Y = truth.X.copy(), truth.Y.copy()
    mask = None
    if name == "zero column":
        X[:, 2] = 0.0
    elif name == "duplicate column":
        X[:, 3] = X[:, 1]
    elif name == "constant Y":
        Y[:] = 1.5
    elif name == "zero Y":
        Y[:] = 0.0
    elif name == "NA row":
        mask = np.ones(Y.shape, dtype=bool)
        mask[0, :] = False
    elif name == "NA column":
        mask = np.ones(Y.shape, dtype=bool)
        mask[:, 0] = False
    elif name in ("n=1", "n=2"):
        X, Y = X[: int(name[2:])], Y[: int(name[2:])]
    elif name == "p=1":
        X = X[:, :1]
    elif name == "q=1":
        Y = Y[:, :1]
    return X, Y, mask


@pytest.mark.parametrize("name", [
    "model II", "zero column", "duplicate column", "constant Y", "zero Y",
    "NA row", "NA column", "n=1", "n=2", "p=1", "q=1", "6x15",
])
def test_degenerate_inputs_give_a_valid_model_or_the_documented_error(name):
    X, Y, mask = _degenerate_case(name)
    p, q = X.shape[1], Y.shape[1]
    opts = fit_opts(rank=min(2, p, q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for method in cli.METHODS:
            if method == "rrr" and mask is not None:
                with pytest.raises(ValueError, match="requires a fully observed Y"):
                    fit_method(X, Y, mask, method, opts)
                continue
            model = fit_method(X, Y, mask, method, opts)
            for layer in model.layers:
                layer.validate()
            assert np.all(np.isfinite(model.to_matrix(shape=(p, q)))), method
        # The path's maintained rss is the exact one at its last step.
        problem = ProblemData(column_normalize(X)[0], Y, mask)
        last = run_path(problem, StagewiseConfig()).steps[-1]
        R = residual(problem, last.factor)
        assert last.rss == pytest.approx(float(np.vdot(R, R)), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("method", cli.METHODS)
def test_an_all_missing_y_is_rejected_by_every_method(method):
    truth = gen_dataset(SimSpec(model="II", n=20, p=8, q=6, r_star=2, seed=3))
    Y = np.full(truth.Y.shape, np.nan)
    mask = np.zeros(Y.shape, dtype=bool)
    with pytest.raises(ValueError, match="^no observed entries in Y$"):
        fit_method(truth.X, Y, mask, method, fit_opts(rank=2))


def test_fit_of_an_all_missing_y_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(5)
    write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((6, 3)))
    write_matrix_csv(tmp_path / "Y.csv", np.zeros((6, 2)), mask=np.zeros((6, 2), dtype=bool))
    assert run("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
               "--method", "lasso", "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == "curereg fit: no observed entries in Y\n"


FUZZ_FAMILIES = ("plain", "scaled column", "near-duplicate column", "constant column",
                 "integer X", "30% missing", "90% missing")
# Errors the README documents for these inputs.
FUZZ_ERRORS = ("^method rrr requires a fully observed Y$", "^no observed entries in Y$",
               r"^gic needs at least 3 observed entries \(loglog\)$")


def _fuzz_case(seed):
    """A seeded small fit: n 1-25, p 1-30, q 1-20, one degenerate family.

    Each size is drawn from 1-3 with probability 0.3, so tiny shapes come up.
    """
    rng = np.random.default_rng(seed)
    family = FUZZ_FAMILIES[seed % len(FUZZ_FAMILIES)]
    n, p, q = (int(rng.integers(1, (3 if rng.random() < 0.3 else top) + 1))
               for top in (25, 30, 20))
    if family == "integer X":
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
    else:
        X = rng.standard_normal((n, p))
    B = np.outer(rng.standard_normal(p) * (rng.random(p) < 0.5), rng.standard_normal(q))
    Y = X @ B + rng.standard_normal((n, q))
    j = int(rng.integers(p))
    mask = None
    if family == "scaled column":
        X[:, j] *= 10.0 ** rng.choice([-150, 150])
    elif family == "near-duplicate column":
        X[:, j] = X[:, 0] + 1e-12 * rng.standard_normal(n)
    elif family == "constant column":
        X[:, j] = 2.5
    elif family.endswith("missing"):
        mask = rng.random((n, q)) >= (0.3 if family == "30% missing" else 0.9)
    return X, Y, mask


@pytest.mark.parametrize("seed", range(14))
def test_seeded_fuzz_fits_are_valid_or_a_documented_error(seed):
    X, Y, mask = _fuzz_case(seed)
    p, q = X.shape[1], Y.shape[1]
    opts = fit_opts(rank=min(2, p, q))
    for method in cli.METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                model = fit_method(X, Y, mask, method, opts)
            except ValueError as exc:
                assert any(re.search(doc, str(exc)) for doc in FUZZ_ERRORS), (method, exc)
                continue
        for layer in model.layers:
            layer.validate()
        assert np.all(np.isfinite(model.to_matrix(shape=(p, q)))), method


@pytest.mark.parametrize("scale", [1e-6, 2.0 ** -20, 1e-9])
def test_lasso_fit_scales_with_a_small_y(scale):
    truth = gen_dataset(SimSpec(model="II", n=23, p=12, q=5, r_star=2, seed=18))
    opts = fit_opts(rank=2)
    want = fit_method(truth.X, truth.Y, None, "lasso", opts).to_matrix(shape=(12, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_method(truth.X, truth.Y * scale, None, "lasso", opts)
    gap = np.linalg.norm(got.to_matrix(shape=(12, 5)) / scale - want)
    assert gap <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("method", cli.METHODS)
def test_a_rescaled_y_gives_the_rescaled_fit_or_a_warning(method):
    truth = gen_dataset(SimSpec(model="II", n=60, p=20, q=15, r_star=2, seed=1))
    opts = fit_opts(rank=2, epsilon=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the Y x 1 reference fit is clean
        base = fit_method(truth.X, truth.Y, None, method, opts).to_matrix(shape=(20, 15))
    for scale in (2.0 ** 10, 2.0 ** -10, 1e3, 1e-3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_method(truth.X, scale * truth.Y, None, method, opts)
        C = model.to_matrix(shape=(20, 15)) / scale
        rel = np.linalg.norm(C - base) / np.linalg.norm(base)
        warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert warned or rel <= 1e-6, (scale, rel)


@pytest.mark.parametrize("method", ["lasso", "rrr"])
def test_a_small_y_keeps_every_layer(method):
    # Layers are cut at a share of the largest singular value, so scaling Y
    # scales the fit and keeps its rank.
    truth = gen_dataset(SimSpec(model="II", n=23, p=12, q=5, r_star=2, seed=18))
    opts = fit_opts(rank=2)
    want = fit_method(truth.X, truth.Y, None, method, opts)
    for scale in (1e-11, 1e-12):
        got = fit_method(truth.X, truth.Y * scale, None, method, opts)
        assert got.rank == want.rank
        gap = np.linalg.norm(got.to_matrix(shape=(12, 5)) / scale - want.to_matrix(shape=(12, 5)))
        assert gap <= 1e-12 * np.linalg.norm(want.to_matrix(shape=(12, 5)))


@pytest.mark.parametrize("method", ["seqacs", "paracs_r", "paracs_l"])
def test_the_alternating_search_keeps_every_layer_of_a_small_y(method):
    # The a-block tolerance is relative to ||b||_inf and the stop test's
    # floor to the zero model's objective, so scaling Y scales the fit.
    truth = gen_dataset(SimSpec(model="II", n=23, p=12, q=5, r_star=2, seed=18))
    opts = fit_opts(rank=2)
    want = fit_method(truth.X, truth.Y, None, method, opts)
    assert want.rank == 2
    W = want.to_matrix(shape=(12, 5))
    for scale in (1e-10, 1e-11, 1e-12):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_method(truth.X, truth.Y * scale, None, method, opts)
        assert got.rank == want.rank
        gap = np.linalg.norm(got.to_matrix(shape=(12, 5)) / scale - W)
        assert gap <= 1e-4 * np.linalg.norm(W)


@pytest.mark.parametrize("method", ["seqstl", "parstl_r"])
def test_a_stagewise_layer_that_stops_early_near_lambda0_says_why(monkeypatch, method):
    truth = gen_dataset(SimSpec(model="II", n=60, p=20, q=15, r_star=2, seed=1))
    ends = []
    orig = deflation.run_path

    def recorded(problem, config):
        path = orig(problem, config)
        ends.append(path.terminated_by)
        return path

    monkeypatch.setattr(deflation, "run_path", recorded)

    def early_stop_warnings(scale, rank):
        ends.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_method(truth.X, truth.Y * scale, None, method,
                               fit_opts(rank=rank, epsilon=0.2))
        assert model.rank == rank
        return [str(w.message) for w in caught if "stopped early" in str(w.message)]

    why = early_stop_warnings(1e3, 2)
    assert ends == ["early_stop"] * 2 and len(why) == 2  # one per layer
    for msg in why:
        assert re.search(r"at lambda = \S+, above 0\.2 of lambda0 = \S+:", msg)
        assert "epsilon = 0.2 " in msg and "scale Y down or raise epsilon" in msg
    # Layer 3 is past the true rank: it early-stops far below lambda0.
    assert early_stop_warnings(1.0, 3) == []
    assert ends[-1] == "early_stop"


@pytest.mark.parametrize("scale", [1e-3, 1e-170])  # ||Y||^2 underflows at 1e-170
@pytest.mark.parametrize("criterion", ["gic", "cv"])
def test_a_stagewise_layer_stuck_at_zero_says_why(criterion, scale):
    truth = gen_dataset(SimSpec(model="II", n=60, p=20, q=15, r_star=2, seed=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_method(truth.X, truth.Y * scale, None, "seqstl",
                           fit_opts(rank=2, epsilon=0.2, criterion=criterion))
    assert model.rank == 0
    why = [str(w.message) for w in caught if "cannot leave zero" in str(w.message)]
    rms = scale * float(np.sqrt(np.mean(truth.Y * truth.Y)))
    assert len(why) == 1  # the full-data path only, not the CV folds
    assert re.search(r"lambda0 = -\S+ <= 0, so no first step of epsilon = 0\.2 ", why[0])
    assert f"RMS of the layer's observed Y = {rms:.3e}" in why[0]


@pytest.mark.parametrize("criterion", ["gic", "cv"])
def test_a_zero_layer_past_the_true_rank_gives_no_scale_advice(criterion):
    rng = np.random.default_rng(31)
    X = rng.standard_normal((25, 8))
    C = np.outer(rng.standard_normal(8) * (rng.random(8) > 0.5), rng.standard_normal(6))
    Y = X @ C + 0.2 * rng.standard_normal((25, 6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_method(X, Y, None, "seqstl",
                           fit_opts(rank=2, epsilon=0.25, criterion=criterion))
    assert model.rank == 1
    assert [str(w.message) for w in caught] == [
        "layer 2 is zero; stopping at effective rank 1"]


@pytest.mark.parametrize("method", ["parstl_l", "parstl_r"])
def test_parallel_pursuit_says_why_once_when_every_layer_is_zero(method):
    truth = gen_dataset(SimSpec(model="II", n=23, p=12, q=5, r_star=2, seed=18))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_method(truth.X, truth.Y * 1e-6, None, method, fit_opts(rank=2))
    assert model.rank == 0
    why = [str(w.message) for w in caught if "cannot leave zero" in str(w.message)]
    assert len(why) == 1
    assert "epsilon = 1 lowers the loss" in why[0]


@pytest.mark.parametrize("method,extra", [
    ("lasso", []),
    ("seqacs", ["--rank", "2"]),
    ("paracs_l", ["--rank", "2"]),
    ("paracs_r", ["--rank", "2"]),
])
def test_grid_stop_writes_the_whole_grid_model(tmp_path, monkeypatch, method, extra):
    x, y, _ = simulate_into(tmp_path / "sim", n=60, p=20, q=12, seed=5)
    argv = ["fit", "--x", x, "--y", y, "--method", method, *extra]
    assert run(*argv, "--out-dir", tmp_path / "stop") == 0
    # Every penalty grid of the fit solved to its last level.
    monkeypatch.setattr(tuning, "GRID_STOP_WINDOW", math.inf)
    assert run(*argv, "--out-dir", tmp_path / "whole") == 0
    stop, whole = (tmp_path / name / "model.json" for name in ("stop", "whole"))
    assert stop.read_bytes() == whole.read_bytes()


def test_paths_command_accepts_missing_entries(tmp_path):
    x, y, _ = simulate_into(tmp_path)
    Y, _ = read_matrix_csv(y)
    Y[::4, 0] = np.nan
    write_matrix_csv(tmp_path / "Ymiss.csv", Y)
    assert run("paths", "--x", x, "--y", tmp_path / "Ymiss.csv",
               "--epsilon", "0.5", "--max-steps", "30", "--criterion", "none",
               "--out-dir", tmp_path) == 0
    lines = (tmp_path / "path.jsonl").read_text().splitlines()
    assert 0 < len(lines) <= 31
    assert json.loads(lines[0])["t"] == 0


def test_lasso_cv_fits_the_full_data_path_once(tmp_path, monkeypatch):
    x, y, _ = simulate_into(tmp_path)
    orig = cli.lasso_gic_path
    rows = []

    def counted(problem, *args, **kwargs):
        rows.append(problem.n)
        return orig(problem, *args, **kwargs)

    monkeypatch.setattr(cli, "lasso_gic_path", counted)
    assert run("fit", "--x", x, "--y", y, "--method", "lasso", "--criterion", "cv",
               "--cv-folds", 3, "--out-dir", tmp_path / "fit") == 0
    assert len(rows) == 3 + 1
    assert rows.count(20) == 1


def test_lasso_cv_holds_one_fold_path_at_a_time(tmp_path, monkeypatch):
    import weakref

    x, y, _ = simulate_into(tmp_path)
    orig = cli.lasso_gic_path
    fold_matrices = []

    def tracked(problem, *args, **kwargs):
        out = orig(problem, *args, **kwargs)
        if problem.n < 20:  # a training fold, not the full data
            assert not any(ref() is not None for ref in fold_matrices)
            fold_matrices.extend(weakref.ref(C) for _, C in out[2])
        return out

    monkeypatch.setattr(cli, "lasso_gic_path", tracked)
    assert run("fit", "--x", x, "--y", y, "--method", "lasso", "--criterion", "cv",
               "--cv-folds", 3, "--out-dir", tmp_path / "fit") == 0
    assert len(fold_matrices) > 3


def modules_loaded_after(code, *watch):
    """Of ``watch`` and scipy's modules, those loaded in a fresh interpreter
    that imports curereg and curereg.cli, then runs ``code``."""
    code = (f"import sys, curereg, curereg.cli; {code}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            f" or m in {watch!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_runtime_imports_no_scipy():
    assert modules_loaded_after("pass", "numpy.ma", "numpy.random") == "[]"


def test_cross_validated_fits_leave_numpy_ma_unimported(tmp_path):
    # np.setdiff1d (through np.unique) would load numpy.ma on every CV fit.
    x, y, _ = simulate_into(tmp_path)
    Y, _ = read_matrix_csv(y)
    observed = np.random.default_rng(5).random(Y.shape) >= 0.2
    write_matrix_csv(tmp_path / "Ym.csv", Y, mask=observed)
    fits = [["--y", tmp_path / "Ym.csv", "--method", method, "--rank", 1,
             "--criterion", "cv", "--epsilon", 0.5] for method in ("seqstl", "seqacs")]
    fits += [["--y", tmp_path / "Ym.csv", "--method", "lasso", "--criterion", "cv"],
             ["--y", y, "--method", "rrr"]]
    runs = [[str(a) for a in ["fit", "--x", x, *argv, "--out-dir", tmp_path / f"fit{i}"]]
            for i, argv in enumerate(fits)]
    code = f"assert all(curereg.cli.main(argv) == 0 for argv in {runs!r})"
    assert modules_loaded_after(code, "numpy.ma") == "[]"


# ---------------------------------------------------------------------------
# determinism


def test_fit_reruns_are_byte_identical(tmp_path):
    x, y, truth = simulate_into(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("fit", "--x", x, "--y", y, "--method", "seqstl", "--rank", 1,
                   "--truth", truth, "--epsilon", "0.5", "--max-steps", "400",
                   "--out-dir", out) == 0
        outs.append(out)
    a, b = outs
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    # wall times are measured, not promised; the sidecar exists but may differ
    assert (a / "timing.csv").exists()


# sha256 of the files `curereg simulate` writes for one seeded spec of each
# model, so that a change to simgen or to the writers that moves one byte
# fails here by name.
GOLDEN_SIMULATE = {
    "I": (["--n", 30, "--p", 20, "--q", 25, "--snr", 0.7, "--rho", 0.4, "--seed", 3], {
        "X.csv": "779c5071752d37ef35175983bc5088863b6a80a3b4cac770eebc29f010900f4c",
        "Y.csv": "f1a74d2927908f4aae9f1ee062728698fa9af19198acd60545c3a7a89ba9182a",
        "truth.json": "87d9e8995280e47faf54f7815c958cce9845e98f80ee24faca7823f3ec4d5940",
    }),
    "II": (["--n", 25, "--p", 12, "--q", 10, "--r-star", 3, "--snr", 1.3, "--rho", 0.5,
            "--seed", 4], {
        "X.csv": "e9478525740b3ab84fefc22b9dc71ef42f870077ee23e5cca244f23adbacb197",
        "Y.csv": "612b09257560fe34878e7ad1fa29e1614a9def21d1bc2890060a75e79c2e4278",
        "truth.json": "eb156f1c7242aff0a596c5018cc14745dfadd8541de8142febdd6cecd135b54d",
    }),
    "III": (["--n", 25, "--p", 12, "--q", 16, "--r-star", 3, "--snr", 0.9, "--rho", -0.3,
             "--seed", 5], {
        "X.csv": "cb95e1bfbaf2e8e75d191d8d01e0cbe73f98a0858313cc5f38d45f68af276b0a",
        "Y.csv": "5dd241d92da13511d297387e310221bccb88cd95a720a49c1f3e4907c4b496f7",
        "truth.json": "652b955612393dd0fe50fa4045165111e98b7b6240ec17fda46b4b4c0f98dc5d",
    }),
    # 0.3 ** k is subnormal from k = 589 on, so the noise factor is too
    "II-q700": (["--n", 20, "--p", 10, "--q", 700, "--r-star", 2, "--snr", 1.1,
                 "--rho", 0.3, "--seed", 6], {
        "X.csv": "401dcf5fc78bc5fb7217f131df78b22716cca0c75d3ce2666030b7595a193d52",
        "Y.csv": "b1ab3a1e20778c7e518c709526b6577abd2fd243d1946d31b12c0cacaf99d041",
        "truth.json": "56b2bf575f0d6d0c1e8368a96b433638afe186366db7074aee38dd694974a143",
    }),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SIMULATE))
def test_simulate_output_matches_its_golden_digests(tmp_path, key):
    args, digests = GOLDEN_SIMULATE[key]
    model = key.partition("-")[0]
    assert run("simulate", "--model", model, *args, "--out-dir", tmp_path) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests


def test_benchmark_rerun_is_byte_identical(tmp_path):
    argv = ["benchmark", "--model", "I", "--n", 35, "--p", 20, "--q", 30,
            "--methods", "rrr", "--reps", 2, "--rank", 1, "--seed", 7]
    for name in ("t1", "t2"):
        assert run(*argv, "--out-dir", tmp_path / name) == 0
    t1 = (tmp_path / "t1" / "table.csv").read_bytes()
    t2 = (tmp_path / "t2" / "table.csv").read_bytes()
    assert t1 == t2
    text = t1.decode()
    assert text.splitlines()[0].startswith("method,reps,er_c_mean,er_c_sd")
    assert text.splitlines()[1].startswith("rrr,2,")


# ---------------------------------------------------------------------------
# error reporting


def test_malformed_csv_reports_location(tmp_path, capsys):
    write_matrix_csv(tmp_path / "X.csv", np.eye(3))
    (tmp_path / "ragged.csv").write_text("1,2\n3\n4,5\n")
    code = run("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "ragged.csv",
               "--method", "rrr", "--rank", 1, "--out-dir", tmp_path)
    assert code == 1
    assert "line 2" in capsys.readouterr().err

    (tmp_path / "bad.csv").write_text("1,2\n3,oops\n4,5\n")
    code = run("fit", "--x", tmp_path / "bad.csv", "--y", tmp_path / "X.csv",
               "--method", "rrr", "--rank", 1, "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2, column 2" in err and "oops" in err


@pytest.mark.parametrize("command", ["fit", "paths"])
def test_a_row_mismatch_exits_1_with_one_line(tmp_path, capsys, command):
    rng = np.random.default_rng(4)
    write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((5, 3)))
    write_matrix_csv(tmp_path / "Y.csv", rng.standard_normal((6, 2)))
    extra = ["--method", "seqstl", "--rank", 1] if command == "fit" else []
    assert run(command, "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv", *extra,
               "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: --x {tmp_path / 'X.csv'} has 5 rows,"
        f" but --y {tmp_path / 'Y.csv'} has 6"]


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_an_na_in_x_exits_1_naming_its_cell(tmp_path, capsys, command):
    x, y, truth = simulate_into(tmp_path / "sim")
    X, _ = read_matrix_csv(x)
    observed = np.ones(X.shape, dtype=bool)
    observed[2, 4] = False
    x_na = tmp_path / "Xna.csv"
    write_matrix_csv(x_na, X, mask=observed)
    if command == "fit":
        args = ["--y", y, "--method", "rrr", "--rank", 1]
    else:
        assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
                   "--out-dir", tmp_path / "fit") == 0
        args = ["--model-json", tmp_path / "fit" / "model.json", "--truth", truth]
    capsys.readouterr()
    assert run(command, "--x", x_na, *args, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: --x {x_na}: line 3, column 5: NA not allowed here"]


def test_usage_errors(tmp_path, capsys):
    rng = np.random.default_rng(1)
    write_matrix_csv(tmp_path / "X.csv", rng.standard_normal((6, 3)))
    write_matrix_csv(tmp_path / "Y.csv", rng.standard_normal((6, 2)))
    x, y = tmp_path / "X.csv", tmp_path / "Y.csv"

    with pytest.raises(SystemExit):  # argparse rejects unknown choices
        run("fit", "--x", x, "--y", y, "--method", "bogus")
    with pytest.raises(SystemExit, match="--method is required"):
        run("fit", "--x", x, "--y", y)
    with pytest.raises(SystemExit, match="--x and --y"):
        run("fit", "--method", "rrr")
    with pytest.raises(SystemExit, match="required"):
        run("eval", "--out-dir", tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run("benchmark", "--methods", "rrr", "--reps", 0, "--rank", 1)
    assert info.value.code == 2
    assert "argument --reps: must be a positive integer, got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit, match="unknown method 'nope'"):
        run("benchmark", "--methods", "rrr,nope", "--reps", 1)
    with pytest.raises(ValueError, match="unknown method"):
        fit_method(np.eye(3), np.eye(3), None, "bogus", {})

    write_matrix_csv(tmp_path / "Xna.csv", np.eye(3),
                     mask=np.eye(3, dtype=bool))
    assert run("fit", "--x", tmp_path / "Xna.csv", "--y", y,
               "--method", "rrr", "--rank", 1, "--out-dir", tmp_path) == 1
    assert "line 1, column 2: NA not allowed here" in capsys.readouterr().err

    Ym = rng.standard_normal((6, 2))
    Ymask = np.ones((6, 2), dtype=bool)
    Ymask[0, 0] = False
    write_matrix_csv(tmp_path / "Ym.csv", Ym, mask=Ymask)
    capsys.readouterr()
    assert run("fit", "--x", x, "--y", tmp_path / "Ym.csv",
               "--method", "rrr", "--rank", 1, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err == (f"curereg fit: --y {tmp_path / 'Ym.csv'}:"
                   " method rrr requires a fully observed Y\n")


def test_fit_method_raises_value_error_for_bad_requests():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 3))
    Y = rng.standard_normal((6, 2))
    opts = fit_opts()
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        fit_method(X, Y, None, "bogus", opts)
    mask = np.ones(Y.shape, dtype=bool)
    mask[0, 0] = False
    with pytest.raises(ValueError, match="^method rrr requires a fully observed Y$"):
        fit_method(X, Y, mask, "rrr", {**opts, "rank": 1})
    for method in RANK_METHODS:
        if method == "rrr":
            continue
        with pytest.raises(ValueError, match=f"^method {method} requires --rank$"):
            fit_method(X, Y, None, method, opts)


def test_malformed_json_inputs_give_one_line_errors(tmp_path, capsys):
    x, y, truth = simulate_into(tmp_path)
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps({"rank": 1}))
    assert run("eval", "--model-json", bad_model, "--truth", truth, "--x", x,
               "--out-dir", tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert err.startswith("curereg eval: ") and "'layers'" in err
    assert len(err.splitlines()) == 1

    doc = json.loads(truth.read_text())
    del doc["sigma"]
    no_sigma = tmp_path / "no_sigma.json"
    no_sigma.write_text(json.dumps(doc))
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--truth", no_sigma, "--out-dir", tmp_path / "fit") == 1
    err = capsys.readouterr().err
    assert err.startswith("curereg fit: ") and "'sigma'" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_truncated_json_names_its_file(tmp_path, capsys, command):
    x, y, truth = simulate_into(tmp_path / "sim")
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--out-dir", tmp_path / "fit") == 0
    source = tmp_path / "fit" / "model.json" if command == "eval" else truth
    cut = tmp_path / "cut.json"
    cut.write_text(source.read_text()[:100])
    if command == "eval":
        args = ["--model-json", cut, "--truth", truth, "--x", x]
    else:
        args = ["--x", x, "--y", y, "--method", "rrr", "--rank", 1, "--truth", cut]
    capsys.readouterr()
    assert run(command, *args, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err.splitlines()
    flag = "--model-json" if command == "eval" else "--truth"
    assert len(err) == 1 and err[0].startswith(
        f"curereg {command}: {flag} {cut}: invalid JSON: ")
    assert os.listdir(tmp_path / "out") == []


def _other_draws(tmp_path):
    """X, Y and truth of a p=10, q=8 draw, with the truths of a p=12 and of
    a q=9 draw."""
    x, y, truth = simulate_into(tmp_path / "a")
    wide_p = simulate_into(tmp_path / "p12", p=12, seed=4)[2]
    wide_q = simulate_into(tmp_path / "q9", q=9, seed=5)[2]
    return x, y, truth, wide_p, wide_q


def test_fit_checks_the_truth_shape_before_fitting(tmp_path, capsys):
    x, y, _, wide_p, wide_q = _other_draws(tmp_path)
    base = ["fit", "--x", x, "--y", y, "--method", "seqstl", "--rank", 2]
    for truth, want in ((wide_p, f"--x {x} has 10 columns, but --truth {wide_p} has p = 12"),
                        (wide_q, f"--y {y} has 8 columns, but --truth {wide_q} has q = 9")):
        out = tmp_path / f"out_{truth.parent.name}"
        capsys.readouterr()
        assert run(*base, "--truth", truth, "--out-dir", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"curereg fit: {want}"]
        assert os.listdir(out) == []


def test_eval_checks_every_shape_before_scoring(tmp_path, capsys):
    x, y, truth, wide_p, wide_q = _other_draws(tmp_path)
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 2,
               "--out-dir", tmp_path / "fit") == 0
    model = tmp_path / "fit" / "model.json"
    x12 = tmp_path / "p12" / "X.csv"
    cases = [
        (model, truth, x12, f"--x {x12} has 12 columns, but --model-json {model} has p = 10"),
        (model, wide_p, x, f"--x {x} has 10 columns, but --truth {wide_p} has p = 12"),
        (model, wide_q, x, f"--truth {wide_q} has q = 9, but --model-json {model} has q = 8"),
    ]
    for i, (model_json, truth_json, x_csv, want) in enumerate(cases):
        capsys.readouterr()
        assert run("eval", "--model-json", model_json, "--truth", truth_json,
                   "--x", x_csv, "--out-dir", tmp_path / f"eval{i}") == 1
        assert capsys.readouterr().err.splitlines() == [f"curereg eval: {want}"]
        assert os.listdir(tmp_path / f"eval{i}") == []


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_a_truth_with_no_layers_is_rejected_before_any_work(tmp_path, capsys, command):
    x, y, truth = simulate_into(tmp_path / "sim")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"rank": 0, "layers": [], "sigma": 1.0}), encoding="utf-8")
    if command == "eval":
        assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
                   "--out-dir", tmp_path / "fit") == 0
        args = ["--model-json", tmp_path / "fit" / "model.json", "--truth", empty, "--x", x]
    else:
        args = ["--x", x, "--y", y, "--method", "seqstl", "--rank", 1, "--truth", empty]
    capsys.readouterr()
    assert run(command, *args, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: --truth {empty}: truth needs at least one layer"]
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
@pytest.mark.parametrize("snr, want", [
    pytest.param("nan", "snr must be positive and finite", id="nan"),
    pytest.param("inf", "snr must be positive and finite", id="inf"),
    pytest.param("1e-320", "snr 1e-320 gives a noise scale sigma of inf", id="subnormal"),
])
def test_an_snr_that_gives_no_finite_noise_is_one_line(tmp_path, capsys, command, snr, want):
    extra = ["--methods", "rrr", "--reps", 1, "--rank", 1] if command == "benchmark" else []
    capsys.readouterr()
    assert run(command, "--model", "II", "--n", 20, "--p", 10, "--q", 8, "--snr", snr,
               *extra, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [f"curereg {command}: {want}"]
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("xi", [[], ["--xi", 0]], ids=["default_xi", "xi_0"])
@pytest.mark.parametrize("command", ["paths", "fit"])
def test_an_epsilon_whose_square_overflows_is_one_line(tmp_path, capsys, command, xi):
    x, y, _ = simulate_into(tmp_path / "sim")
    extra = ["--method", "seqstl", "--rank", 1] if command == "fit" else []
    capsys.readouterr()
    assert run(command, "--x", x, "--y", y, "--epsilon", 1e200, *xi, *extra,
               "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: epsilon 1e+200 is too large: its square overflows"]
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command, epsilon", [("paths", "1e-200"), ("fit", "1e-13")])
def test_an_epsilon_at_or_below_the_snap_tolerance_is_one_line(tmp_path, capsys,
                                                               command, epsilon):
    x, y, _ = simulate_into(tmp_path / "sim")
    extra = ["--method", "seqstl", "--rank", 1] if command == "fit" else []
    capsys.readouterr()
    assert run(command, "--x", x, "--y", y, "--epsilon", epsilon, *extra,
               "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: epsilon {epsilon} is too small:"
        " it must exceed the snap tolerance 1e-12"]
    assert os.listdir(tmp_path / "out") == []


def test_score_model_rejects_a_truth_with_no_layers():
    truth = gen_dataset(SimSpec(model="II", n=20, p=10, q=8, r_star=1, seed=3))
    with pytest.raises(ValueError) as info:
        score_model(truth.factors, FactorModel(()), truth.X)
    assert str(info.value) == "the truth has no layers; it needs at least one"


def test_score_model_checks_every_layer_shape(tmp_path):
    spec = SimSpec(model="II", n=20, p=10, q=8, r_star=2, snr=5.0, seed=3)
    truth = gen_dataset(spec)
    other = gen_dataset(replace(spec, p=12, seed=4)).factors
    mixed = FactorModel((truth.factors.layers[0], UnitRankFactor.zero(10, 9)))
    for model, want in (
        (other, "model layer 1 has p = 12 and q = 8, but the truth has p = 10 and q = 8"),
        (mixed, "model layer 2 has p = 10 and q = 9, but the truth has p = 10 and q = 8"),
    ):
        with pytest.raises(ValueError) as info:
            score_model(model, truth.factors, truth.X)
        assert str(info.value) == want
    # a rank-0 model carries no shape and scores as a zero of the truth's
    report = score_model(FactorModel(()), truth.factors, truth.X)
    assert report.er_c == float(np.vdot(truth.c_star, truth.c_star)) / (10 * 8)


@pytest.mark.parametrize("command, flag", [
    ("fit", "--x"), ("fit", "--y"), ("fit", "--truth"), ("fit", "--config"),
    ("paths", "--x"), ("paths", "--y"), ("paths", "--config"),
    ("eval", "--model-json"), ("eval", "--truth"), ("eval", "--x"), ("eval", "--config"),
])
def test_a_missing_input_names_its_flag(tmp_path, capsys, command, flag):
    x, y, truth = simulate_into(tmp_path / "sim")
    args = {
        "fit": {"--x": x, "--y": y, "--truth": truth, "--method": "rrr", "--rank": 1},
        "paths": {"--x": x, "--y": y, "--max-steps": 5},
        # a truth.json is a model file too
        "eval": {"--model-json": truth, "--truth": truth, "--x": x},
    }[command]
    missing = tmp_path / "nope.csv"
    args[flag] = missing
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *[a for item in args.items() for a in item], "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"curereg {command}: {flag} {missing}: No such file or directory"]
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, flag, token", [
    ("eval", "--x", "nan"), ("eval", "--x", "inf"), ("eval", "--model-json", "NaN"),
    ("eval", "--truth", "Infinity"), ("fit", "--truth", "Infinity"), ("fit", "--x", "nan"),
    ("fit", "--y", "-inf"), ("paths", "--x", "inf"), ("paths", "--y", "nan"),
])
def test_a_non_finite_input_exits_1_naming_its_file(tmp_path, capsys, command, flag, token):
    x, y, truth = simulate_into(tmp_path / "sim")
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--out-dir", tmp_path / "fit") == 0
    args = {
        "fit": {"--x": x, "--y": y, "--truth": truth, "--method": "rrr", "--rank": 1},
        "paths": {"--x": x, "--y": y, "--max-steps": 5},
        "eval": {"--model-json": tmp_path / "fit" / "model.json", "--truth": truth, "--x": x},
    }[command]
    source = args[flag]
    bad = tmp_path / f"bad{source.suffix}"
    if source.suffix == ".csv":  # a literal token in data row 4, column 3
        lines = source.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = token
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        want = f"{flag} {bad}: row 4, column 3 is not finite ({float(token)})"
    else:  # json reads NaN and Infinity as numbers
        doc = json.loads(source.read_text())
        doc["layers"][0]["u"][2] = float(token)
        bad.write_text(json.dumps(doc))
        assert token in bad.read_text()
        want = f"{flag} {bad}: layer 1: entry 3 of u is not finite ({float(token)})"
    args[flag] = bad
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *[a for item in args.items() for a in item], "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"curereg {command}: {want}"]
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("edit, want", [
    ({"d": math.nan}, "d must be a finite nonnegative scalar, got nan"),
    ({"u": None}, "u and v must be 1-d arrays"),
    ({"norm_mode": "zz"}, "'zz' is not a valid NormMode"),
    ({"v": "drop"}, "no 'v' field"),
    ({"d": [1.0]}, "an ill-typed field: "),
])
def test_a_bad_model_layer_is_named_with_its_flag_and_file(tmp_path, capsys, edit, want):
    x, y, truth = simulate_into(tmp_path / "sim")
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 2,
               "--out-dir", tmp_path / "fit") == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    layer = doc["layers"][1]
    for key, value in edit.items():
        if value == "drop":
            del layer[key]
        else:
            layer[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("eval", "--model-json", bad, "--truth", truth, "--x", x, "--out-dir", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"curereg eval: --model-json {bad}: layer 2: {want}")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, flag", [("fit", "--x"), ("paths", "--y"), ("eval", "--x")])
def test_an_undecodable_byte_names_its_file_and_line(tmp_path, capsys, command, flag):
    # n = 60 makes X.csv longer than one 8 KiB decode buffer, so the line
    # is counted from the start of the file, not of the buffer.
    x, y, truth = simulate_into(tmp_path / "sim", n=60)
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--out-dir", tmp_path / "fit") == 0
    args = {
        "fit": {"--x": x, "--y": y, "--method": "rrr", "--rank": 1},
        "paths": {"--x": x, "--y": y, "--max-steps": 5},
        "eval": {"--model-json": tmp_path / "fit" / "model.json", "--truth": truth, "--x": x},
    }[command]
    lines = args[flag].read_bytes().split(b"\n")
    lines[49] = lines[49][:7] + b"\x94" + lines[49][8:]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    assert bad.stat().st_size > 8192
    args[flag] = bad
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *[a for item in args.items() for a in item], "--out-dir", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(rf"curereg {command}: {flag} {re.escape(str(bad))}: line 50 is not"
                        r" \S+ text \(byte 0x94\)", err[0])
    assert list(out.glob("*")) == []


def test_a_byte_order_mark_on_every_input_changes_no_output(tmp_path):
    # Spreadsheets start a "CSV UTF-8" export with one.
    x, y, truth = simulate_into(tmp_path / "plain", n=30)
    cfg = tmp_path / "plain" / "cfg.json"
    cfg.write_text(json.dumps({"method": "seqstl", "rank": 1, "max_steps": 200}))
    assert run("fit", "--x", x, "--y", y, "--method", "rrr", "--rank", 1,
               "--out-dir", tmp_path / "model") == 0
    assert run("paths", "--x", x, "--y", y, "--max-steps", 20,
               "--out-dir", tmp_path / "plain") == 0
    model = tmp_path / "model" / "model.json"
    (tmp_path / "plain" / "model.json").write_bytes(model.read_bytes())
    (tmp_path / "bom").mkdir()
    for path in (tmp_path / "plain").iterdir():
        (tmp_path / "bom" / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = []
    for name in ("plain", "bom"):
        x, y, truth, cfg, model = (tmp_path / name / f for f in (
            "X.csv", "Y.csv", "truth.json", "cfg.json", "model.json"))
        assert run("fit", "--x", x, "--y", y, "--truth", truth, "--config", cfg,
                   "--out-dir", tmp_path / name / "fit") == 0
        assert run("eval", "--model-json", model, "--truth", truth, "--x", x,
                   "--out-dir", tmp_path / name / "eval") == 0
        outputs.append([(tmp_path / name / f).read_bytes() for f in (
            "fit/model.json", "fit/report.csv", "eval/report.csv")])
        outputs[-1].append(list(read_path_jsonl(tmp_path / name / "path.jsonl")))
    assert outputs[0] == outputs[1]


def _feed(fd, data):
    """Write ``data`` to the pipe ``fd`` and close it; a reader that exits
    early ends the writing."""
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_inputs_can_be_pipes(tmp_path):
    # As `--x <(gunzip -c X.csv.gz)` passes them.  A 300 x 200 X is more than
    # a pipe buffer, so a reader that opened its input twice would miss rows.
    x, y, _ = simulate_into(tmp_path / "sim", n=300, p=200, q=5)
    args = ["--method", "rrr", "--rank", "1"]
    assert run("fit", "--x", x, "--y", y, *args, "--out-dir", tmp_path / "file") == 0
    pipes = [os.pipe() for _ in (x, y)]
    reads = [r for r, _ in pipes]
    out = tmp_path / "pipe"
    with subprocess.Popen(
            [sys.executable, "-m", "curereg", "fit", "--x", f"/dev/fd/{reads[0]}",
             "--y", f"/dev/fd/{reads[1]}", *args, "--out-dir", str(out)],
            pass_fds=reads, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        for r in reads:
            os.close(r)
        writers = [threading.Thread(target=_feed, args=(w, path.read_bytes()), daemon=True)
                   for (_, w), path in zip(pipes, (x, y))]
        for writer in writers:
            writer.start()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert proc.returncode == 0, err
    assert (out / "model.json").read_bytes() == (tmp_path / "file" / "model.json").read_bytes()


# The command-line fuzz: each case mutates one input file of one command.
CSV_MUTATIONS = ("truncate", "drop_row", "add_column", "na", "inf", "text", "empty", "bytes")
JSON_MUTATIONS = ("truncate", "other_draw", "bytes", "no_layers")
FUZZ_INPUTS = {
    "fit": ("--x", "--y", "--truth"),
    "paths": ("--x", "--y"),
    "eval": ("--model-json", "--truth", "--x"),
}
FUZZ_CASES = [
    (command, flag, kind)
    for command, flags in FUZZ_INPUTS.items()
    for flag in flags
    for kind in (CSV_MUTATIONS if flag in ("--x", "--y") else JSON_MUTATIONS)
]
FUZZ_ARTIFACTS = {
    "fit": ["model.json", "report.csv", "timing.csv"],
    "paths": ["path.jsonl", "timing.csv"],
    "eval": ["report.csv"],
}


@pytest.fixture(scope="module")
def fuzz_draws(tmp_path_factory):
    """The inputs of a draw by flag, and under ``("other", flag)`` the
    truth and model of another draw, of a wider p."""
    root = tmp_path_factory.mktemp("fuzz")
    x, y, truth = simulate_into(root / "a", seed=6)
    other_x, other_y, other_truth = simulate_into(root / "b", p=12, seed=7)
    files = {"--x": x, "--y": y, "--truth": truth, ("other", "--truth"): other_truth}
    for key, fx, fy in (("--model-json", x, y), (("other", "--model-json"), other_x, other_y)):
        out = root / f"fit{len(files)}"
        assert run("fit", "--x", fx, "--y", fy, "--method", "rrr", "--rank", 2,
                   "--out-dir", out) == 0
        files[key] = out / "model.json"
    return files


def _mutate(rng, kind, data, other):
    """``data``, the bytes of an input file, mutated by ``kind``; ``other``
    is the same file of another draw."""
    if kind == "truncate":
        return data[:rng.integers(len(data))]
    if kind == "bytes":
        data = bytearray(data)
        for at in rng.integers(len(data), size=rng.integers(1, 4)):
            data[at] = rng.integers(256)
        return bytes(data)
    if kind == "other_draw":
        return other.read_bytes()
    if kind == "no_layers":
        return json.dumps({**json.loads(data), "rank": 0, "layers": []}).encode()
    rows = [line.split(b",") for line in data.splitlines()]
    i = rng.integers(len(rows))
    if kind == "drop_row":
        del rows[i]
    elif kind == "add_column":
        rows = [row + [b"0.5"] for row in rows]
    else:
        token = {"na": b"NA", "inf": b"inf", "text": b"abc", "empty": b""}[kind]
        rows[i][rng.integers(len(rows[i]))] = token
    return b"\n".join(b",".join(row) for row in rows) + b"\n"


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("command, flag, kind", FUZZ_CASES)
def test_seeded_cli_fuzz_gives_valid_artifacts_or_one_line_naming_a_file(
        tmp_path, capsys, fuzz_draws, command, flag, kind, seed):
    rng = np.random.default_rng([seed, FUZZ_CASES.index((command, flag, kind))])
    source = fuzz_draws[flag]
    bad = tmp_path / f"bad{source.suffix}"
    bad.write_bytes(_mutate(rng, kind, source.read_bytes(), fuzz_draws.get(("other", flag))))
    args = {name: fuzz_draws[name] for name in FUZZ_INPUTS[command]}
    args[flag] = bad
    extra = {
        "fit": ["--method", ("seqstl", "seqacs", "rrr", "lasso")[rng.integers(4)],
                "--rank", 1, "--max-steps", 200],
        "paths": ["--max-steps", 50],
        "eval": [],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run(command, *[a for item in args.items() for a in item], *extra,
                   "--out-dir", out)
    err = capsys.readouterr().err.splitlines()
    if kind == "no_layers":  # a rank-0 model scores; a truth needs a layer
        assert (code == 0) == (flag == "--model-json"), err
    if code == 0:
        assert sorted(os.listdir(out)) == sorted(FUZZ_ARTIFACTS[command])
        if command == "fit":
            load_factor_model(out / "model.json")
        if command == "paths":
            assert [step["t"] for step in read_path_jsonl(out / "path.jsonl")][0] == 0
        if command != "paths":
            header, row = (out / "report.csv").read_text().splitlines()
            assert header.split(",") == EvalReport.csv_header()
            assert len(row.split(",")) == len(header.split(","))
    else:
        assert code in (1, 2)
        assert len(err) == 1 and err[0].startswith(f"curereg {command}: "), err
        assert any(str(path) in err[0] for path in args.values()), err
        assert os.listdir(out) == []


@pytest.mark.parametrize("folds", ["1", "0", "-3", "two"])
def test_cv_folds_below_two_is_a_usage_error(tmp_path, capsys, folds):
    x, y, _ = simulate_into(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run("fit", "--x", x, "--y", y, "--method", "lasso", "--criterion", "cv",
            "--cv-folds", folds, "--out-dir", tmp_path / "out")
    assert info.value.code == 2
    assert (f"argument --cv-folds: must be an integer of at least 2, got {folds}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("method, extra", [
    ("seqstl", ["--rank", 1, "--criterion", "cv"]),
    ("paracs_r", ["--rank", 1, "--criterion", "cv"]),
    ("lasso", ["--criterion", "cv"]),
    ("rrr", []),
])
def test_cv_folds_above_n_fails_before_any_fit(tmp_path, capsys, monkeypatch, method, extra):
    x, y, _ = simulate_into(tmp_path)  # n = 20
    fits = []
    monkeypatch.setattr(cli, "_fit_scaled", lambda *args: fits.append(args))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("fit", "--x", x, "--y", y, "--method", method, *extra,
               "--cv-folds", 21, "--out-dir", out) == 1
    assert capsys.readouterr().err == (
        "curereg fit: --cv-folds must lie in [2, n] = [2, 20], got 21\n")
    assert fits == [] and list(out.glob("*")) == []


def test_cv_folds_above_n_is_ignored_by_a_fit_that_does_not_cross_validate(tmp_path):
    x, y, _ = simulate_into(tmp_path)
    for extra in (["--method", "rrr", "--rank", 1],
                  ["--method", "seqstl", "--rank", 1, "--criterion", "gic"]):
        assert run("fit", "--x", x, "--y", y, *extra, "--cv-folds", 21,
                   "--out-dir", tmp_path / extra[1]) == 0


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_and_flag_precedence(tmp_path):
    x, y, _ = simulate_into(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"epsilon": 0.25, "criterion": "none", "max_steps": 5,
         "out_dir": str(tmp_path / "from_config")}
    ))
    assert run("paths", "--x", x, "--y", y, "--config", cfg) == 0
    rec = json.loads(
        (tmp_path / "from_config" / "path.jsonl").read_text().splitlines()[0]
    )
    assert rec["d"] == 0.25  # the first step moves one entry by epsilon

    override_dir = tmp_path / "from_flag"
    assert run("paths", "--x", x, "--y", y, "--config", cfg,
               "--epsilon", "0.75", "--out-dir", override_dir) == 0
    rec = json.loads((override_dir / "path.jsonl").read_text().splitlines()[0])
    assert rec["d"] == 0.75

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_option": 1}))
    with pytest.raises(SystemExit, match="unknown option"):
        run("paths", "--x", x, "--y", y, "--config", bad)
    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(SystemExit, match="JSON object"):
        run("paths", "--x", x, "--y", y, "--config", notdict)


@pytest.mark.parametrize("doc, same_as, error", [
    ({"epsilon": "0.2", "rank": 1}, ["--epsilon", "0.2", "--rank", "1"], None),
    ({"threads": "2", "rank": 1}, ["--threads", "2", "--rank", "1"], None),
    ({"rank": 1.5}, None, "invalid int value: '1.5'"),
    ({"rank": 1, "criterion": "best"}, None, "invalid choice: 'best'"),
    ({"rank": 1, "threads": 0}, None, "argument --threads: must be a positive integer"),
    (None, None, "No such file"),
    ("{bad", None, "cfg.json: Expecting property name"),
    ({"rank": 1, "mu": "nan"}, None, "mu must be finite and nonnegative"),
], ids=["str-float", "str-int", "float-int", "bad-choice", "zero-threads",
        "missing-file", "bad-json", "nan-mu"])
def test_config_values_meet_the_flags_checks(tmp_path, capsys, doc, same_as, error):
    x, y, _ = simulate_into(tmp_path / "sim")
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    base = ["fit", "--x", x, "--y", y, "--method", "seqstl"]
    try:
        code = run(*base, "--config", cfg, "--out-dir", tmp_path / "cfg")
    except SystemExit as exc:
        code = exc.code
    if error is None:
        assert code == 0
        assert run(*base, *same_as, "--out-dir", tmp_path / "flags") == 0
        assert ((tmp_path / "cfg" / "model.json").read_bytes()
                == (tmp_path / "flags" / "model.json").read_bytes())
        return
    assert code not in (0, None)
    err = capsys.readouterr().err
    if isinstance(code, str):  # a SystemExit message, printed on exit
        err = code
    assert error in err.splitlines()[-1]
    if code == 1:
        assert err.startswith("curereg fit: ") and len(err.splitlines()) == 1


def test_threads_resolution(tmp_path, monkeypatch, capsys):
    # the parser owns the count: below 1 is a usage error, and no flag gives 1
    for value in (0, -2):
        with pytest.raises(SystemExit) as info:
            run("benchmark", "--threads", value, "--out-dir", tmp_path / "bench")
        assert info.value.code == 2
        assert (f"argument --threads: must be a positive integer, got {value}"
                in capsys.readouterr().err)
    seen = []
    monkeypatch.setattr(cli, "_benchmark_workers",
                        lambda threads, reps: seen.append(threads) or 1)
    assert run("benchmark", "--model", "I", "--n", 35, "--p", 20, "--q", 30,
               "--methods", "rrr", "--reps", 1, "--rank", 1,
               "--out-dir", tmp_path / "bench") == 0
    assert seen == [1]

    # fit still parses and checks --threads, but it cannot change the answer
    x, y, _ = simulate_into(tmp_path / "sim")
    fit = ["fit", "--x", x, "--y", y, "--method", "paracs_r", "--rank", 2]
    models = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert run(*fit, "--threads", threads, "--out-dir", out) == 0
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]
    with pytest.raises(SystemExit) as info:
        run(*fit, "--threads", 0, "--out-dir", tmp_path / "threads0")
    assert info.value.code == 2


def test_fit_ignores_a_cure_threads_variable(tmp_path):
    x, y, _ = simulate_into(tmp_path / "sim")
    env = {k: v for k, v in os.environ.items() if k != "CURE_THREADS"}
    models = []
    for extra in ({}, {"CURE_THREADS": "abc"}):
        out = tmp_path / f"out{len(models)}"
        proc = subprocess.run(
            [sys.executable, "-m", "curereg", "fit", "--x", str(x), "--y", str(y),
             "--method", "seqstl", "--rank", "1", "--out-dir", str(out)],
            capture_output=True, text=True, timeout=120, env={**env, **extra},
        )
        assert proc.returncode == 0, proc.stderr
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


def test_no_module_reads_the_environment():
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), name)
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not used & {"environ", "environb", "getenv", "getenvb"}, name


def test_benchmark_workers_are_capped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert _benchmark_workers(64, 2) == 2
    assert _benchmark_workers(64, 20) == 8
    assert _benchmark_workers(3, 20) == 3
    assert _benchmark_workers(1, 20) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert _benchmark_workers(64, 20) == 1


def test_benchmark_pool_gets_the_capped_count(tmp_path, monkeypatch):
    seen = []

    class FakePool:
        """Records its size and maps in-process; starts no workers."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert run("benchmark", "--model", "I", "--n", 35, "--p", 20, "--q", 30,
               "--methods", "rrr", "--reps", 2, "--rank", 1, "--threads", 64,
               "--out-dir", tmp_path) == 0
    assert seen == [2]


def test_benchmark_checks_trim_before_any_replication(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_benchmark_rep", lambda payload: calls.append(payload))
    assert run("benchmark", "--methods", "rrr", "--reps", 3, "--rank", 1, "--trim", 0.5,
               "--threads", 1, "--out-dir", tmp_path) == 1
    assert capsys.readouterr().err == "curereg benchmark: trim must be in [0, 0.5)\n"
    assert len(calls) == 0


def test_help_documents_solver_defaults(capsys):
    with pytest.raises(SystemExit) as info:
        run("fit", "--help")
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "--epsilon" in text and "default: 1.0" in text
    assert "--xi" in text
    assert "--mu" in text and "default: 0.0001" in text


def _parser_flags():
    """Every long flag of every subcommand, but argparse's own ``--help``."""
    subs, = (a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subs.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")} - {"--help"}


def test_the_readme_names_every_command_line_flag():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    flags = _parser_flags()
    assert sorted(flags - named) == [], "flags the README does not name"
    assert sorted(named - flags) == [], "README flags no command has"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "curereg", "simulate", "--model", "II",
         "--n", "12", "--p", "8", "--q", "6", "--r-star", "2",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "X.csv").exists()
    assert (tmp_path / "truth.json").exists()

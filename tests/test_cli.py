import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curereg.cli as cli
from curereg import baselines, deflation
from curereg.baselines import _rrr_ridge
from curereg.cli import _benchmark_workers, _resolve_threads, fit_method, main
from curereg.core import ProblemData, column_normalize, residual
from curereg.io import load_factor_model, read_matrix_csv, write_matrix_csv
from curereg.simgen import SimSpec, gen_dataset
from curereg.stagewise import StagewiseConfig, run_path
from curereg.tuning import GridScan


def run(*argv):
    return main([str(a) for a in argv])


def fit_opts(**overrides):
    """The fit command's default options, as ``fit_method`` takes them."""
    cli.build_parser()
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
        assert _rrr_ridge(X) == 0.0  # a full-rank X keeps the zero ridge
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
    for module in (baselines, deflation):
        monkeypatch.setattr(module, "GridScan",
                            lambda pb, crit, window=None: GridScan(pb, crit, None))
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


def test_runtime_imports_no_scipy():
    code = ("import sys, curereg, curereg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# determinism


def test_fit_reruns_are_byte_identical(tmp_path):
    x, y, truth = simulate_into(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("fit", "--x", x, "--y", y, "--method", "seqstl", "--rank", 1,
                   "--truth", truth, "--epsilon", "0.5", "--max-steps", "400",
                   "--early-stop-window", "80", "--out-dir", out) == 0
        outs.append(out)
    a, b = outs
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    # wall times are measured, not promised; the sidecar exists but may differ
    assert (a / "timing.csv").exists()


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
    with pytest.raises(SystemExit, match="--reps"):
        run("benchmark", "--methods", "rrr", "--reps", 0, "--rank", 1)
    with pytest.raises(SystemExit, match="unknown method 'nope'"):
        run("benchmark", "--methods", "rrr,nope", "--reps", 1)
    with pytest.raises(ValueError, match="unknown method"):
        fit_method(np.eye(3), np.eye(3), None, "bogus", {})

    write_matrix_csv(tmp_path / "Xna.csv", np.eye(3),
                     mask=np.eye(3, dtype=bool))
    with pytest.raises(SystemExit, match="missing entries"):
        run("fit", "--x", tmp_path / "Xna.csv", "--y", y,
            "--method", "rrr", "--rank", 1, "--out-dir", tmp_path)

    Ym = rng.standard_normal((6, 2))
    Ymask = np.ones((6, 2), dtype=bool)
    Ymask[0, 0] = False
    write_matrix_csv(tmp_path / "Ym.csv", Ym, mask=Ymask)
    capsys.readouterr()
    assert run("fit", "--x", x, "--y", tmp_path / "Ym.csv",
               "--method", "rrr", "--rank", 1, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err == "curereg fit: method rrr requires a fully observed Y\n"


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
    ({"rank": 1, "threads": 0}, None, "--threads must be a positive integer"),
    (None, None, "No such file"),
    ("{bad", None, "cfg.json: Expecting property name"),
], ids=["str-float", "str-int", "float-int", "bad-choice", "zero-threads",
        "missing-file", "bad-json"])
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


def test_threads_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("CURE_THREADS", raising=False)
    assert _resolve_threads({"threads": None}) == 1
    assert _resolve_threads({"threads": 4}) == 4
    monkeypatch.setenv("CURE_THREADS", "3")
    assert _resolve_threads({"threads": None}) == 3
    assert _resolve_threads({"threads": 2}) == 2
    with pytest.raises(SystemExit, match="positive"):
        _resolve_threads({"threads": 0})

    # fit still parses and checks --threads, but it cannot change the answer
    x, y, _ = simulate_into(tmp_path / "sim")
    fit = ["fit", "--x", x, "--y", y, "--method", "paracs_r", "--rank", 2]
    models = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert run(*fit, "--threads", threads, "--out-dir", out) == 0
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]
    with pytest.raises(SystemExit, match="--threads must be a positive integer"):
        run(*fit, "--threads", 0, "--out-dir", tmp_path / "threads0")


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_cure_threads_is_named_before_the_csvs_are_read(tmp_path, monkeypatch, value):
    monkeypatch.setenv("CURE_THREADS", value)
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as info:
        run("fit", "--x", missing, "--y", missing, "--method", "seqstl",
            "--rank", 1, "--out-dir", tmp_path / "out")
    assert info.value.code == f"CURE_THREADS must be a positive integer, got {value!r}"


def test_bad_cure_threads_exits_1_with_one_line(tmp_path):
    x, y, _ = simulate_into(tmp_path / "sim")
    proc = subprocess.run(
        [sys.executable, "-m", "curereg", "fit", "--x", str(x), "--y", str(y),
         "--method", "seqstl", "--rank", "1", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "CURE_THREADS": "abc"},
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["CURE_THREADS must be a positive integer, got 'abc'"]


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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    assert run("benchmark", "--model", "I", "--n", 35, "--p", 20, "--q", 30,
               "--methods", "rrr", "--reps", 2, "--rank", 1, "--threads", 64,
               "--out-dir", tmp_path) == 0
    assert seen == [2]


def test_help_documents_solver_defaults(capsys):
    with pytest.raises(SystemExit) as info:
        run("fit", "--help")
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "--epsilon" in text and "default: 1.0" in text
    assert "--xi" in text
    assert "--mu" in text and "default: 0.0001" in text


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

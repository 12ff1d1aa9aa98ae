"""Command line front end.

Subcommands:

* ``simulate``  write ``X.csv``, ``Y.csv``, ``truth.json`` from a simulation spec
* ``fit``       fit a model to X/Y CSVs, write ``model.json`` + ``report.csv``
* ``paths``     export a unit-rank stagewise path as ``path.jsonl``, a log of
                its moves (``curereg.io.read_path_jsonl`` expands it to full records)
* ``eval``      score a saved model against saved truth, write ``report.csv``
* ``benchmark`` replicate simulate + fit + score, write ``table.csv``

Every artifact write is atomic, and rerunning a command with the same config
and seed reproduces each artifact byte for byte.  Measured wall times are the
one exception; they go to a separate ``timing.csv`` sidecar that makes no
reproducibility promise.

Options may also come from a JSON config file (``--config``); explicit
command-line flags override config values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from .baselines import (
    AcsConfig,
    default_lambda_grid,
    fit_rrr,
    lasso_gic_path,
    select_rank_cv,
)
from .core import (
    FactorModel,
    ProblemData,
    check_finite,
    check_xy,
    column_normalize,
    p_orthogonal_svd,
    rescale_factor_rows,
)
from .deflation import SELECTIONS, DeflationConfig, deflate
from .io import (
    atomic_write_text,
    fmt17,
    load_factor_model,
    read_matrix_csv,
    save_factor_model,
    write_matrix_csv,
    write_path_jsonl,
)
from .metrics import (
    EvalReport,
    aggregate_reports,
    estimation_errors,
    selection_rates,
    sparsity_summary,
)
from .simgen import MODELS, SimSpec, gen_dataset
from .stagewise import CRITERIA as PATH_CRITERIA, EARLY_STOP_WINDOW, StagewiseConfig, run_path
from .tuning import kfold_cv_select

METHODS = (
    "seqstl",
    "seqacs",
    "parstl_l",
    "parstl_r",
    "paracs_l",
    "paracs_r",
    "rrr",
    "lasso",
)
RRR_RANK_CAP = 10

_DEFAULTS: dict[str, dict] = {}


def _opt(parser, defaults, flag, default=None, help="", **kw):
    dest = flag.lstrip("-").replace("-", "_")
    if default is not None:
        help = f"{help} (default: {default})" if help else f"default: {default}"
    defaults[dest] = default
    parser.add_argument(flag, dest=dest, default=argparse.SUPPRESS, help=help, **kw)


def _int_at_least(text, low, what):
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
    return value


def _positive_int(text):
    """The type of a count flag: an integer of at least 1."""
    return _int_at_least(text, 1, "a positive integer")


def _fold_count(text):
    """The type of ``--cv-folds``: an integer of at least 2."""
    return _int_at_least(text, 2, "an integer of at least 2")


def _add_common(parser, defaults):
    _opt(parser, defaults, "--out-dir", default=".", help="directory for artifacts")
    _opt(parser, defaults, "--seed", default=SimSpec.seed, type=int, help="random seed")
    parser.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        help="JSON file of option values (flags override it)",
    )


def _add_sim_flags(parser, defaults):
    _opt(parser, defaults, "--model", default="I", choices=MODELS,
         help="simulation model")
    _opt(parser, defaults, "--n", default=40, type=int, help="sample size")
    _opt(parser, defaults, "--p", default=40, type=int, help="number of predictors")
    _opt(parser, defaults, "--q", default=40, type=int, help="number of responses")
    _opt(parser, defaults, "--r-star", default=SimSpec.r_star, type=int, help="true rank")
    _opt(parser, defaults, "--snr", default=SimSpec.snr, type=float,
         help="signal-to-noise ratio")
    _opt(parser, defaults, "--rho", default=SimSpec.rho, type=float,
         help="AR(1) correlation of the noise columns")
    _opt(parser, defaults, "--s-u", default=SimSpec.s_u, type=int,
         help="per-layer left support size (models II/III)")
    _opt(parser, defaults, "--s-v", default=SimSpec.s_v, type=int,
         help="per-layer right support size (models II/III)")


def _add_path_flags(parser, defaults):
    """The stagewise path settings; their defaults are StagewiseConfig's."""
    _opt(parser, defaults, "--epsilon", default=StagewiseConfig.epsilon, type=float,
         help="stagewise step size")
    _opt(parser, defaults, "--xi", type=float,
         help="stagewise slack; default 1e-6 * epsilon^2")
    _opt(parser, defaults, "--mu", default=StagewiseConfig.mu, type=float,
         help="ridge weight")
    _opt(parser, defaults, "--max-steps", default=StagewiseConfig.max_steps,
         type=int, help="stagewise step budget")


def _add_solver_flags(parser, defaults):
    _opt(parser, defaults, "--rank", type=int,
         help="number of unit-rank layers (required for all methods except lasso;"
              " rrr falls back to CV rank selection)")
    _add_path_flags(parser, defaults)
    _opt(parser, defaults, "--criterion", default=StagewiseConfig.criterion,
         choices=SELECTIONS, help="per-layer tuning rule")
    _opt(parser, defaults, "--cv-folds", default=DeflationConfig.cv_folds,
         type=_fold_count, help="CV fold count, at most the rows of Y")
    _opt(parser, defaults, "--s-threshold", type=int,
         help="keep only this many largest entries of each pilot layer"
              " (parallel methods)")
    _opt(parser, defaults, "--threads", default=1, type=_positive_int,
         help="benchmark worker processes (fit accepts it without effect)")


def build_parser():
    top = argparse.ArgumentParser(
        prog="curereg",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a dataset")
    d = _DEFAULTS["simulate"] = {}
    _add_sim_flags(ps, d)
    _add_common(ps, d)

    pf = sub.add_parser("fit", help="fit a model to CSV data")
    d = _DEFAULTS["fit"] = {}
    _opt(pf, d, "--x", help="predictor CSV (n rows, p columns)")
    _opt(pf, d, "--y", help="response CSV; NA marks missing entries")
    _opt(pf, d, "--method", choices=METHODS, help="fitting method")
    _opt(pf, d, "--truth", help="optional truth.json to fill the error columns")
    _add_solver_flags(pf, d)
    _add_common(pf, d)

    pp = sub.add_parser(
        "paths",
        help="export a single-layer stagewise path (X is used exactly as given)",
    )
    d = _DEFAULTS["paths"] = {}
    _opt(pp, d, "--x", help="predictor CSV")
    _opt(pp, d, "--y", help="response CSV; NA marks missing entries")
    _add_path_flags(pp, d)
    _opt(pp, d, "--criterion", default=StagewiseConfig.criterion,
         choices=PATH_CRITERIA,
         help="criterion recorded along the path; the path also ends after"
              f" {EARLY_STOP_WINDOW} steps without improvement, while none runs"
              " until lambda reaches 0 or --max-steps runs out")
    _add_common(pp, d)

    pe = sub.add_parser("eval", help="score a saved model against saved truth")
    d = _DEFAULTS["eval"] = {}
    _opt(pe, d, "--model-json", help="model.json from fit")
    _opt(pe, d, "--truth", help="truth.json from simulate")
    _opt(pe, d, "--x", help="X.csv from simulate (needed for the prediction error)")
    _add_common(pe, d)

    pb = sub.add_parser("benchmark", help="replicated simulate + fit + score")
    d = _DEFAULTS["benchmark"] = {}
    _add_sim_flags(pb, d)
    _opt(pb, d, "--methods", default="seqstl,seqacs,rrr",
         help="comma-separated method list")
    _opt(pb, d, "--reps", default=20, type=_positive_int, help="replication count")
    _opt(pb, d, "--trim", default=0.0, type=float,
         help="two-sided trimming fraction for the aggregation (0.1 drops 10%%"
              " of replications in each tail)")
    _add_solver_flags(pb, d)
    _add_common(pb, d)

    return top


# Built once at import, so that ``_DEFAULTS`` is filled for library callers
# of ``fit_method`` as well as for ``main``.
_PARSER = build_parser()


def _read_input(flag, path, reader, **kw):
    """``reader(path, **kw)``, with an OS error naming the flag of the file,
    ``--x nope.csv: No such file or directory``, and the reader's own
    ValueError (which names the file first) naming it too:
    ``--model-json m.json: layer 2: d must be ...``."""
    try:
        return reader(path, **kw)
    except OSError as exc:
        raise OSError(f"{flag} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{flag} {exc}") from None


def _config_tokens(command, config_path):
    """A JSON config file as flag tokens, so it meets the flags' own checks.

    Placed before the command line's flags, which then override it; a null
    value leaves the built-in default.
    """
    try:
        with _read_input("--config", config_path, open, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"config {config_path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemExit(f"config {config_path}: expected a JSON object")
    unknown = sorted(set(doc) - set(_DEFAULTS[command]))
    if unknown:
        raise SystemExit(
            f"config {config_path}: unknown option(s) {', '.join(unknown)}"
        )
    return [f"--{key.replace('_', '-')}={val}"
            for key, val in doc.items() if val is not None]


def _from_opts(cls, opts, *skip):
    """A ``cls`` dataclass whose fields, but those named in ``skip``, take the
    options of the same names."""
    return cls(**{f.name: opts[f.name] for f in fields(cls) if f.name not in skip})


def _deflation_config(method, opts):
    if opts["rank"] is None:
        raise ValueError(f"method {method} requires --rank")
    if "stl" in method:
        # Each layer's path runs with the DeflationConfig criterion.
        solver = _from_opts(StagewiseConfig, opts, "criterion")
    else:
        solver = AcsConfig(mu=opts["mu"])
    strategy = "sequential" if method.startswith("seq") else "parallel"
    initializer = None
    if strategy == "parallel":
        initializer = "lasso" if method.endswith("_l") else "rrr"
    return DeflationConfig(
        strategy=strategy,
        rank=opts["rank"],
        solver=solver,
        initializer=initializer,
        s_threshold=opts["s_threshold"],
        criterion=opts["criterion"],
        cv_folds=opts["cv_folds"],
        cv_seed=opts["seed"],
    )


def _fit_scaled(problem, method, opts):
    """Fit on an already column-normalized problem; returns a FactorModel."""
    X, Y = problem.X, problem.Y
    top = min(problem.n, problem.p, problem.q)
    if method == "lasso":
        if opts["criterion"] == "cv":
            grid = default_lambda_grid(problem)
            path = lasso_gic_path(problem, grid, _whole_grid=True)[2]
            sel = kfold_cv_select(
                problem,
                path,
                lambda folds: (lasso_gic_path(pb, grid, _whole_grid=True)[2]
                               for pb in folds),
                folds=opts["cv_folds"],
                seed=opts["seed"],
            )
            C = path[sel.index][1]
        else:
            C, _, _ = lasso_gic_path(problem, criterion=opts["criterion"])
        return p_orthogonal_svd(X, C, top)
    if method == "rrr":
        if problem.mask is not None:
            raise ValueError("method rrr requires a fully observed Y")
        rank = opts["rank"]
        if rank is None:
            rank, _ = select_rank_cv(
                X, Y, r_max=min(top, RRR_RANK_CAP),
                folds=opts["cv_folds"], seed=opts["seed"],
            )
        return p_orthogonal_svd(X, fit_rrr(X, Y, rank), rank)
    return deflate(problem, _deflation_config(method, opts))


def fit_method(X_raw, Y, mask, method, opts):
    """Column-normalize, fit by name, return the model on the raw X scale.

    Every method but ``lasso`` rejects a rank above min(p, q), every method
    rejects a Y with no observed entry, and a fit that cross-validates
    (``criterion`` cv, or ``rrr`` without a rank) rejects a fold count outside
    [2, n], all before any work.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    top = min(X_raw.shape[1], Y.shape[1])
    if method != "lasso" and opts["rank"] is not None and opts["rank"] > top:
        raise ValueError(f"rank must lie in [0, min(p, q)] = [0, {top}]")
    problem = ProblemData(X_raw, Y, mask)
    if problem.n_observed == 0:
        raise ValueError("no observed entries in Y")
    n, folds = problem.n, opts["cv_folds"]
    cv = opts["rank"] is None if method == "rrr" else opts["criterion"] == "cv"
    if cv and not 2 <= folds <= n:
        raise ValueError(f"--cv-folds must lie in [2, n] = [2, {n}], got {folds}")
    Xn, scale = column_normalize(problem.X)
    model = _fit_scaled(replace(problem, X=Xn), method, opts)
    return FactorModel(tuple(rescale_factor_rows(lay, scale) for lay in model.layers))


def score_model(model, truth_model, X):
    """EvalReport of a fitted model: its sparsity counts and, given the
    ground truth (else None), its errors and selection rates.

    Layers are aligned to the truth by descending d before the selection
    rates are pooled; a rank-0 model has no layer to align, and is scored as
    a zero of the truth's.  Before any scoring, a truth with no layers, or a
    layer of the model or the truth whose p is not X's column count or whose
    q is not the truth's, raises one ValueError line (``_check_layers``).
    """
    if truth_model is not None:
        _check_layers(("X", X), ("the truth", truth_model), [("the model", model)])
    report = EvalReport()
    report.u_l0, report.u_l20, report.v_l0, report.v_l20 = sparsity_summary(model)
    if truth_model is None:
        return report
    C_star = truth_model.to_matrix()
    p, q = C_star.shape
    report.er_c, report.er_xc = estimation_errors(model.to_matrix(shape=(p, q)), C_star, X)
    layers = [model.layers[i] for i in np.argsort(-model.d_values(), kind="stable")]
    rates = selection_rates(
        np.reshape([lay.u for lay in layers], (-1, p)).T,
        np.reshape([lay.v for lay in layers], (-1, q)).T,
        truth_model.stacked_u(),
        truth_model.stacked_v(),
    )
    report.fpr, report.fnr = rates.fpr, rates.fnr
    return report


def _write_report(path, report):
    header = ",".join(EvalReport.csv_header())
    row = ",".join(report.csv_row())
    atomic_write_text(path, header + "\n" + row + "\n")


def _write_timing(path, rows):
    lines = ["stage,seconds"]
    lines += [f"{name},{fmt17(sec)}" for name, sec in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


@contextlib.contextmanager
def _stage(times, name):
    """Add the wall time of the block to ``times[name]``."""
    t0 = time.perf_counter()
    yield
    times[name] = times.get(name, 0.0) + time.perf_counter() - t0


def _load_truth(path):
    model, doc = _read_input("--truth", path, load_factor_model)
    if not isinstance(doc.get("sigma"), (int, float)):
        raise ValueError(f"--truth {path}: truth needs a numeric 'sigma' field")
    return model


def _check_layers(x, truth, models=(), y=None):
    """Raise one ValueError line unless the truth has a layer and every layer
    of each model and of the truth has p equal to X's column count, and q
    equal to Y's, or with no Y to the truth's q.

    Each argument is a ``(name, value)`` pair, and ``models`` a sequence of
    them; the names say which input is at fault: ``X has 10 columns, but the
    model has p = 12``.  A rank-0 model has no shape and passes.
    """
    truth_name, truth_model = truth
    if not truth_model.rank:
        raise ValueError(f"{truth_name} has no layers; it needs at least one")

    def width(name, M):
        return np.shape(M)[1], f"{name} has {np.shape(M)[1]} columns"

    q = truth_model.layers[0].v.size
    ref = {"p": width(*x), "q": width(*y) if y else (q, f"{truth_name} has q = {q}")}
    for name, model in (*models, truth):
        for lay in model.layers:
            for dim, size in (("p", lay.u.size), ("q", lay.v.size)):
                want, source = ref[dim]
                if size != want:
                    raise ValueError(f"{source}, but {name} has {dim} = {size}")


def _cmd_simulate(opts):
    out = opts["out_dir"]
    truth = gen_dataset(_from_opts(SimSpec, opts))
    write_matrix_csv(os.path.join(out, "X.csv"), truth.X)
    write_matrix_csv(os.path.join(out, "Y.csv"), truth.Y)
    save_factor_model(
        os.path.join(out, "truth.json"),
        truth.factors,
        extra={"sigma": truth.sigma, "spec": asdict(truth.spec)},
    )
    return 0


def _read_xy(opts, times):
    if not opts["x"] or not opts["y"]:
        raise SystemExit("--x and --y are required")
    with _stage(times, "read_x"):
        X, _ = _read_input("--x", opts["x"], read_matrix_csv)
    with _stage(times, "read_y"):
        Y, mask = _read_input("--y", opts["y"], read_matrix_csv, allow_missing=True)
    check_xy(X, Y, mask, names=(f"--x {opts['x']}", f"--y {opts['y']}"))
    return X, Y, mask


def _cmd_fit(opts):
    out = opts["out_dir"]
    if not opts["method"]:
        raise SystemExit("--method is required")
    times = {}
    X, Y, mask = _read_xy(opts, times)
    if opts["method"] == "rrr" and mask is not None:
        raise ValueError(f"--y {opts['y']}: method rrr requires a fully observed Y")
    truth_model = None
    if opts["truth"]:
        truth_model = _load_truth(opts["truth"])
        _check_layers((f"--x {opts['x']}", X), (f"--truth {opts['truth']}", truth_model),
                      y=(f"--y {opts['y']}", Y))
    with _stage(times, "fit"):
        model = fit_method(X, Y, mask, opts["method"], opts)
    with _stage(times, "write"):
        save_factor_model(
            os.path.join(out, "model.json"),
            model,
            extra={"method": opts["method"]},
        )
    report = score_model(model, truth_model, X)
    with _stage(times, "write"):
        _write_report(os.path.join(out, "report.csv"), report)
    stages = ("fit", "read_x", "read_y", "write")
    _write_timing(os.path.join(out, "timing.csv"), [(k, times[k]) for k in stages])
    return 0


def _cmd_paths(opts):
    out = opts["out_dir"]
    times = {}
    X, Y, mask = _read_xy(opts, times)
    with _stage(times, "path"):
        path = run_path(ProblemData(X, Y, mask), _from_opts(StagewiseConfig, opts))
    with _stage(times, "write"):
        write_path_jsonl(os.path.join(out, "path.jsonl"), path)
    _write_timing(os.path.join(out, "timing.csv"), list(times.items()))
    return 0


def _cmd_eval(opts):
    out = opts["out_dir"]
    for key in ("model_json", "truth", "x"):
        if not opts[key]:
            raise SystemExit("--model-json, --truth and --x are required")
    model, _ = _read_input("--model-json", opts["model_json"], load_factor_model)
    truth_model = _load_truth(opts["truth"])
    X, _ = _read_input("--x", opts["x"], read_matrix_csv)
    check_finite(X, f"--x {opts['x']}")
    _check_layers((f"--x {opts['x']}", X), (f"--truth {opts['truth']}", truth_model),
                  [(f"--model-json {opts['model_json']}", model)])
    report = score_model(model, truth_model, X)
    _write_report(os.path.join(out, "report.csv"), report)
    return 0


def _benchmark_rep(payload):
    spec_dict, methods, opts = payload
    truth = gen_dataset(SimSpec(**spec_dict))
    out = {}
    for method in methods:
        t0 = time.perf_counter()
        model = fit_method(truth.X, truth.Y, None, method, opts)
        wall = time.perf_counter() - t0
        report = score_model(model, truth.factors, truth.X)
        report.wall_time_s = wall
        out[method] = report
    return out


def _benchmark_workers(threads, reps):
    """Pool size; a forked pool starts all its workers at once, so cap it."""
    return min(threads, reps, os.cpu_count() or 1)


def _cmd_benchmark(opts):
    out = opts["out_dir"]
    methods = [m.strip() for m in opts["methods"].split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise SystemExit(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if not 0.0 <= opts["trim"] < 0.5:
        raise ValueError("trim must be in [0, 0.5)")
    base = _from_opts(SimSpec, opts)
    payloads = [
        ({**asdict(base), "seed": base.seed + i}, methods, opts)
        for i in range(opts["reps"])
    ]
    workers = _benchmark_workers(opts["threads"], len(payloads))
    if workers > 1:
        # Looked up here: importing it loads multiprocessing at start-up.
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_benchmark_rep, payloads))
    else:
        results = [_benchmark_rep(pl) for pl in payloads]

    metric_names = EvalReport.METRIC_FIELDS
    header = ["method", "reps"]
    for name in metric_names:
        header += [f"{name}_mean", f"{name}_sd"]
    lines = [",".join(header)]
    timing_rows = []
    for method in methods:
        reports = [res[method] for res in results]
        agg = aggregate_reports(reports, trim=opts["trim"])
        cells = [method, str(len(reports))]
        for name in metric_names:
            mean, sd = agg[name]
            cells += [fmt17(mean), fmt17(sd)]
        lines.append(",".join(cells))
        t_mean, t_sd = agg["wall_time_s"]
        timing_rows.append((f"{method}_mean", t_mean))
        timing_rows.append((f"{method}_sd", t_sd))
    atomic_write_text(os.path.join(out, "table.csv"), "\n".join(lines) + "\n")
    _write_timing(os.path.join(out, "timing.csv"), timing_rows)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "paths": _cmd_paths,
    "eval": _cmd_eval,
    "benchmark": _cmd_benchmark,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = vars(_PARSER.parse_args(argv))
    command = ns.pop("command")
    try:
        if "config" in ns:
            tokens = _config_tokens(command, ns["config"])
            ns = vars(_PARSER.parse_args(argv[:1] + tokens + argv[1:]))
            del ns["command"], ns["config"]
        opts = {**_DEFAULTS[command], **ns}
        os.makedirs(opts["out_dir"], exist_ok=True)
        return _COMMANDS[command](opts)
    except (ValueError, OSError) as exc:
        print(f"curereg {command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

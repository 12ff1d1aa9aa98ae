"""curereg benchmark: seeded workloads through the public CLI entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dense_stagewise --seed 1 --seconds 25 --trace 0

Each run starts a fresh interpreter that only imports ``curereg.cli``, sets
up the workload's instances in a fresh worker process, starts another
importing interpreter, runs the workload's timed phase in a fresh worker,
then starts one more importing interpreter.  ``setup_s``, ``startup_s``
and ``round_s`` are scaled to a reference speed of the machine (see
``REF_CALIBRATION_S``).  ``--trace 1`` instead runs traced and untraced
rounds and reports per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give every metric with its unit, the
environment, and the artifact hashes.  See perfbench/README.md.

Standard library only; the workers import numpy and curereg.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wls
from tracer import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0
# The gated times are scaled to a reference speed of the shared machine,
# whose speed swings by up to 2x in spells of seconds to minutes.  setup_s
# and round_s are scaled by the mean of the worker's calibration samples
# (worker.calibrate), whose typical time on the machine the benchmark was
# defined on is REF_CALIBRATION_S; startup_s by the start-up of an
# interpreter that imports only REF_IMPORTS, typically REF_IMPORT_S there.
REF_CALIBRATION_S = 0.018
REF_IMPORT_S = 0.15
REF_IMPORTS = ("argparse", "asyncio", "csv", "decimal", "email.mime.multipart",
               "http.client", "json", "logging.handlers", "pydoc", "sqlite3",
               "tarfile", "unittest", "xml.dom.minidom", "zipfile")

END_TO_END = {
    "setup_s": "s",
    "startup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for the workloads where they apply; not part of the gated result.
REPORTED = {
    "setup_wall_s": "s", "startup_wall_s": "s", "round_wall_s": "s",
    "calibration_s": "s", "import_ref_s": "s", "wall_s": "s",
    "seqstl_s": "s", "parstl_r_s": "s", "paths_s": "s", "seqacs_s": "s",
    "paracs_r_s": "s", "paracs_r_t2_s": "s", "lasso_s": "s",
    "er_c": "1", "fpr": "1", "fnr": "1", "fail_frac": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "CURE_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode, args, workdir, env, timeout, extra=()):
    """Run one worker phase in a fresh interpreter.

    Returns the exit code, the JSON records (partial on timeout) and the
    start-up time: from starting the process until its imports were done.
    """
    out_path = os.path.join(workdir, f"{mode}.jsonl")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--workdir", workdir,
           "--scale", args.scale, *extra]
    with open(out_path, "w") as out:
        t_start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "killed"
    with open(out_path) as fh:
        records = [json.loads(line) for line in fh if line.startswith("{")]
    ready = [r["t"] for r in records if r["kind"] == "ready"]
    startup = ready[0] - t_start if ready else math.nan
    return code, [r for r in records if r["kind"] != "ready"], startup


def reference_startup(env):
    """Median start-up time of three fresh interpreters that import only
    REF_IMPORTS, one after another."""
    code = f"import time, {', '.join(REF_IMPORTS)}; print(time.perf_counter())"
    times = []
    for _ in range(3):
        t_start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]) - t_start)
    return statistics.median(times)


def import_seconds(env):
    """Cumulative import times from ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import curereg.cli"], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return {"cli.import_s": cumulative.get("curereg.cli", 0.0),
            "metrics.import_s": cumulative.get("curereg.metrics", 0.0)}


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def determinism(root, key, hashes):
    """Compare artifact hashes with an earlier run of the same code and seed.

    Returns the names of commands whose hashes changed; records new keys.
    """
    path = os.path.join(root, ".bench_out", "hashes.json")
    try:
        with open(path) as fh:
            book = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        book = {}
    seen = book.get(key)
    if seen is None:
        book[key] = hashes
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(book, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return sorted(name for name in hashes if name in seen and seen[name] != hashes[name])


def summarize_commands(records):
    """Times, quality, hashes and failures of a run's commands.

    Each (command, set) appears once in an untraced run.  A traced run
    repeats sets in traced and untraced rounds; the first record of a
    (command, set) is kept, and the others must hash the same, so that the
    tracer is shown not to change any output.
    """
    failures = []
    hashes = {}
    seconds = {}
    quality = {}
    for rec in records:
        key = f"set{rec['set']}/{rec['metric']}"
        if rec["status"] != "ok":
            failures.append({"command": key, "status": rec["status"],
                             "problems": rec["problems"]})
            continue
        if key in hashes and hashes[key] != rec["hashes"]:
            failures.append({"command": key, "status": "nondeterministic",
                             "problems": ["artifact hashes differ between the"
                                          " traced and untraced rounds"]})
        seconds.setdefault((rec["metric"], rec["set"]), rec["seconds"])
        hashes.setdefault(key, rec["hashes"])
        if rec["quality"]:
            quality.setdefault(key, rec["quality"])
    return seconds, quality, hashes, failures


def fmt_metric(name, value, unit):
    return f"  {name:<36} {value:>16.6g} {unit}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=wls.SCALES,
                        help="toy runs every workload at small sizes (self-test)")
    args = parser.parse_args(argv)

    t_begin = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curereg", "cli.py")):
        print("perfbench: run from the root of a curereg checkout"
              " (src/curereg/cli.py not found)", file=sys.stderr)
        return 2
    wl = wls.workloads(args.scale).get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = child_env(root)
    workdir = os.path.join(root, ".bench_out", "work",
                           f"{wl.name}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, wl, root, env, workdir, t_begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, root, env, workdir, t_begin):
    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - t_begin)

    trace = bool(args.trace)
    sets = wl.sets_for(args.seconds)

    def probe():
        code, _, startup = run_worker("probe", args, workdir, env,
                                      max(5.0, min(60.0, remaining())))
        if code != 0:
            raise BenchError(f"start-up probe failed (exit {code})")
        return startup

    # Fresh interpreters that import curereg.cli, spread over the run so
    # that their median spans more than one spell of the machine's speed:
    # the two workers, and untraced a probe before the set-up, one before
    # and one after the timed phase.  Untraced, each is paired with the
    # reference start-up just before it.
    startups = []
    refs = []

    def reference():
        if not trace:
            refs.append(reference_startup(env))

    if not trace:
        reference()
        startups.append(probe())
    reference()
    code, setup_records, startup_setup = run_worker(
        "setup", args, workdir, env, remaining(), ("--trace",) if trace else ())
    setup = [r for r in setup_records if r["kind"] == "setup"]
    setup_cals = [r["seconds"] for r in setup_records if r["kind"] == "calibration"]
    if code != 0 or len(setup) != sets or len(setup_cals) <= sets:
        raise BenchError(f"set-up worker failed (exit {code})")
    startups.append(startup_setup)
    metrics = {}
    reported = {}
    if trace:
        metrics.update(import_seconds(env))
    else:
        reported["setup_wall_s"] = statistics.fmean(r["seconds"] for r in setup)
        metrics["setup_s"] = (reported["setup_wall_s"] * REF_CALIBRATION_S
                              / statistics.fmean(setup_cals))
        reference()
        startups.append(probe())

    budget = remaining() - 10.0
    reference()
    code, records, startup_run = run_worker(
        "trace" if trace else "run", args, workdir, env, budget + 5.0,
        ("--deadline", repr(budget)))
    startups.append(startup_run)
    if not trace:
        reference()
        startups.append(probe())
        reported["startup_wall_s"] = statistics.median(startups)
        reported["import_ref_s"] = statistics.median(refs)
        metrics["startup_s"] = REF_IMPORT_S * statistics.median(
            s / r for s, r in zip(startups, refs))
    end = records[-1] if records and records[-1]["kind"] == "end" else None
    commands = [r for r in records if r["kind"] == "command"]
    calibrations = [r["seconds"] for r in records if r["kind"] == "calibration"]
    # A run is one round on every set, or one untraced and one traced round.
    planned = len(wl.commands) * (2 if trace else sets)
    attempted = max(len(commands), planned)
    per_set, quality, hashes, failures = summarize_commands(commands)
    if len(commands) < planned:
        failures.append({"command": "*", "status": "timeout",
                         "count": planned - len(commands),
                         "problems": [f"worker ended (exit {code}) after"
                                      f" {len(commands)} of {planned} commands"]})

    source = source_digest(root)
    bench_digest = hashlib.sha256(repr(wl).encode()).hexdigest()[:16]
    key = f"{source}:{bench_digest}:{wl.name}:{args.seed}:{args.scale}"
    for name in determinism(root, key, hashes):
        failures.append({"command": name, "status": "nondeterministic",
                         "problems": ["hashes differ from an earlier run"
                                      " of the same code and seed"]})

    complete = (not trace and end is not None
                and len(per_set) == len(wl.commands) * sets
                and len(calibrations) == len(wl.commands) * sets + 1)
    if complete:
        for cmd in wl.commands:
            reported[cmd.metric] = statistics.median(
                per_set[(cmd.metric, i)] for i in range(sets))
        rounds = [sum(per_set[(cmd.metric, i)] for cmd in wl.commands)
                  for i in range(sets)]
        reported["round_wall_s"] = statistics.fmean(rounds)
        reported["calibration_s"] = statistics.fmean(calibrations)
        reported["wall_s"] = sum(rounds)
    if quality:
        for q in ("er_c", "fpr", "fnr"):
            reported[q] = statistics.fmean(v[q] for v in quality.values())

    if trace:
        if end is not None:
            layers = dict(end["layers"])
            for rec in setup:
                for k, v in rec["layers"].items():
                    layers[k] = layers.get(k, 0.0) + v / len(setup)
            metrics.update(layers)
            if not end["restored"]:
                failures.append({"command": "*", "status": "tracer",
                                 "problems": ["a patched attribute was not restored"]})
        units = LAYER_UNITS
    else:
        if complete:
            metrics["round_s"] = (reported["round_wall_s"] * REF_CALIBRATION_S
                                  / reported["calibration_s"])
            metrics["peak_rss_mb"] = end["peak_rss_mb"]
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    failed = min(attempted, sum(f.get("count", 1) for f in failures))
    reported["fail_frac"] = failed / attempted
    correct = not failures and not missing

    detail = {
        "workload": wl.name, "seed": args.seed, "held_out_seed": wls.HELD_OUT_SEED,
        "scale": args.scale, "trace": args.trace, "sets": sets,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "git_commit": git_commit(root), "source_digest": source,
                "blas_threads_requested": env["OPENBLAS_NUM_THREADS"],
                **((end or {}).get("env") or {})},
        "reported": reported, "quality": quality, "hashes": hashes,
        "set_seconds": {f"set{i}/{m}": v for (m, i), v in sorted(per_set.items())},
        "calibrations": {"setup": setup_cals, "run": calibrations},
        "startups": startups,
        "import_refs": refs,
        "failures": failures,
        "missing_metrics": missing,
    }
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}"
          f"  sets {sets}  scale {args.scale}")
    for name in sorted(metrics):
        print(fmt_metric(name, metrics[name], units.get(name, "?")))
    if not trace:
        for name, value in reported.items():
            print(fmt_metric(name, value, REPORTED[name]))
    for fail in failures:
        print(f"  FAILED {fail['command']}: {fail['status']}: {fail['problems']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    results_dir = os.path.join(root, ".bench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{wl.name}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)

"""Self-test of the benchmark at toy sizes.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

It runs every workload untraced and traced at toy sizes, and checks that
each end-to-end and per-layer metric is printed with its unit, that the
result line has the contracted shape, that the tracer puts back every
module attribute it replaced, and that the benchmark refuses to run without
the package source.  The functions are also collected by pytest
(``python -m pytest perfbench/selftest.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import workloads as wls  # noqa: E402

# The end-to-end metrics each workload prints, gated or not.
EXPECTED = {
    "dense_stagewise": ("seqstl_s", "parstl_r_s", "paths_s"),
    "masked_cv": ("seqstl_s", "seqacs_s"),
    "acs_lasso": ("seqacs_s", "paracs_r_s", "paracs_r_t2_s", "lasso_s"),
}
COMMON = ("setup_s", "startup_s", "wall_s", "peak_rss_mb",
          "er_c", "fpr", "fnr", "fail_frac")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _printed_units(stdout):
    """Metric name -> unit from the human-readable lines of a run."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            units[parts[0]] = parts[2]
    return units


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    bench_json = _bench_json()
    assert {w["name"]: w["why"] for w in bench_json["workloads"]} == {
        name: wl.why for name, wl in wls.workloads().items()}
    assert {m["name"]: m["unit"] for m in bench_json["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in bench_json["per_layer"]} == bench.LAYER_UNITS


def test_untraced_runs_print_every_metric():
    gated = bench.END_TO_END
    for workload, own in EXPECTED.items():
        proc = _run(workload, 0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
        assert all(v["value"] > 0 for v in result["metrics"].values())
        printed = _printed_units(proc.stdout)
        for name in COMMON + own:
            assert name in printed, (workload, name)
        for name in set(EXPECTED["acs_lasso"] + EXPECTED["dense_stagewise"]) - set(own):
            assert name not in printed, (workload, name)


def test_traced_runs_report_every_layer_metric():
    units = bench.LAYER_UNITS
    shares = {}
    for workload in EXPECTED:
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stdout
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        printed = _printed_units(proc.stdout)
        assert all(printed.get(name) == unit for name, unit in units.items())
        shares[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    # The workloads separate the layers even at toy sizes.
    assert shares["acs_lasso"]["stagewise.path_s"] == 0.0
    assert shares["dense_stagewise"]["stagewise.share"] > 0.5
    assert shares["masked_cv"]["tuning.cv_s"] > 0.0
    assert shares["dense_stagewise"]["tuning.cv_s"] == 0.0
    assert shares["acs_lasso"]["tuning.cv_s"] == 0.0
    assert shares["masked_cv"]["tuning.cv_paths_per_layer"] > 0.0


def test_tracer_restores_every_attribute():
    import importlib

    import tracer as tr

    pairs = tr.targets() + [(m, a) for m, a, *_ in tr.SETUP_SPANS]

    def current():
        return {(m, a): getattr(importlib.import_module(f"curereg.{m}"), a)
                for m, a in pairs}

    before = current()
    t = tr.Tracer()
    t.install()
    try:
        during = current()
        assert all(during[k] is not before[k] for k in tr.targets())
        try:
            t.install()
        except RuntimeError:
            pass
        else:
            raise AssertionError("a second install must be refused")
    finally:
        t.uninstall()
    after = current()
    assert all(after[k] is before[k] for k in before)
    t.install(tr.SETUP_SPANS, counts=(), pool=False)
    try:
        during = current()
        assert all(during[(m, a)] is not before[(m, a)]
                   for m, a, *_ in tr.SETUP_SPANS)
    finally:
        t.uninstall()
    assert all(current()[k] is before[k] for k in before)


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        proc = _run("acs_lasso", 0, cwd=tmp)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

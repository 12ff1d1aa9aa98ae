"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --workloads masked_cv --seeds 101-105

For every workload and end-to-end metric it prints the median of the runs,
the quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(third minus first quartile over the median) next to the metric's bound in
BENCHMARK.json.  ``--record-ceilings`` also writes the fpr and fnr ceilings
of perfbench/ceilings.json from the quality of every scored fit seen in the
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Widening of the worst fpr and fnr seen when ceilings are recorded.
RATE_SLACK = 0.25


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = next(json.loads(line)["detail"] for line in lines
                  if line.startswith('{"detail"'))
    return json.loads(lines[-1]), detail, time.perf_counter() - t0


def record_ceilings(details):
    path = os.path.join(HERE, "ceilings.json")
    try:
        with open(path) as fh:
            book = json.load(fh)
    except FileNotFoundError:
        book = {}
    worst = {}
    for detail in details:
        for key, quality in detail["quality"].items():
            metric = key.split("/", 1)[1]
            slot = worst.setdefault(detail["workload"], {}).setdefault(metric, {})
            for q in ("fpr", "fnr"):
                slot[q] = max(slot.get(q, 0.0), quality[q])
    book.setdefault("full", {}).update({
        wl: {metric: {"fpr": min(1.0, q["fpr"] + RATE_SLACK),
                      "fnr": min(1.0, q["fnr"] + RATE_SLACK)}
             for metric, q in metrics.items()}
        for wl, metrics in worst.items()})
    with open(path, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="dense_stagewise,masked_cv,acs_lasso")
    parser.add_argument("--seeds", default="101-110", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--record-ceilings", action="store_true")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    details = []
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            result, detail, took = run_once(workload, seed, seconds)
            details.append(detail)
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" failed={result['failed']}/{result['attempted']}"
                  f" took {took:.1f} s  "
                  + "  ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"  {name:<14} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                  f"  spread {spread:6.3f}  bound {bounds.get(name)}", flush=True)
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "spread.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    if args.record_ceilings:
        record_ceilings(details)
    return 0


if __name__ == "__main__":
    sys.exit(main())

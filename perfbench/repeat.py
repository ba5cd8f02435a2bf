#!/usr/bin/env python3
"""Run each workload k times, one seed per run, and summarize the metrics.

    python3 perfbench/repeat.py [--runs 10] [--workloads a,b] [--seconds S]

Runs use seeds 1..k, untraced.  For every end-to-end metric it prints the
median, the first and third quartiles (as statistics.quantiles(values, n=4)
gives them), the spread (the distance between the quartiles as a share of
the median) and the metric's bound from BENCHMARK.json, and flags a spread
above a third of the bound, which is the steadiness the bounds were set
from.  setup_s is flagged like every other metric, although a spread check
on it is not part of the acceptance of a change: only its median is.
Every run must report correct=true and failed=0; the summary counts those
that did not.  Defaults come from BENCHMARK.json (all workloads,
run_seconds).
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_child(command, timeout=None, **kwargs):
    """subprocess.run that, when interrupted, sends run.py SIGTERM (on which
    it stops its own children) and waits for it before re-raising."""
    with subprocess.Popen(command, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)


def run_once(workload, seed, seconds):
    out = run_child(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        return None, {}
    lines = out.stdout.strip().splitlines()
    meta = json.loads(lines[-2][len("meta "):]) if len(lines) >= 2 else {}
    return json.loads(lines[-1]), meta


def main():
    # Terminating this script also stops the run in flight (run_child stops
    # and reaps its child when the exception unwinds through it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    unsteady = 0
    bad_runs = 0
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in range(1, args.runs + 1):
            result, meta = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"] or result["failed"] != 0:
                bad_runs += 1
                print(f"{workload} seed {seed}: FAILED {result}", file=sys.stderr)
                if result is None:
                    continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) +
                f" (cpu steal {meta.get('cpu_steal_share', 0):.3f})", file=sys.stderr, flush=True)
        print(f"\n{workload} ({len(next(iter(values.values()), []))} runs)")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above bound/3"
                unsteady += 1
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:>6} {units[name]}{flag}")
    print(f"\nruns failed or incorrect: {bad_runs}; metrics above bound/3: {unsteady}")
    sys.exit(1 if bad_runs else 0)


if __name__ == "__main__":
    main()

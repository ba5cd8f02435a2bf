#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (seconds once built).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric with its declared unit,
    reports correct=true and failed=0;
  * a traced run prints every per-layer metric with its declared unit, each
    layer that the workload exercises reads above zero and each layer it
    bypasses reads exactly zero;
  * a run with one deliberately perturbed removal verdict is caught by the
    oracle (correct=false, every record counted as failed);
  * a run with one host's distinct count raised by M/2 is caught: it fails
    the exact workloads, and on the compact workload it adds one host to
    the out-of-envelope count in the meta line (count-only violations of
    the compact envelope are reported, not failed; see README.md), which
    the exact workloads' traced runs must report as zero.
Then it checks that run.py exits non-zero without a result in a directory
that holds only BENCHMARK.json and perfbench/ (no library sources).
"""
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.02"]
SECONDS = "0.3"

FILE = {"contain-exact", "contain-compact"}
SERVE = {"serve-loopback"}
ALL = FILE | SERVE
# Workloads on which each per-layer metric must read above zero; elsewhere
# it must read exactly zero.  None: any finite value (signed ratios, and a
# drop count that is zero when the journal keeps up).
EXERCISED = {
    "trace.verify_ms": FILE,
    "trace.next_batch_ns_per_rec": FILE,
    "pipeline.feed_ns_per_rec": ALL,
    "route.ns_per_rec": ALL,
    "transport.handoff_ns_per_batch": ALL,
    "counter.add_ns_per_rec": ALL,
    "pipeline.counter_mib": ALL,
    "policy.on_scan_ns": ALL,
    "pipeline.checkpoint_ms": {"contain-exact"},
    "pipeline.checkpoint_mib": {"contain-exact"},
    "pipeline.finish_ms": ALL,
    "verdict.csv_ms": ALL,
    "pipeline.queue_high_water": ALL,
    "pipeline.removal_lag_p50_ms": FILE,
    "pipeline.removal_lag_p99_ms": FILE,
    "wire.encode_ns_per_rec": SERVE,
    "wire.decode_ns_per_rec": SERVE,
    "node.bytes_per_rec": SERVE,
    "node.ingest_s": SERVE,
    "node.drain_ms": SERVE,
    "obs.render_ms": SERVE,
    "obs.collect_ms": SERVE,
    "obs.events": SERVE,
    "obs.events_dropped": None,
    "oracle.ns_per_rec": ALL,
    "oracle.compact_out_of_envelope": None,
    "ladder.residual_share": None,
    "trace.overhead_share": None,
}

failures = []


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


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}", flush=True)


def run(workload, trace, extra=(), cwd=ROOT, env=None):
    out = run_child(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), *TINY, *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return out


def result_of(out, label):
    check(out.returncode == 0, f"{label}: exit code {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: no JSON result line")
        return None
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(len(lines) >= 2 and lines[-2].startswith("meta {"), f"{label}: no meta line")
    return result


def meta_of(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2][len("meta "):]) if len(lines) >= 2 else {}


def check_metrics(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{label}: metrics/units {got} != declared {want}")


def main():
    # Terminating this script also stops the run in flight (run_child stops
    # and reaps its child when the exception unwinds through it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(EXERCISED) == {m["name"] for m in spec["per_layer"]},
          "selftest's layer table and BENCHMARK.json per_layer disagree")

    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}", flush=True)
        out = run(workload, 0)
        result = result_of(out, f"{workload} untraced")
        base_out_of_envelope = meta_of(out).get("compact_out_of_envelope")
        if result:
            check_metrics(result, spec["end_to_end"], f"{workload} untraced")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} untraced: correct={result['correct']} failed={result['failed']}")

        result = result_of(run(workload, 1), f"{workload} traced")
        if result:
            check_metrics(result, spec["per_layer"], f"{workload} traced")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} traced: correct={result['correct']} failed={result['failed']}")
            if workload != "contain-compact":
                value = result["metrics"].get("oracle.compact_out_of_envelope", {}).get("value")
                check(value == 0, f"{workload} traced: oracle.compact_out_of_envelope = {value}, "
                      "expected 0")
            for name, m in result["metrics"].items():
                exercised = EXERCISED.get(name)
                if exercised is None:
                    continue
                if workload in exercised:
                    check(m["value"] > 0, f"{workload} traced: {name} = {m['value']}, expected > 0")
                else:
                    check(m["value"] == 0, f"{workload} traced: {name} = {m['value']}, expected 0")

        result = result_of(run(workload, 0, ["--perturb", "removal"]),
                           f"{workload} perturbed removal")
        if result:
            check(not result["correct"] and result["failed"] == result["attempted"],
                  f"{workload} perturbed removal: the oracle did not catch the bad verdict: "
                  f"correct={result['correct']} failed={result['failed']}")

        out = run(workload, 0, ["--perturb", "count"])
        result = result_of(out, f"{workload} perturbed count")
        if result and workload == "contain-compact":
            got = meta_of(out).get("compact_out_of_envelope")
            check(base_out_of_envelope is not None and got == base_out_of_envelope + 1,
                  f"{workload} perturbed count: out-of-envelope hosts {got}, "
                  f"unperturbed {base_out_of_envelope}")
        elif result:
            check(not result["correct"] and result["failed"] == result["attempted"],
                  f"{workload} perturbed count: the oracle did not catch the bad count: "
                  f"correct={result['correct']} failed={result['failed']}")

    print("== bare directory (no library sources)", flush=True)
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = run("contain-exact", 0, cwd=bare, env=env)
    check(out.returncode != 0, "bare directory: run.py exited 0")
    check('"correct"' not in out.stdout, "bare directory: run.py printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

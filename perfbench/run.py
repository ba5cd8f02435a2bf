#!/usr/bin/env python3
"""Build and run the containment benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first call configures and builds
perfbench/ (a CMake project that compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only rebuild what changed.  The last line of standard output is
the JSON result; the line before it ("meta {...}") records host, cores,
build type, compiler, WORMS_OBS, commit, seed, input sizes and the count of
compact hosts outside the DESIGN.md §13 envelope.  Any other flag (--scale F,
--perturb removal|count) is passed through to the program; the self-test
uses them.  Exits non-zero without a result when the build or run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

PROGRAM_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(command, timeout=None, **kwargs):
    """subprocess.run in a process group of its own.  When interrupted (a
    timeout, SIGTERM, Ctrl-C) it kills the whole group, a build's compiler
    processes included, and waits for the child before re-raising."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(root, "src", "CMakeLists.txt")
    ):
        fail(f"no library sources under {root} (CMakeLists.txt and src/ are required)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_child(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = run_child(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def commit_of(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()
    # A terminated run stops the program too: the exception unwinds through
    # run_child, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(root, ".bench_build"))
    program = build(root, os.path.join(build_root, "perfbench"))

    workdir = os.path.join(build_root, "work", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir,
               "--commit", commit_of(root)]
    if args.trace == "1":
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    command += passthrough
    try:
        run = run_child(command, stdout=subprocess.PIPE, text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {PROGRAM_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        fail("the program printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

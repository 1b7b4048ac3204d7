#!/usr/bin/env python3
"""Runs one workload of the pipeline benchmark and prints one JSON result line.

    python3 bench/pipeline/run.py --workload wal --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds bench_pipeline from the checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the workload with TMPDIR inside the build directory so
every file the run writes (WAL segments, the loopback socket, spans) stays
in the checkout. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with BENCHMARK.json's end_to_end metrics under --trace 0 and its per_layer
metrics under --trace 1 (which adds the traced trial). `attempted` and
`failed` count user runs. Exits non-zero without a result line when the
build fails or a metric is missing, and with status 1 after the line when a
correctness gate failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds bench_pipeline; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "bench/pipeline", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bench_pipeline",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "bench_pipeline")


def run(command, env):
    """Runs the benchmark in its own process group; on timeout the whole
    group (bench_pipeline and its per-workload child) is killed and
    reaped."""
    process = subprocess.Popen(command, env=env, stdout=sys.stderr,
                               start_new_session=True)

    def stop(signum, _frame):
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log(f"bench_pipeline timed out after {RUN_TIMEOUT_S} s")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    started = time.monotonic()
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1
    log(f"build: {time.monotonic() - started:.1f} s")

    # Relative paths keep the loopback socket path within sun_path's 108
    # bytes wherever the checkout lives.
    tmp_dir = os.path.join(build_dir, "tmp")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={result_path}"]
    if args.trace:
        command.append("--trace=" + os.path.join(build_dir, "trace"))
    status = run(command, dict(os.environ, TMPDIR=tmp_dir))
    if status is None:
        return 1
    try:
        with open(result_path) as f:
            workload = json.load(f)["workloads"][0]
        values = workload["layers" if args.trace else "metrics"]
        metrics = {}
        for m in listed:
            entry = values[m["name"]]
            metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    except (OSError, ValueError, KeyError, IndexError) as e:
        log(f"no usable result from bench_pipeline (exit {status}): {e!r}")
        return 1
    if any(not isinstance(m["value"], (int, float)) for m in metrics.values()):
        log("a metric has no value")
        return 1

    correct = (status == 0 and workload["gate_failures"] == 0
               and workload["failed_runs"] == 0)
    print(json.dumps({"correct": correct,
                      "attempted": workload["attempted_runs"],
                      "failed": workload["failed_runs"],
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

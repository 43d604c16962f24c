#!/usr/bin/env python3
"""Builds bipie_bench from source and runs one workload of the benchmark.

    python3 bench_e2e/run.py --workload q1_scan --seed 7 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
bipie library and the benchmark into .bench_build/ (or $CARGO_TARGET_DIR);
later calls only rebuild what changed. The benchmark's own output is passed
through: its last line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 makes the separate traced run, which reports
the per-layer metrics and writes its spans to .bench_build/trace_<workload>.json.

Exits non-zero without printing a result when the sources are missing, the
build fails, the run fails or times out, or the metrics it reports are not
exactly the ones BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("q1_scan", "q6_scan", "server_mix", "ingest_window")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("bipie sources (src/) not found next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bipie_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name, unit) pairs the run must report, sorted; duplicates kept."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return sorted((m["name"], m["unit"]) for m in spec[key])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "bipie_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work_dir)]
    if args.trace:
        cmd += ["--trace", str(build_dir / f"trace_{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"bipie_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    got = sorted((name, m["unit"]) for name, m in result["metrics"].items())
    want = expected_metrics(args.trace)
    if got != want:
        fail("reported (metric, unit) pairs differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}"
             + (", duplicates in BENCHMARK.json" if len(set(want)) < len(want)
                else ""))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()

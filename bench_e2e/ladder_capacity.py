#!/usr/bin/env python3
"""Derives server_mix's latency objective and rate ladder from run logs.

    python3 bench_e2e/ladder_capacity.py --slo-ms 18 LOG...

Each LOG is the full output of a server_mix run (bench_e2e/run.py passes
bipie_bench's output through). From the logs' "unloaded: p50 X ms" lines it
prints the median unloaded p50, ten times which is the objective. From the
logs' ladder step lines (traced runs, or runs of an earlier ladder) it
prints, per log, the capacity within --slo-ms as MaxRateWithinSlo in
src/server_workload.cc computes it: the offered rate of the last step whose
tail is within the objective and whose backlog did not grow, interpolated
in log-latency toward the first step that fails. Then the median capacity,
20/40/60/90/120% of it (the ladder's fractions), and the median over the
logs of the highest achieved rate of any step.
"""
import argparse
import math
import re
import statistics

STEP = re.compile(r"^\s+(\w+)\s+offered\s+([\d.]+) qps achieved\s+([\d.]+) "
                  r"\| p50\s+[\d.]+ ms p[\d.]+\s+([\d.]+) ms .*?"
                  r"(\| backlog grew)?$")
UNLOADED = re.compile(r"^\s+unloaded: p50 ([\d.]+) ms")
FRACTIONS = (0.2, 0.4, 0.6, 0.9, 1.2)


def capacity(steps, slo):
    """steps: [(offered qps, tail ms, backlog grew)] in ladder order."""
    for i, (rate, tail, grew) in enumerate(steps):
        if not grew and 0 < tail <= slo:
            continue
        tail_hi = max(tail, slo * 1.0001)
        rate_lo = 0.0 if i == 0 else steps[i - 1][0]
        tail_lo = min(slo / 10, tail_hi) if i == 0 else steps[i - 1][1]
        f = ((math.log(slo) - math.log(tail_lo)) /
             (math.log(tail_hi) - math.log(tail_lo)))
        return rate_lo + min(max(f, 0.0), 1.0) * (rate - rate_lo)
    return steps[-1][0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slo-ms", type=float, required=True)
    parser.add_argument("logs", nargs="+")
    args = parser.parse_args()

    p50s, caps, achieved = [], [], []
    for path in args.logs:
        steps, best = [], 0.0
        with open(path) as f:
            for line in f:
                if m := UNLOADED.match(line):
                    p50s.append(float(m[1]))
                elif m := STEP.match(line):
                    steps.append((float(m[2]), float(m[4]), bool(m[5])))
                    best = max(best, float(m[3]))
        if steps:
            caps.append(capacity(steps, args.slo_ms))
            achieved.append(best)
            print(f"{path}: capacity {caps[-1]:.1f} qps, tails "
                  + " ".join(f"{t:.1f}" for _, t, _ in steps) + " ms")
    if p50s:
        print(f"unloaded p50 over {len(p50s)} logs: median "
              f"{statistics.median(p50s):.3f} ms -> objective "
              f"{10 * statistics.median(p50s):.1f} ms")
    if caps:
        med = statistics.median(caps)
        q1, _, q3 = statistics.quantiles(caps, n=4)
        print(f"capacity within {args.slo_ms:g} ms over {len(caps)} logs: "
              f"median {med:.1f} qps (quartiles {q1:.1f}, {q3:.1f})")
        print("ladder: " + " ".join(f"{f * med:.0f}" for f in FRACTIONS))
        print(f"highest achieved rate: median {statistics.median(achieved):.1f}"
              " qps")


if __name__ == "__main__":
    main()

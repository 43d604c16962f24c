#!/usr/bin/env python3
"""Checks two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench_e2e/compare_runs.py SET_A SET_B [--benchmark BENCHMARK.json]

A set is a directory with one result per run, named <workload>.seed<N>.json
(timed runs) or <workload>.seed<N>.trace.json (traced runs), each holding the
JSON line bench_e2e/run.py prints last. For every workload and metric the
report gives each set's run count, median and quartiles (as
statistics.quantiles(values, n=4) computes them) and the spread, the
distance between the quartiles as a share of the median. It flags:

  * an end-to-end metric whose medians differ by more than its bound, or
    whose spread in either set exceeds its bound, or half of it (a bound
    must be at least twice the spread); setup_s is exempt from both spread
    rules, as in the acceptance check of the benchmark;
  * a count (unit "count") whose values are not identical in both sets;
  * a traced run outside its validity range: core.replay_coverage outside
    [0.9, 1.1] on the scan workloads, server.loadgen_lag_ms.p99 above 1 ms.

Exit status 0 when nothing is flagged, 1 otherwise.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# (workloads, metric) -> inclusive range every traced run must fall in.
VALIDITY = [
    (("q1_scan", "q6_scan"), "core.replay_coverage", 0.9, 1.1),
    (("server_mix",), "server.loadgen_lag_ms.p99", 0.0, 1.0),
]


def load_set(directory):
    """{workload: {metric: [values]}} from <workload>.seed<N>.json files."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.seed*.json")):
        workload = path.name.split(".seed")[0]
        result = json.loads(path.read_text().strip().split("\n")[-1])
        if not result.get("correct"):
            raise SystemExit(f"{path}: run reported correct=false")
        for name, metric in result["metrics"].items():
            runs[workload][name].append(metric["value"])
    if not runs:
        raise SystemExit(f"{directory}: no <workload>.seed<N>.json files")
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    spread = (p75 - p25) / med if med else 0.0
    return med, p25, p75, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_set(args.set_a), load_set(args.set_b)

    flags = []
    header = (f"{'workload':14} {'metric':36} {'n':>5} {'median A':>12} "
              f"{'median B':>12} {'delta':>8} {'spread A':>9} {'spread B':>9} "
              f"{'bound':>6}  flag")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(a) | set(b)):
        for name in units:
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            ma, lo_a, hi_a, sa = summary(va)
            mb, lo_b, hi_b, sb = summary(vb)
            delta = (mb - ma) / ma if ma else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if abs(delta) > bound:
                    flag = "MEDIANS DIFFER"
                elif name != "setup_s" and max(sa, sb) > bound:
                    flag = "SPREAD OVER BOUND"
                elif name != "setup_s" and max(sa, sb) > bound / 2:
                    flag = "SPREAD OVER HALF BOUND"
            elif units[name] == "count" and sorted(va) != sorted(vb):
                flag = "COUNTS DIFFER"
            for workloads, metric, lo, hi in VALIDITY:
                if (workload in workloads and name == metric and
                        not all(lo <= v <= hi for v in va + vb)):
                    flag = f"OUTSIDE [{lo}, {hi}]"
            if flag:
                flags.append((workload, name, flag))
            print(f"{workload:14} {name:36} {len(va):>2}/{len(vb):<2} "
                  f"{ma:12.5g} {mb:12.5g} {delta:+8.3f} {sa:9.4f} {sb:9.4f} "
                  f"{'' if bound is None else bound:>6}  {flag}")
            print(f"{'':14} {'':36} {'':5} [{lo_a:.5g}, {hi_a:.5g}] vs "
                  f"[{lo_b:.5g}, {hi_b:.5g}]")
    print()
    if flags:
        print(f"{len(flags)} flagged:")
        for workload, name, flag in flags:
            print(f"  {workload} {name}: {flag}")
        return 1
    print("no metric flagged: the sets agree within every bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarizes a spans file written by a traced bipie_bench run.

    python3 bench_e2e/trace_summary.py .bench_build/trace_q1_scan.json

For every span name: how many spans, their total and mean duration, and
their self time, the duration minus the part of it that child spans cover.
Then the per-layer counters attached to spans (args), summed per name.
"""
import argparse
import json
from collections import defaultdict


def covered_ns(children):
    """Length of the union of the children's [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(children):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    args = parser.parse_args()
    with open(args.spans) as f:
        spans = json.load(f)["spans"]

    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    count = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    arg_sums = defaultdict(lambda: defaultdict(float))
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        name = s["name"]
        count[name] += 1
        total_ns[name] += duration
        self_ns[name] += duration - covered_ns(children[s["id"]])
        for key, value in s["args"].items():
            if key != "segment":  # an index, not a count
                arg_sums[name][key] += value

    queries = len({s["query"] for s in spans})
    print(f"{len(spans)} spans over {queries} queries")
    print(f"{'span':28} {'count':>8} {'total ms':>12} {'mean us':>10} "
          f"{'self ms':>12}")
    for name in sorted(count):
        print(f"{name:28} {count[name]:8d} {total_ns[name] / 1e6:12.3f} "
              f"{total_ns[name] / count[name] / 1e3:10.1f} "
              f"{self_ns[name] / 1e6:12.3f}")
    for name in sorted(arg_sums):
        print(f"\nargs summed over {name} spans:")
        for key, value in sorted(arg_sums[name].items()):
            print(f"  {key:28} {value:20.6g}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end figures are.

Runs the command of BENCHMARK.json once per (seed, workload), untraced,
and reports for each end-to-end metric of each workload its per-run
values, median, quartiles and spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. A spread must stay within the metric's bound; the aim is a third
of it. With ``--out`` the set is appended to
a JSON file, and when that file already holds a set, each median is also
compared with the first set's.

Run from the root of the repository:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness.json

Exits nonzero when a spread exceeds its bound, a median moved by more than
its bound against the first recorded set, or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--out", help="JSON file to append this set to")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    seeds = seed_range(args.seeds)

    runs = {w: [] for w in workloads}
    for seed in seeds:
        # Workloads take turns, so slow drift of the host spreads evenly
        # over them instead of landing on one.
        for workload in workloads:
            values, elapsed = run_once(bench, workload, seed)
            runs[workload].append(values)
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)

    previous = None
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            previous = json.load(f)

    ok = True
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        print(f"\n{workload} ({len(seeds)} runs, seeds {args.seeds})")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, spec in metrics.items():
            stats = summarize([r[name] for r in runs[workload]])
            summary[workload][name] = stats
            flag = ""
            if stats["spread"] > spec["bound"]:
                flag, ok = " SPREAD>BOUND", False
            elif stats["spread"] > spec["bound"] / 3:
                flag = " (above a third of the bound)"
            if previous:
                first = previous["sets"][0]["summary"].get(workload, {}).get(name)
                if first:
                    moved = worse_by(first["median"], stats["median"], spec["better"])
                    stats["worse_than_first_set"] = moved
                    if moved > spec["bound"]:
                        flag, ok = flag + f" MEDIAN WORSE BY {moved:.3f}", False
            print(
                f"  {name:<16} {stats['median']:>12.5g} {stats['q1']:>12.5g} "
                f"{stats['q3']:>12.5g} {stats['spread']:>7.3f} {spec['bound']:>6}{flag}"
            )

    if args.out:
        record = previous or {"sets": []}
        record["sets"].append({
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "cpus": os.cpu_count(),
            "summary": summary,
        })
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload sai_waves --seeds 1-10

Each seed is one untraced run (--trace 0) of run_seconds from
BENCHMARK.json. For every end-to-end metric it prints the median of the runs, their first
and third quartiles (statistics.quantiles(values, n=4)) and the quartile
spread as a share of the median, next to the metric's bound in
BENCHMARK.json; a spread above a third of the bound is flagged. It also
checks the deterministic counters: the first seed is run twice and must
print identical counters, and different seeds must not all print the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s\n%s" %
                 (seed, out.returncode, out.stdout, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    deterministic = next(
        (l.split(":", 1)[1].strip() for l in lines
         if l.startswith("deterministic:")), "")
    return result, deterministic


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    fingerprints = []
    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        result, deterministic = run_once(args.workload, seed, seconds)
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: output check failed: %s" % (seed, result))
        fingerprints.append(deterministic)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)

    print("\n%-26s %14s %14s %14s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above bound/3"
            steady = False
        print("%-26s %14.6g %14.6g %14.6g %8.4f %8s%s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, flag))

    again, repeat = run_once(args.workload, seeds[0], seconds)
    del again
    print("\ndeterministic counters repeat for seed %d: %s" %
          (seeds[0], "yes" if repeat == fingerprints[0] else "NO"))
    distinct = len(set(fingerprints))
    print("distinct deterministic counter sets over %d seeds: %d" %
          (len(seeds), distinct))
    ok = repeat == fingerprints[0] and (len(seeds) < 2 or distinct > 1)
    print("steady: %s" % ("yes" if steady else "no"))
    return 0 if ok and steady else 1


if __name__ == "__main__":
    sys.exit(main())

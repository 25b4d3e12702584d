#!/usr/bin/env python3
"""Check that the benchmark is steady: two independent sets of runs agree.

    python3 perfbench/steady.py [--runs N] [--first-seed S]

Runs every workload of BENCHMARK.json N times per set (each run with its
own seed; set 2 uses seeds after set 1's) through perfbench/run.py with
--trace 0, then prints each end-to-end metric's median and quartiles per
set.  Exits nonzero when
  * a run fails, reports correct=false, or the sets' shares of failed
    operations differ;
  * a metric's spread (Q3 - Q1) / median exceeds its bound in
    BENCHMARK.json;
  * set 2's median differs from set 1's, either way, by more than the
    bound.
A spread above a third of the bound is flagged as a warning.  Raw results
go to .bench_build/perfbench/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    raw = {}
    problems = []
    for s in (0, 1):
        for workload in workloads:
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                try:
                    result = run_once(workload, seed, seconds)
                except RuntimeError as e:
                    problems.append(str(e))
                    continue
                if not result["correct"]:
                    problems.append(f"{workload} seed {seed}: incorrect")
                raw.setdefault(workload, [[], []])[s].append(result)
                print(f"set {s + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.6g}"
                    for k, v in result["metrics"].items()), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"),
                exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench", "steady.json"),
              "w") as f:
        json.dump(raw, f, indent=1)
    print()
    print(f"{'workload':16} {'metric':15} {'set':>3} {'median':>12} "
          f"{'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for workload, sets in raw.items():
        if min(len(sets[0]), len(sets[1])) < 2:
            problems.append(f"{workload}: too few runs to compare")
            continue
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets]
        if shares[0] != shares[1]:
            problems.append(f"{workload}: failed share {shares[0]} vs "
                            f"{shares[1]}")
        for name, m in bounds.items():
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                flag = ""
                if spread > m["bound"]:
                    flag = "  FAIL spread"
                    problems.append(f"{workload} {name} set {s + 1}: "
                                    f"spread {spread:.4f} > {m['bound']}")
                elif spread > m["bound"] / 3:
                    flag = "  warn: above a third of the bound"
                print(f"{workload:16} {name:15} {s + 1:>3} {median:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:7.4f} "
                      f"{m['bound']:6}{flag}")
            drift = (medians[1] - medians[0]) / medians[0]
            if abs(drift) > m["bound"]:
                problems.append(f"{workload} {name}: set 2 median differs by "
                                f"{drift:+.4f}, beyond {m['bound']}")
            print(f"{workload:16} {name:15} set 2 vs set 1: {drift:+.4f}")
    for p in problems:
        print(f"FAIL {p}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

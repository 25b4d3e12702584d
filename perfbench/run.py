#!/usr/bin/env python3
"""Build and run the hpcsched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (the simulator's libraries from src/ plus
the benchmark binary) under .bench_build/perfbench in Release mode, then
runs one workload.  Build output goes to stderr; the binary's last stdout
line is the result JSON.  With --trace 1 the Chrome/Perfetto trace lands in
.bench_build/perfbench/traces/.  The result's metric names and units are
checked against BENCHMARK.json; a mismatch exits nonzero.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hpcs_perfbench")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(__doc__.strip())
        return 0
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = list(argv)
    trace = False
    if "--trace" in args:
        i = args.index("--trace")
        trace = i + 1 < len(args) and args[i + 1] != "0"
    if trace and "--trace-out" not in args and "--workload" in args:
        workload = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, f"{workload}-seed{seed}.json")]
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--self-test" in args:
        return proc.returncode
    want = expected_metrics(trace)
    lines = proc.stdout.strip().splitlines()
    if want is None or not lines:
        return 0 if lines else 1
    got = {(name, m["unit"])
           for name, m in json.loads(lines[-1])["metrics"].items()}
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(want - got)}, extra {sorted(got - want)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

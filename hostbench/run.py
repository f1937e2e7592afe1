#!/usr/bin/env python3
"""Host-cost benchmark entry point.

Builds the simulator library and the hostbench driver from source (CMake,
Release) under .bench_build/hostbench in the repository root, then runs one
workload and passes the driver's output through. The last line of standard
output is the JSON result document; build output goes to standard error.

    python3 hostbench/run.py --workload scale_2k --seed 1 --seconds 35 --trace 0

See hostbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("scale_2k", "halo_fattree", "protocol_sweep")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (first time) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "hostbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "hostbench")
    try:
        exe = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    # Result stores of the sweep passes live here for the run's duration.
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--workdir={work_dir}"],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the live TIV monitor benchmark (see README.md).

    python3 livebench/run.py --workload monitor_steady --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds livebench/ (library sources from src/) under .bench_build; later
runs reuse the build. Tile-store files go to a per-run directory inside
the build directory and are removed afterwards. The last stdout line is
the result JSON of live_monitor_bench, and the exit status is its status
(nonzero when a correctness check failed).
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("monitor_steady", "monitor_storm", "inmem_analysis")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"livebench: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(src_dir, "..", "src", "core",
                                       "severity.hpp")):
        raise RuntimeError("library sources (src/) not found next to "
                           "livebench/; run from a full source checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    binary = os.path.join(build_dir, "live_monitor_bench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    if os.path.getmtime(binary) != before:
        # Warm-up count fingerprints are only comparable within one build.
        counts = counts_file(build_dir)
        if os.path.exists(counts):
            os.remove(counts)
    return binary


def counts_file(build_dir):
    return os.path.join(build_dir, "warmup_counts.txt")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src_dir = os.path.join(root, "livebench")
    build_dir = os.path.join(root, ".bench_build", "livebench")
    try:
        binary = build(src_dir, build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", work_dir,
           "--counts-file", counts_file(build_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        log(f"driver exited with status {proc.returncode}")
        return proc.returncode or 4
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

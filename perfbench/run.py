#!/usr/bin/env python3
# Copyright 2026 The claks Authors.
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the claks library from
src/ plus the perfbench driver) into .bench_build/; later calls rebuild
incrementally. The last line of standard output is the result JSON
printed by the perfbench program. Exits non-zero when the build fails or
the run crashes (then without a result line) and when a correctness check
fails (then with "correct": false).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("interactive", "analytic", "churn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def source_sha():
    """The git commit when available, else a digest of src/ and perfbench/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()


def build():
    """Configures (once) and builds; returns the binary path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--source-sha", source_sha()]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        # A crash: keep the diagnostics, print no result line.
        for line in lines:
            print(line, file=sys.stderr)
        log("run failed with exit code %d" % proc.returncode)
        return proc.returncode or 1
    # A correctness failure still prints its result (correct: false) and
    # keeps the program's non-zero exit code.
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

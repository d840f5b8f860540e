#!/usr/bin/env python3
"""Builds bench_ledger from this checkout and runs one workload.

    python3 bench_ledger/run.py --workload train-pup --seed 1 --seconds 15 --trace 0

Run it from the repository root. The first call configures and builds the
library and the benchmark in .bench_build/ (Release); later calls rebuild
only what changed. Build output is shown (on stderr) only when the build
fails, so the benchmark's stdout, whose last line is the JSON result,
passes through unchanged.
Extra flags (--out FILE, --trace-out FILE) go to the benchmark as given.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_ledger")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_ledger")


def build():
    steps = [["cmake", "--build", BUILD_DIR, "--target", "bench_ledger",
              "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, step)


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no library sources (CMakeLists.txt, src/) next to "
              "bench_ledger/; run it from a full checkout", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.join(BUILD_DIR, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--work-dir", work, "--rev", revision()] + argv
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

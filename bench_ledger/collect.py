#!/usr/bin/env python3
"""Runs the ledger over several seeds and keeps every result file.

One checkout:

    python3 bench_ledger/collect.py --out-dir runs/base --seeds 1-10

Two checkouts, alternating which one runs first for each seed (the
parent/change pairs that bench_diff.py compares):

    python3 bench_ledger/collect.py --out-dir runs --seeds 1-10 \\
        --side parent=../pup-parent --side change=.

Each run is `python3 <checkout>/bench_ledger/run.py --workload W --seed N
--seconds S --trace 0 --out <out-dir>[/<side>]/<W>-seed<N>.json`, started
in the checkout, for every workload W of BENCHMARK.json and its
run_seconds S.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(checkout, workload, seed, seconds, out_file):
    cmd = [sys.executable, os.path.join(checkout, "bench_ledger", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--out", os.path.abspath(out_file)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{os.path.basename(out_file)}: exit {proc.returncode} {last[0]}",
          flush=True)
    return proc.returncode


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--side", action="append", default=[],
                    help="NAME=CHECKOUT; give two to alternate A/B pairs")
    args = ap.parse_args()

    sides = ([s.split("=", 1) for s in args.side] or
             [["", os.path.dirname(HERE)]])
    for name, _ in sides:
        os.makedirs(os.path.join(args.out_dir, name), exist_ok=True)
    failures = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else list(reversed(sides))
        for workload in (w["name"] for w in spec["workloads"]):
            for name, checkout in order:
                out = os.path.join(args.out_dir, name,
                                   f"{workload}-seed{seed}.json")
                failures += run_one(os.path.abspath(checkout), workload, seed,
                                    spec["run_seconds"], out) != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

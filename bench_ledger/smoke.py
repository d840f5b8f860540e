#!/usr/bin/env python3
"""Smoke test of the ledger: every workload, briefly, untraced and traced.

    python3 bench_ledger/smoke.py BENCH_LEDGER_BINARY BENCHMARK_JSON WORK_DIR

Asserts that each run exits 0 with no failed operation, prints every
metric BENCHMARK.json names (end-to-end untraced, per-layer traced) with
its unit, and that the traced run writes a chrome://tracing file.
Registered as the `ledger_smoke` ctest of the bench_ledger build.
"""
import json
import os
import subprocess
import sys


def run(binary, work, workload, trace):
    trace_file = os.path.join(work, f"smoke-{workload}.trace.json")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--work-dir", work, "--trace-out",
           trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, lines, result, trace_file


def main():
    binary, benchmark, work = sys.argv[1:4]
    with open(benchmark) as f:
        spec = json.load(f)
    os.makedirs(work, exist_ok=True)
    errors = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result, trace_file = run(binary, work, w, trace)
            where = f"{w} --trace {trace}"
            if code != 0:
                errors.append(f"{where}: exit {code}")
            if result.get("failed", 1) != 0 or not result.get("correct"):
                errors.append(f"{where}: failed operations or checks")
            printed = {tuple(l.split()[1::2]) for l in lines
                       if l.startswith(w + " ")}
            for m in spec[group]:
                if (m["name"], m["unit"]) not in printed:
                    errors.append(f"{where}: {m['name']} [{m['unit']}] "
                                  "not printed")
                if result.get("metrics", {}).get(m["name"], {}).get(
                        "unit") != m["unit"]:
                    errors.append(f"{where}: {m['name']} missing from JSON")
            if trace and not (os.path.exists(trace_file) and
                              os.path.getsize(trace_file) > 2):
                errors.append(f"{where}: no trace written")
    for e in errors:
        print(e, file=sys.stderr)
    print("ledger_smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

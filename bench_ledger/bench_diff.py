#!/usr/bin/env python3
"""Compares two directories of ledger runs, metric by metric.

    python3 bench_ledger/bench_diff.py runs/parent runs/change

Each directory holds the `--out` files of bench_ledger runs (collect.py
writes them as <workload>-seed<N>.json). For every workload and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the share of seed-matched pairs the change wins, and a verdict:

  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range, in its favour
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread is wider than the bound, so a change
              within it cannot be told from noise (unless every change run
              beats every parent run)
  unchanged   otherwise

It also compares the error rate (failed / attempted) and flags any rise.
Exit status is 1 when any row is `worse`.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if run.get("trace", 0) != 0:
            continue
        runs.setdefault(run["workload"], {})[run["seed"]] = run["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, lower_is_better, bound):
    """Applies the gain and regression rules to one (workload, metric)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "better", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    if pm != 0 and -gain / abs(pm) > bound:
        return "worse", wins
    return "unchanged", wins


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)

    parent, change = load(args.parent), load(args.change)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent and w["name"] in change]
    if not workloads:
        print("bench_diff: no workload has runs on both sides",
              file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6} verdict")
    for w in workloads:
        seeds = sorted(set(parent[w]) & set(change[w]))
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent[w].values()]
            cv = [r["metrics"][name]["value"] for r in change[w].values()]
            pairs = [(parent[w][s]["metrics"][name]["value"],
                      change[w][s]["metrics"][name]["value"]) for s in seeds]
            v, wins = verdict(pv, cv, pairs, m["better"] == "lower",
                              m["bound"])
            worse |= v == "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            delta = (cm - pm) / pm * 100 if pm else 0.0
            print(f"{w:<12} {name:<17} "
                  f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + ']':>32} "
                  f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + ']':>32} "
                  f"{delta:+7.1f}% {wins:>2}/{len(pairs):<3} {v}")

        def rate(runs):
            att = sum(r["attempted"] for r in runs.values())
            return sum(r["failed"] for r in runs.values()) / max(att, 1)
        pr, cr = rate(parent[w]), rate(change[w])
        v = "worse" if cr > pr else "unchanged"
        worse |= v == "worse"
        print(f"{w:<12} {'error_rate':<17} {fmt(pr):>32} {fmt(cr):>32} "
              f"{'':>8} {'':>6} {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

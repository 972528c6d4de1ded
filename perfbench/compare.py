#!/usr/bin/env python3
"""Compares two sets of benchmark results, or reports the spread of one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread RUNS_DIR
    python3 perfbench/compare.py --trace 1 PARENT_DIR CHANGE_DIR

Only runs made with the given --trace value (default 0, the end-to-end
metrics) are read; --trace 1 compares the per-layer metrics of traced runs.

A results directory holds JSON files, one per run: either the detail files
perfbench writes to .bench_out/ (<workload>-seed<N>-trace<T>.json) or a saved
last line of run.py's output in a file named <workload>-<seed>.json.

For every workload and metric the comparison prints each side's median and
quartiles, the pairs the change won (runs paired by seed when both sides used
the same seeds, else in sorted seed order), and a verdict:

  gain         the change won at least 9/10 of the pairs (ties count for
               neither side) and the medians differ by more than the parent's
               interquartile range;
  regression   the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
  unresolved   either side's spread (IQR / median) is wider than the bound,
               unless every change run beat every parent run;
  same         none of the above.

Per-layer metrics have no bound, so they can only read gain or same.
A gain does not count when the change failed more operations on that workload
than the parent: it then reads unresolved. The exit status is 1 when any
end-to-end metric regressed.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

WORKLOADS = ("hot_replay", "cold_sweep", "churn_session")


def load_runs(directory, trace=0):
    """Returns {workload: [(seed, metrics, failed)]} for the JSON files in
    directory that hold runs made with --trace `trace`; `failed` counts the
    run's failed operations, at least one when it was not correct."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        if not lines:
            continue
        doc = json.loads(lines[-1])
        name = os.path.basename(path)
        if "result" in doc:
            if doc.get("trace", 0) != trace:
                continue
            workload, seed, result = doc["workload"], doc["seed"], doc["result"]
        else:
            if ("latency_p50_us" in doc.get("metrics", {})) == bool(trace):
                continue
            workload = next((w for w in WORKLOADS if name.startswith(w)), None)
            m = re.search(r"(\d+)(?:-trace\d)?\.json$", name)
            if workload is None or m is None:
                continue
            seed, result = int(m.group(1)), doc
        failed = max(int(result.get("failed", 0)), 0 if result.get("correct") else 1)
        if failed:
            print(f"warning: {path}: run was not correct or had failed ops",
                  file=sys.stderr)
        runs.setdefault(workload, []).append((seed, result["metrics"], failed))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec_table(bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    spec = {}
    for m in bench["end_to_end"]:
        spec[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        spec[m["name"]] = (m["better"], None)
    return spec


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    gap = sign * (cmed - pmed)
    if pairs and won >= 0.9 * len(pairs) and gap > (pq3 - pq1):
        v = "gain"
    elif bound is not None and pmed != 0 and -gap / abs(pmed) > bound:
        v = "regression"
    elif bound is not None and not all_better and pmed != 0 and cmed != 0 and (
            (pq3 - pq1) / abs(pmed) > bound or (cq3 - cq1) / abs(cmed) > bound):
        v = "unresolved"
    else:
        v = "same"
    return (pq1, pmed, pq3), (cq1, cmed, cq3), won, len(pairs), v


def paired(parent_runs, change_runs):
    p = {seed: m for seed, m, _ in parent_runs}
    c = {seed: m for seed, m, _ in change_runs}
    if set(p) == set(c):
        seeds = sorted(p)
        return [p[s] for s in seeds], [c[s] for s in seeds]
    return ([m for _, m, _ in sorted(parent_runs, key=lambda r: r[0])],
            [m for _, m, _ in sorted(change_runs, key=lambda r: r[0])])


def compare(parent_dir, change_dir, spec, trace):
    parent, change = load_runs(parent_dir, trace), load_runs(change_dir, trace)
    regressed = False
    print(f"{'workload':14} {'metric':26} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>6}  verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        pm, cm = paired(parent[workload], change[workload])
        p_failed = sum(r[2] for r in parent[workload])
        c_failed = sum(r[2] for r in change[workload])
        if c_failed > p_failed:
            print(f"{workload}: the change failed {c_failed} operations, the parent "
                  f"{p_failed}; its gains do not count")
        for name in pm[0]:
            if name not in spec or name not in cm[0]:
                continue
            better, bound = spec[name]
            pv = [m[name]["value"] for m in pm]
            cv = [m[name]["value"] for m in cm]
            pq, cq, won, n, v = verdict(pv, cv, better, bound)
            if v == "gain" and c_failed > p_failed:
                v = "unresolved"
            regressed |= v == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:14} {name:26} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{won:>3}/{n:<2}  {v}")
    return 1 if regressed else 0


def spread(runs_dir, spec, trace):
    runs = load_runs(runs_dir, trace)
    print(f"{'workload':14} {'metric':26} {'n':>3} {'median':>12} "
          f"{'IQR/median':>11} {'bound':>6}  within bound/3")
    for workload in WORKLOADS:
        for name in (runs.get(workload) or [(0, {})])[0][1]:
            values = [m[name]["value"] for _, m, _ in runs[workload]]
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get(name, (None, None))[1]
            ok = "-" if bound is None else ("yes" if rel < bound / 3 else "NO")
            print(f"{workload:14} {name:26} {len(values):>3} {med:>12.5g} "
                  f"{rel:>11.4f} {bound if bound is not None else '-':>6}  {ok}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("dirs", nargs="+", help="PARENT CHANGE, or one dir with --spread")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="compare traced runs (per-layer metrics) instead")
    args = p.parse_args()
    spec = spec_table(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                   "BENCHMARK.json"))
    if args.spread:
        return spread(args.dirs[0], spec, args.trace)
    if len(args.dirs) != 2:
        p.error("give PARENT_DIR and CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], spec, args.trace)


if __name__ == "__main__":
    sys.exit(main())

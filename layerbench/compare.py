#!/usr/bin/env python3
"""Compare two sets of layered-benchmark results.

    python3 layerbench/compare.py BASE NEW

BASE and NEW are each a directory of result files written by run.py
(.bench_build/layerbench/results/*.json) or a list of such files joined
by commas. For every workload the script prints each end-to-end metric's
median and quartiles on both sides (from --trace 0 runs) and each
per-layer metric's median delta (from --trace 1 runs). An end-to-end
metric whose NEW median is worse than the BASE median by more than its
bound in BENCHMARK.json is flagged, and the exit status is then 1.
Stdlib only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(spec):
    """Returns {(workload, trace): {metric: [values]}} for one result set."""
    if os.path.isdir(spec):
        paths = sorted(glob.glob(os.path.join(spec, "*.json")))
    else:
        paths = [p for p in spec.split(",") if p]
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        result = doc.get("result", {})
        if not result.get("correct", False):
            print("warning: %s reports correct=false" % path, file=sys.stderr)
        key = (doc["workload"], int(doc["trace"]))
        metrics = out.setdefault(key, {})
        for name, m in result.get("metrics", {}).items():
            metrics.setdefault(name, []).append(float(m["value"]))
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, new, better):
    """Share by which new is worse than base (negative when better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(args.base), load(args.new)

    flagged = []
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for wl in workloads:
        b, n = base.get((wl, 0), {}), new.get((wl, 0), {})
        if b or n:
            print("== %s: end to end (base runs=%d, new runs=%d)" %
                  (wl, len(next(iter(b.values()), [])),
                   len(next(iter(n.values()), []))))
            print("  %-16s %28s %28s %8s" % ("metric", "base q1/med/q3",
                                             "new q1/med/q3", "worse"))
        for name in [m["name"] for m in bench["end_to_end"]]:
            if name not in b or name not in n:
                continue
            bq, nq = quartiles(b[name]), quartiles(n[name])
            w = worse_by(bq[1], nq[1], spec[name]["better"])
            flag = w > spec[name]["bound"]
            if flag:
                flagged.append("%s %s" % (wl, name))
            print("  %-16s %28s %28s %7.1f%%%s" % (
                name, "%.4g/%.4g/%.4g" % bq, "%.4g/%.4g/%.4g" % nq, 100 * w,
                "  WORSE THAN BOUND %.0f%%" % (100 * spec[name]["bound"])
                if flag else ""))
        b, n = base.get((wl, 1), {}), new.get((wl, 1), {})
        if b and n:
            print("== %s: per layer (median base -> new)" % wl)
            for name in sorted(set(b) & set(n)):
                mb, mn = statistics.median(b[name]), statistics.median(n[name])
                delta = "" if mb == 0 else " (%+.1f%%)" % (100 * (mn - mb) /
                                                           abs(mb))
                print("  %-30s %12.4g -> %12.4g%s" % (name, mb, mn, delta))
    if flagged:
        print("worse than the bound: %s" % ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

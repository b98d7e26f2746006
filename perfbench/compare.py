#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records perfbench/run.py appends to
.bench_build/results/<workload>.jsonl (copy them aside per commit; several
workloads may share one file). Runs are paired in file order per workload,
so run the two commits alternately, each pair on the same seed.

Per workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither side),
and a verdict:

  improved    the change wins at least 9 of 10 pairs, and the medians
              differ by more than the parent's own interquartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  unchanged   otherwise.

A gain does not count when a larger share of operations failed than at the
parent. Per-layer metrics of traced records are listed with their medians.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def fail_share(recs):
    att = sum(r["result"]["attempted"] for r in recs)
    return sum(r["result"]["failed"] for r in recs) / att if att else 0.0


def verdict(p, c, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p_lo, p_med, p_hi = quartiles(p)
    c_med = statistics.median(c)
    spread = p_hi - p_lo
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return share, "worse"
    if share >= 0.9 and sign * (c_med - p_med) > spread and not more_failures:
        return share, "improved"
    if p_med and spread / abs(p_med) > bound:
        beats_all = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
        if not beats_all:
            return share, "unresolved"
    return share, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    worst = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((wl, 0), []), change.get((wl, 0), [])
        if not p_runs or not c_runs:
            continue
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        more_failures = fail_share(c_runs) > fail_share(p_runs)
        print("== %s: %d pairs; failed share parent %.6f, change %.6f" % (
            wl, n, fail_share(p_runs), fail_share(c_runs)))
        print("%-16s %-32s %-32s %6s  %s" % ("metric", "parent q1 / median / q3",
                                             "change q1 / median / q3", "wins", "verdict"))
        for m in spec["end_to_end"]:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in p_runs
                 if m["name"] in r["result"]["metrics"]]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs
                 if m["name"] in r["result"]["metrics"]]
            if not p or not c:
                continue
            share, v = verdict(p, c, m["better"], m["bound"], more_failures)
            worst = max(worst, v == "worse")
            print("%-16s %-32s %-32s %5.0f%%  %s" % (
                m["name"], "%.4g / %.4g / %.4g" % quartiles(p),
                "%.4g / %.4g / %.4g" % quartiles(c), 100 * share, v))
        p_tr, c_tr = parent.get((wl, 1), []), change.get((wl, 1), [])
        if p_tr and c_tr:
            print("-- %s per layer (traced medians, parent -> change)" % wl)
            for m in spec["per_layer"]:
                p = [r["result"]["metrics"][m["name"]]["value"] for r in p_tr
                     if m["name"] in r["result"]["metrics"]]
                c = [r["result"]["metrics"][m["name"]]["value"] for r in c_tr
                     if m["name"] in r["result"]["metrics"]]
                if p and c:
                    print("   %-44s %12.4g -> %12.4g %s" % (
                        m["name"], statistics.median(p), statistics.median(c), m["unit"]))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())

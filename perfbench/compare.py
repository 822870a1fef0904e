#!/usr/bin/env python3
"""Compare two perfbench result sets.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl [--workload NAME]

Each file holds the records run.py appends (its --out option, default
.bench_out/results.jsonl).  Run the base and the head commit alternately
with the same seeds and --seconds, one file per side.  Pairs are formed in
file order: the i-th run of a workload in BASE against the i-th in HEAD.

For each workload and end-to-end metric the report prints both medians and
quartiles, the share of pairs HEAD wins (ties count for neither), and a
verdict:

  better        HEAD wins at least 9 of 10 pairs and the medians differ by
                more than BASE's own quartile spread (a resolved gain)
  within bound  HEAD's median is no worse than BASE's by more than the
                metric's bound in BENCHMARK.json
  REGRESSION    HEAD's median is worse by more than the bound, and BASE's
                spread is within the bound or every pair was lost
  unresolved    BASE's quartile spread is wider than the bound, so the
                difference cannot be told from noise

From traced runs (--trace 1) it prints each layer's median self time on both
sides and the difference, so a change can show where its saving sits.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def summary(median, q):
    return f"{median:.5g} [{q[0]:.5g}, {q[1]:.5g}]"


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace and r["metrics"]:
            out.setdefault(r["workload"], []).append(r)
    return out


def verdict(a, b, better, bound):
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    pairs = min(len(a), len(b))
    q1, q3 = quartiles(a)
    resolved = abs(mb - ma) > (q3 - q1)
    worse_by = -sign * (mb - ma) / ma if ma else 0.0
    wide = (q3 - q1) > bound * abs(ma)
    if pairs and wins >= 0.9 * pairs and resolved:
        v = "better"
    elif worse_by > bound:
        v = "REGRESSION" if not wide or losses == pairs else "unresolved"
    else:
        v = "unresolved" if wide else "within bound"
    return ma, mb, wins / pairs if pairs else 0.0, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload")
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    base, head = load(args.base), load(args.head)

    status = 0
    a_e2e, b_e2e = by_workload(base, 0), by_workload(head, 0)
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':<38} "
          f"{'head median [q1, q3]':<38} {'won':>5}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name != args.workload:
            continue
        if name not in a_e2e or name not in b_e2e:
            print(f"{name:<16} (no untraced runs on both sides)")
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in a_e2e[name]]
            b = [r["metrics"][m["name"]] for r in b_e2e[name]]
            ma, mb, won, v = verdict(a, b, m["better"], m["bound"])
            qa, qb = quartiles(a), quartiles(b)
            print(f"{name:<16} {m['name']:<14} {summary(ma, qa):<38} {summary(mb, qb):<38} "
                  f"{won:>5.0%}  {v} (n={len(a)}/{len(b)}, {m['unit']}, "
                  f"{m['better']} is better, bound {m['bound']:.0%})")
            if v == "REGRESSION":
                status = 1

    a_tr, b_tr = by_workload(base, 1), by_workload(head, 1)
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name != args.workload:
            continue
        if name not in a_tr or name not in b_tr:
            continue
        print(f"\nself time by layer, {name} (median seconds per pass, traced runs "
              f"n={len(a_tr[name])}/{len(b_tr[name])})")
        rows = {}
        for side, recs in ((0, a_tr[name]), (1, b_tr[name])):
            for r in recs:
                selfs = dict(r.get("self_s", {}))
                selfs["sim.engine_self_s"] = r["metrics"]["sim.engine_self_s"]
                for k, v in selfs.items():
                    rows.setdefault(k, ([], []))[side].append(v)
        for k in sorted(rows):
            a, b = rows[k]
            ma = statistics.median(a) if a else 0.0
            mb = statistics.median(b) if b else 0.0
            share = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"  {k:<32} {ma:>10.4f} {mb:>10.4f} {mb - ma:>+10.4f}  {share}")
    return status


if __name__ == "__main__":
    sys.exit(main())

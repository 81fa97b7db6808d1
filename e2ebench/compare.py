#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the bounds in BENCHMARK.json.

  python3 e2ebench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of *.jsonl files or one file, holding
bench_e2e metric rows ({"workload", "metric", "value", "seed", ...}), as
`run.py calibrate --out DIR` writes them or `run.py --workload ...` prints
them. Every row is one run's value. Runs of the two sides are paired by
seed, in order.

For each workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won, and a verdict:
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's IQR;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (share of the parent's median);
  unresolved  not worse, but the parent's own IQR exceeds the bound and not
              every change run beats every parent run;
  within      none of the above: no regression beyond the bound.
Exits 1 if any verdict is worse.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load_rows(path):
    """(workload, metric) -> [(seed, value)] in file order."""
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    runs = defaultdict(list)
    for f in files:
        for line in f.read_text().splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if isinstance(row, dict) and "metric" in row and "workload" in row:
                runs[(row["workload"], row["metric"])].append((row.get("seed", 0), row["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric; `parent` and `change` are paired value lists."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) < 0: b is better
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    worse_share = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if wins >= 0.9 * len(pairs) and sign * (med_b - med_a) < 0 and abs(med_b - med_a) > q3 - q1:
        v = "better"
    elif worse_share > bound:
        v = "worse"
    elif med_a and (q3 - q1) / abs(med_a) > bound and not (
            max(sign * b for b in change) < min(sign * a for a in parent)):
        v = "unresolved"
    else:
        v = "within"
    return v, wins, len(pairs), worse_share


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args()
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load_rows(args.parent), load_rows(args.change)

    regressed = False
    print(f"{'workload':22s} {'metric':18s} {'parent med [q1, q3]':>30s} "
          f"{'change med [q1, q3]':>30s} {'worse':>7s} {'wins':>6s}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            a = [v for _, v in sorted(parent.get(key, []), key=lambda sv: sv[0])]
            b = [v for _, v in sorted(change.get(key, []), key=lambda sv: sv[0])]
            if not a or not b:
                print(f"{w['name']:22s} {m['name']:18s} missing on "
                      f"{'both sides' if not a and not b else 'one side'}")
                continue
            n = min(len(a), len(b))
            v, wins, pairs, worse_share = verdict(a[:n], b[:n], m["better"], m["bound"])
            regressed = regressed or v == "worse"

            def fmt(vals):
                q1, q3 = quartiles(vals)
                return f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]"

            print(f"{w['name']:22s} {m['name']:18s} {fmt(a[:n]):>30s} {fmt(b[:n]):>30s} "
                  f"{worse_share:+7.1%} {wins:>3d}/{pairs:<2d}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

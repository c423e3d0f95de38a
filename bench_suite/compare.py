#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 bench_suite/compare.py --parent P1.json P2.json ... \\
                                   --change C1.json C2.json ...
    python3 bench_suite/compare.py --bundle bench_suite/results/seed.json

Each file is one `run.py --out` result. Give at least 5 per side, from runs
that alternated between parent and change; P<i> and C<i> form pair i. A
bundle holds two such sets of the same code ("sets") and compares them.

For every workload x metric it prints each side's median and quartiles, the
pair wins and a verdict:

  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range;
  regression  the change's median is worse by more than the metric's bound;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run beats every parent run;
  same        none of the above.

End-to-end metrics use their BENCHMARK.json bounds and the untraced runs;
per-layer metrics have no bound, come from the traced runs, and only get
"moved" (pair-win rule) or "flat". Exits 1 when any end-to-end metric
regressed or is unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def values(results, workload, mode, section, metric):
    out = []
    for r in results:
        report = r["workloads"].get(workload, {}).get(mode)
        if report and metric in report[section]:
            out.append(report[section][metric]["value"])
    return out


def summary(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    gain = (wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1)
    if bound is None:
        losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
        moved = (max(wins, losses) >= 0.9 * len(pairs)
                 and abs(c_med - p_med) > p_q3 - p_q1)
        return ("moved" if moved else "flat"), wins, len(pairs)
    spread = max((p_q3 - p_q1) / p_med if p_med else 0,
                 (c_q3 - c_q1) / c_med if c_med else 0)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if gain:
        return "gain", wins, len(pairs)
    if p_med and sign * (c_med - p_med) / p_med < -bound:
        return "regression", wins, len(pairs)
    return "same", wins, len(pairs)


def compare(parent, change, spec):
    failing = 0
    print(f"{'workload':<17} {'metric':<32} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'diff':>8} {'wins':>6}  verdict")
    names = sorted({w for r in parent + change for w in r["workloads"]})
    for name in names:
        rows = [(m, "untraced", "end_to_end", m.get("bound"))
                for m in spec["end_to_end"]]
        rows += [(m, "traced", "per_layer", None) for m in spec["per_layer"]]
        for m, mode, section, bound in rows:
            p = values(parent, name, mode, section, m["name"])
            c = values(change, name, mode, section, m["name"])
            if len(p) < 2 or len(c) < 2:
                continue
            v, wins, n = verdict(p, c, m["better"], bound)
            if bound is not None and v in ("regression", "unresolved"):
                failing += 1
            p_med, p_q1, p_q3 = summary(p)
            c_med, c_q1, c_q3 = summary(c)
            diff = (c_med - p_med) / p_med * 100 if p_med else 0.0
            print(f"{name:<17} {m['name']:<32} "
                  f"{p_med:>12.5g} [{p_q1:>9.4g}, {p_q3:>9.4g}] "
                  f"{c_med:>12.5g} [{c_q1:>9.4g}, {c_q3:>9.4g}] "
                  f"{diff:>7.2f}% {wins:>2}/{n:<3}  {v}")
    print(f"{failing} end-to-end metric x workload pairs regressed or "
          f"unresolved")
    return 1 if failing else 0


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--bundle", help="result bundle with two 'sets'")
    args = parser.parse_args()
    spec = load(ROOT / "BENCHMARK.json")
    if args.bundle:
        sets = load(args.bundle)["sets"]
        parent, change = sets[0], sets[1]
    else:
        parent = [load(p) for p in args.parent]
        change = [load(c) for c in args.change]
    if len(parent) < 5 or len(change) < 5:
        print("need at least 5 results per side", file=sys.stderr)
        return 2
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())

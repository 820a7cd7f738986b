#!/usr/bin/env python3
"""Compare two sets of benchmark runs (see collect.py).

    python3 perfbench/compare.py runs/parent runs/change

For every end-to-end metric x workload (from --trace 0 runs) prints one
verdict, following the pair rule of the metric-choosing guide:

  improved    the change wins at least 9/10 of the seed-matched pairs
              (ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) exceeds the bound,
              unless every run of the change reads better than every
              run of the parent;
  unchanged   otherwise.

Beside it, the per-layer metrics of the --trace 1 runs are shown as
median deltas, so a moved end-to-end number can be traced to a layer.
Exits 1 when any metric regressed.
"""
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from collect import load, spread  # noqa: E402


def worse_by(old, new, better):
    """Relative change of the median, positive when worse."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(old_runs, new_runs, metric, bound, better):
    old = {r["seed"]: r["metrics"][metric]["value"] for r in old_runs}
    new = {r["seed"]: r["metrics"][metric]["value"] for r in new_runs}
    o_med, o_q1, o_q3, o_spread = spread(list(old.values()))
    n_med, _, _, n_spread = spread(list(new.values()))
    pairs = [(old[s], new[s]) for s in old if s in new]
    wins = sum(1 for o, n in pairs if is_better(n, o, better))
    losses = sum(1 for o, n in pairs if is_better(o, n, better))
    change = worse_by(o_med, n_med, better)
    all_better = all(is_better(n, o, better) for n in new.values() for o in old.values())
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - o_med) > (o_q3 - o_q1):
        v = "improved"
    elif (o_spread > bound or n_spread > bound) and not all_better:
        v = "unresolved"
    elif change > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, o_med, n_med, change, wins, losses, len(pairs), o_spread, n_spread


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    old_sets, new_sets = load(argv[0]), load(argv[1])
    regressed = False
    for w in bench["workloads"]:
        name = w["name"]
        old_runs, new_runs = old_sets.get((name, 0), []), new_sets.get((name, 0), [])
        if not old_runs or not new_runs:
            print(f"{name}: unmeasured (no --trace 0 runs in both sets)")
            continue
        print(f"{name}: {len(old_runs)} parent run(s), {len(new_runs)} change run(s)")
        for m in bench["end_to_end"]:
            v, o_med, n_med, change, wins, losses, npairs, o_sp, n_sp = verdict(
                old_runs, new_runs, m["name"], m["bound"], m["better"])
            regressed |= v == "regressed"
            print(f"  {m['name']:20s} {v:10s} {o_med:12.6g} -> {n_med:12.6g} {m['unit']:4s}"
                  f" worse by {change:+7.2%} (bound {m['bound']:.0%}); pairs won {wins}/{npairs},"
                  f" lost {losses}; spread {o_sp:.1%} / {n_sp:.1%}")
        old_t, new_t = old_sets.get((name, 1), []), new_sets.get((name, 1), [])
        if old_t and new_t:
            print("  per-layer medians (--trace 1):")
            for m in bench["per_layer"]:
                o = statistics.median(r["metrics"][m["name"]]["value"] for r in old_t)
                n = statistics.median(r["metrics"][m["name"]]["value"] for r in new_t)
                delta = f"{(n - o) / o:+8.2%}" if o else "     n/a"
                print(f"    {m['name']:40s} {o:12.6g} -> {n:12.6g} {m['unit']:6s} {delta}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run the benchmark repeatedly and keep every result: one set of runs.

    python3 perfbench/collect.py --out runs/parent --workloads hot,cold,mixed \
        --seeds 1-10 [--trace 0|1|both] [--seconds N]

Each run's JSON result line is saved as <out>/<workload>.t<trace>.s<seed>.json.
Afterwards the spread of every metric over the set is printed: median,
quartiles (statistics.quantiles, n=4) and the interquartile range as a
share of the median. A set of runs is what compare.py reads.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load(directory):
    """{(workload, trace): [result, ...]} for every result file in a set."""
    sets = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) != 4 or parts[3] != "json":
            continue
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        result["seed"] = int(parts[2][1:])
        sets.setdefault((parts[0], int(parts[1][1:])), []).append(result)
    return sets


def spread(values):
    """(median, q1, q3, iqr / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def report(sets):
    for (workload, trace), runs in sorted(sets.items()):
        bad = [r["seed"] for r in runs if not r["correct"]]
        print(f"{workload} trace={trace}: {len(runs)} runs" + (f", INCORRECT seeds {bad}" if bad else ""))
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(vals)
            unit = runs[0]["metrics"][metric]["unit"]
            print(f"  {metric:36s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f" iqr/median {rel:7.2%}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="hot,cold,mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    if a.seconds is None:
        with open("BENCHMARK.json") as f:
            a.seconds = json.load(f)["run_seconds"]
    os.makedirs(a.out, exist_ok=True)
    traces = [0, 1] if a.trace == "both" else [int(a.trace)]
    for seed in seeds(a.seeds):
        for workload in a.workloads.split(","):
            for trace in traces:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(a.seconds), "--trace", str(trace)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stdout}{p.stderr}",
                          file=sys.stderr)
                    continue
                with open(os.path.join(a.out, f"{workload}.t{trace}.s{seed}.json"), "w") as f:
                    f.write(lines[-1] + "\n")
    report(load(a.out))


if __name__ == "__main__":
    main()

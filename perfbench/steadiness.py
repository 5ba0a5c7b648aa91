#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs `perfbench/run.py` once per seed on each named workload (untraced),
checks every result against BENCHMARK.json (metric set, units,
correctness), and prints per metric the median, the quartile spread
(Q3 - Q1, as statistics.quantiles(n=4) gives them) as a share of the
median, and that share against a third of the metric's bound.

    python3 perfbench/steadiness.py --workloads vgg_skip --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if res.returncode != 0:
        sys.exit("%s seed %d failed (%d):\n%s" % (
            workload, seed, res.returncode, res.stderr[-2000:]))
    return json.loads(res.stdout.strip().splitlines()[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["end_to_end" if args.trace == 0 else "per_layer"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in specs}
        walls = []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, bench["run_seconds"],
                                    args.trace)
            walls.append(wall)
            assert result["correct"] is True, result
            got = result["metrics"]
            assert set(got) == set(values), sorted(set(got) ^ set(values))
            for m in specs:
                assert got[m["name"]]["unit"] == m["unit"], m
                values[m["name"]].append(got[m["name"]]["value"])
            print("  %s seed %d: %.1f s, %s" % (
                workload, seed, wall, json.dumps(
                    {k: round(v[-1], 4) for k, v in values.items()
                     if args.trace == 0})), flush=True)
        print("%s: %d runs, wall %.1f-%.1f s" % (
            workload, len(args.seeds), min(walls), max(walls)))
        for m in specs:
            v = values[m["name"]]
            med = statistics.median(v)
            if len(v) >= 2 and med != 0:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else "WIDE"
            print("  %-28s median %-12.6g spread %6.2f%%  %s" % (
                m["name"], med, 100 * spread,
                "bound %g%% %s" % (100 * bound, flag) if bound else ""))
    if args.trace == 0:
        print("worst spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()

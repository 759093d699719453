#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 epochbench/calibrate.py --seeds 1-10 [--workloads a,b] [--seconds 10]

For each workload, runs run.py once per seed (--trace 0) and prints, per
metric, the median of the runs and the quartile spread (Q3 - Q1) / median
with quartiles from statistics.quantiles(values, n=4). A metric is steady
when its spread is below a third of its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    steady = True
    for workload in workloads:
        values = {}
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
                steady = False
            runs.setdefault(workload, []).append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n%s (%d runs)" % (workload, len(seeds_from(args.seeds))))
        print("  %-20s %14s %10s %8s  %s" % ("metric", "median", "spread", "bound", ""))
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print("  %-20s %14.6g %9.2f%% %7.0f%%  %s" % (
                name, med, 100 * spread, 100 * bounds[name], "ok" if ok else "NOISY"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

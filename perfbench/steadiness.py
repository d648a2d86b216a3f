#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed (untraced, each run a
fresh process) and prints, per end-to-end metric, the median and the spread
between the first and third quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 100-109 [--workloads a,b] [--json out.json]

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True, metavar="FIRST-LAST")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", metavar="PATH", help="also write every run's metrics here")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"], result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        runs[workload] = values
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            ok &= not flag
            print(f"{workload:13s} {name:15s} median {med:12.4f}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}{flag}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the benchmark binary
(`perfbench/`, its own cargo workspace) into `$CARGO_TARGET_DIR`, default
`.bench_build`. Each call runs the workload in a fresh process, then checks
its exact outputs against those recorded in `perfbench/recorded.json`
when that file holds the seed. The last stdout line is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`; the
exit code is non-zero on any failure or output mismatch.

    python3 perfbench/run.py --record <first>-<last> [--workload <name>]

re-records the exact outputs of every workload (or of one) for those seeds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDED = os.path.join(HERE, "recorded.json")
WORKLOADS = ("farm_mixed", "idle_day", "cohort_relay", "serve_fleet")
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path. Cargo's own output goes
    to stderr so the result line stays the last line of stdout."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(target, "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    """One workload run in a fresh process; returns its raw result object."""
    proc = subprocess.run(
        [
            binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_recorded():
    with open(RECORDED) as f:
        return json.load(f)


def record(seeds, binary, workloads):
    recorded = load_recorded()
    for workload in workloads:
        table = recorded["outputs"].setdefault(workload, {})
        for seed in seeds:
            raw = run_binary(binary, workload, seed, 0, 0)
            if raw["failed"]:
                sys.exit(f"{workload} seed {seed}: {raw['failed']} failures; not recorded")
            table[str(seed)] = raw["outputs"]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(RECORDED, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--record", metavar="FIRST-LAST")
    args = ap.parse_args()
    if args.record:
        first, last = (int(x) for x in args.record.split("-"))
        record(range(first, last + 1), build(), [args.workload] if args.workload else WORKLOADS)
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    raw = run_binary(build(), args.workload, args.seed, args.seconds, args.trace)
    want = load_recorded()["outputs"].get(args.workload, {}).get(str(args.seed))
    mismatched = []
    if want is None:
        print(f"seed {args.seed} has no recorded outputs; checked invariants only",
              file=sys.stderr)
    else:
        mismatched = sorted(k for k in want if raw["outputs"].get(k) != want[k])
        for k in mismatched:
            print(f"output {k}: got {raw['outputs'].get(k)}, recorded {want[k]}",
                  file=sys.stderr)
    failed = raw["failed"] + len(mismatched)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": raw["metrics"],
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: {e}")

#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once untraced and once traced,
one process at a time, and print the results as one JSON line with a
`commit`, `nproc`, `seed`, `seconds` header.

    python3 perfbench/run_all.py [--seed N] [--seconds S] >> perfbench/BENCH_history.jsonl

Run from the repository root. Exits nonzero if any run fails a check.
"""
import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    record = {
        "commit": commit.stdout.strip() or "unknown",
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "correct": True,
        "workloads": {},
    }
    for workload in (w["name"] for w in manifest["workloads"]):
        entry = record["workloads"][workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                manifest["command"]
                + ["--workload", workload, "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            # 1 = a failed check (the result line is still there); anything
            # else means the benchmark could not run.
            if run.returncode not in (0, 1):
                sys.exit(f"{workload} --trace {trace}: exit code {run.returncode}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for line in run.stdout.splitlines():
                if line.startswith("# FAILED"):
                    print(f"{workload}: {line}", file=sys.stderr)
            record["correct"] = record["correct"] and result["correct"]
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[key + "_ops"] = [result["attempted"], result["failed"]]
    print(json.dumps(record, separators=(",", ":")))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()

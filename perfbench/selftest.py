#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice, traced, at a small size (--scale 0.02) with one
seed, and fails unless both runs agree exactly on the counts a seed must
fix: ops per kind, wire bytes, connections dialed, retries, index postings
and the digest of the registry's published/removed/expired keys. Every
run must also answer every op correctly.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xdr-small", "soap-bulk", "registry-churn")
# Per-layer metrics that are exact counts, not timings.
EXACT_METRICS = ("transport.wire_bytes_per_call", "transport.connections_dialed",
                 "resilience.retries_per_call", "registry.postings_per_entry",
                 "registry.dom_hit_ratio")


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "20", "--trace", "1", "--scale", "0.02"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = json.loads(lines[-2])["counts"]
    exact = {m: result["metrics"][m]["value"] for m in EXACT_METRICS}
    return result, counts, exact


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first = run(workload, args.seed)
        second = run(workload, args.seed)
        for result in (first[0], second[0]):
            if not result["correct"] or result["failed"] != 0:
                print(f"FAIL {workload}: {result['failed']} of {result['attempted']} ops wrong")
                ok = False
        for what, a, b in (("counts", first[1], second[1]), ("metrics", first[2], second[2])):
            if a != b:
                diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
                        if a.get(k) != b.get(k)}
                print(f"FAIL {workload}: {what} differ between runs: {diff}")
                ok = False
        if first[1] == second[1] and first[2] == second[2]:
            print(f"ok   {workload}: {json.dumps(first[1])} {json.dumps(first[2])}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

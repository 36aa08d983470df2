#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/ with CMake, runs the h2bench binary, and prints:

  1. an environment record (nproc, CPU model, build type, compiler, git
     sha or source digest),
  2. the run's full record (diagnostics, exact counts),
  3. as the last line, the result: {"correct", "attempted", "failed",
     "metrics"}. --trace 0 reports the end-to-end metrics of
     BENCHMARK.json, --trace 1 its per-layer metrics.

Exits non-zero, without a result, if the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "h2bench")
WORKLOADS = ("xdr-small", "soap-bulk", "registry-churn")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures, then builds only h2bench and the libraries it links."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "h2bench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def environment(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "build_type": build_info.get("build_type"),
            "compiler": build_info.get("compiler"),
            "git_sha": sha, "source_digest": source_digest()}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"h2bench did not finish within {RUN_TIMEOUT_S}s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"h2bench exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size (the self-test runs at 0.02)")
    args = parser.parse_args()

    end_to_end, per_layer = declared_metrics()
    build()
    record = run(args)
    wanted = per_layer if args.trace else end_to_end
    metrics = record["metrics"]
    unknown = sorted(set(metrics) - set(wanted))
    if unknown:
        log(f"h2bench reported undeclared metrics: {unknown}")
        sys.exit(1)
    for name, unit in wanted.items():
        if name in metrics:
            if metrics[name]["unit"] != unit:
                log(f"{name}: unit {metrics[name]['unit']} != declared {unit}")
                sys.exit(1)
        elif args.trace:
            # A layer this workload never enters did no work.
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            log(f"h2bench did not report {name}")
            sys.exit(1)

    record["env"] = environment(record.get("build", {}))
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"env": record["env"]}))
    print(json.dumps({"detail": record["detail"], "counts": record["counts"]}))
    result = {"correct": record["failed"] == 0 and record["attempted"] > 0,
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": {k: metrics[k] for k in wanted}}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

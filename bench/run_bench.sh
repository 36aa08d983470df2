#!/usr/bin/env sh
# Runs the wire-path benchmark suites (EXP-SOAP, EXP-OBS, EXP-RESIL,
# EXP-BATCH, EXP-NET, EXP-LOOP, EXP-REG, EXP-SHARD) and
# writes JSON results next to the build tree so runs can be diffed across
# commits. bench_resilience runs with repetitions and median aggregates:
# its headline number is a <5% overhead ratio, which a single noisy run
# cannot support.
#
# Usage: bench/run_bench.sh [build-dir] [min-time]
#   build-dir  defaults to ./build
#   min-time   per-benchmark minimum seconds, defaults to 0.2
set -eu

BUILD_DIR="${1:-build}"
MIN_TIME="${2:-0.2}"
OUT_DIR="${BENCH_OUT_DIR:-$BUILD_DIR}"

if [ ! -x "$BUILD_DIR/bench/bench_soap" ]; then
  echo "error: $BUILD_DIR/bench/bench_soap not built (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

run() {
  name="$1"
  shift
  echo "== $name (min_time=${MIN_TIME}s) =="
  "$BUILD_DIR/bench/$name" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json \
    --benchmark_out="$OUT_DIR/BENCH_${name#bench_}.json" \
    --benchmark_out_format=json "$@" > /dev/null
  echo "   wrote $OUT_DIR/BENCH_${name#bench_}.json"
}

run bench_soap
run bench_encoding
run bench_observability
run bench_resilience --benchmark_repetitions=5 --benchmark_report_aggregates_only
run bench_batching

# EXP-NET: real sockets (loopback TCP + UDS). Not a google-benchmark
# binary — it takes its own flags and writes its own JSON report.
echo "== bench_sockets (hardware) =="
"$BUILD_DIR/bench/bench_sockets" --out "$OUT_DIR/BENCH_sockets.json"
echo "   wrote $OUT_DIR/BENCH_sockets.json"

# EXP-LOOP: cross-loop post latency, timer accuracy under a live
# reactor, wake coalescing and multi-reactor XDR throughput. Not a
# google-benchmark binary — it takes its own flags and writes its own JSON.
echo "== bench_eventloop (reactors) =="
"$BUILD_DIR/bench/bench_eventloop" --out "$OUT_DIR/BENCH_eventloop.json"
echo "   wrote $OUT_DIR/BENCH_eventloop.json"

# EXP-REG: indexed registry at scale. Not a google-benchmark binary —
# it sweeps 10k/100k/1M-entry registries and writes its own JSON report;
# exits non-zero if the indexed and linear-scan paths disagree or the
# 1M-entry find speedup drops under 100x.
echo "== bench_registry (indexed registry sweep) =="
"$BUILD_DIR/bench/bench_registry" --out "$OUT_DIR/BENCH_registry.json"
echo "   wrote $OUT_DIR/BENCH_registry.json"

# EXP-SHARD: O(R) sharded vs O(M) full-synchrony write fan-out at
# M=64/256/1024, plus an anti-entropy convergence check. Exact message
# counts, own JSON schema; exits non-zero if repair fails.
echo "== bench_sharding (message counts) =="
"$BUILD_DIR/bench/bench_sharding" --out "$OUT_DIR/BENCH_sharding.json"
echo "   wrote $OUT_DIR/BENCH_sharding.json"

#!/usr/bin/env sh
# Runs the deterministic simulation suite: the ctest `sim`, `obs`,
# `shard` and `loop` labels first, then a full simrunner seed sweep over
# every scenario — the four membership/coherency scenarios
# (coherency-storm, failover, churn, mesh-skew), the three
# fault-tolerant-RPC scenarios (retry-storm, batch-storm,
# failover-cascade), the sharded-DVM repair scenarios
# (shard-partition-heal, shard-churn, shard-owner-down-write), the
# event-loop scenarios (loop-storm, shard-read-repair,
# shard-repair-storm, all driving queued loops from virtual time — the
# last against a tight rebalance budget), and the planted-bug scenarios
# (planted-bug, retry-storm-nodedup, shard-ae-skip, shard-hint-drop)
# that must be CAUGHT on every seed. Any failing seed is printed with
# the exact replay command; a non-zero simrunner exit fails the whole
# sweep.
#
# Before the sweep it writes $BUILD_DIR/sim_trace_digests.txt: one
# "sha256  scenario" line per `simrunner --list` scenario, hashing the
# --trace output of seeds 1..20, then one "sha256  example:<name>" line
# per program in $BUILD_DIR/examples, hashing its stdout+stderr. Two
# builds' traces and example outputs are byte-identical exactly when
# `diff` finds their digest files equal.
#
# Usage: tests/run_sim.sh [build-dir] [seeds]
#   build-dir  defaults to ./build
#   seeds      seeds per scenario, defaults to 100 (seed 1..seeds)
set -eu

BUILD_DIR="${1:-build}"
SEEDS="${2:-100}"

if [ ! -x "$BUILD_DIR/src/sim/simrunner" ]; then
  echo "error: $BUILD_DIR/src/sim/simrunner not built (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

echo "== ctest -L sim =="
ctest --test-dir "$BUILD_DIR" -L sim --output-on-failure

echo "== ctest -L obs =="
ctest --test-dir "$BUILD_DIR" -L obs --output-on-failure

echo "== ctest -L shard =="
ctest --test-dir "$BUILD_DIR" -L shard --output-on-failure

echo "== ctest -L loop =="
ctest --test-dir "$BUILD_DIR" -L loop --output-on-failure

echo "== trace digests: every scenario (seeds 1..20) and every example =="
DIGESTS="$BUILD_DIR/sim_trace_digests.txt"
: > "$DIGESTS"
for scenario in $("$BUILD_DIR/src/sim/simrunner" --list | cut -d' ' -f1); do
  digest=$("$BUILD_DIR/src/sim/simrunner" --scenario="$scenario" --seed=1 --seeds=20 \
    --trace | sha256sum | cut -d' ' -f1)
  echo "$digest  $scenario" >> "$DIGESTS"
done
for example in $(find "$BUILD_DIR/examples" -maxdepth 1 -type f -perm -u+x | sort); do
  digest=$("$example" 2>&1 | sha256sum | cut -d' ' -f1)
  echo "$digest  example:$(basename "$example")" >> "$DIGESTS"
done
echo "   $(wc -l < "$DIGESTS") scenarios and examples: $DIGESTS"

echo "== simrunner sweep: all scenarios, seeds 1..$SEEDS =="
SWEEP_LOG="$BUILD_DIR/sim_sweep.log"
STATUS=0
"$BUILD_DIR/src/sim/simrunner" --all --seed=1 --seeds="$SEEDS" > "$SWEEP_LOG" || STATUS=$?

# Per-seed "ok"/"caught" lines stay in the log; show failures + summaries.
grep -v '^ok\|^caught' "$SWEEP_LOG" || true
echo "   full sweep log: $SWEEP_LOG"

if [ "$STATUS" -ne 0 ]; then
  echo "== sim sweep FAILED: replay failing seeds with the commands above ==" >&2
  exit "$STATUS"
fi
echo "== sim sweep clean: every scenario behaved as specified =="

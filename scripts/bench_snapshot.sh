#!/usr/bin/env bash
# Captures the wall-clock benchmark snapshots:
#   - the micro_filter index sweep (IntervalIndexMatcher vs brute force at
#     100 K -> 1 M subscriptions, subscriber sets verified identical before
#     and after churn) -> BENCH_index.json
#   - the fig_recovery fault scenarios (crash at two checkpoint intervals,
#     partition outlasting the conviction window, gray-host drain) with
#     MTTR phase breakdowns, exactly-once audits and NetworkStats
#     -> BENCH_recovery.json
#   - the fig_split skewed-workload comparison (static vs migrate-only vs
#     automatic hotspot split) with sustained tail throughput, delay
#     percentiles and exactly-once audits -> BENCH_split.json
#   - the fig_migration_strategies sweep (one M slice migrates under load
#     once per protocol) with per-strategy bytes-shipped/downtime/delay
#     curves and the tradeoff ordering verified by the exit code
#     -> BENCH_migration_strategies.json
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
INDEX_OUT=${INDEX_OUT:-BENCH_index.json}
RECOVERY_OUT=${RECOVERY_OUT:-BENCH_recovery.json}
SPLIT_OUT=${SPLIT_OUT:-BENCH_split.json}
STRATEGIES_OUT=${STRATEGIES_OUT:-BENCH_migration_strategies.json}

if [ ! -x "$BUILD/bench/micro_filter" ] || [ ! -x "$BUILD/bench/fig_recovery" ] \
   || [ ! -x "$BUILD/bench/fig_split" ] \
   || [ ! -x "$BUILD/bench/fig_migration_strategies" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" -j "$(nproc)" --target micro_filter fig_recovery \
    fig_split fig_migration_strategies
fi

"$BUILD/bench/micro_filter" --index_sweep > "$INDEX_OUT"
echo "wrote $INDEX_OUT"

"$BUILD/bench/fig_recovery" --json > "$RECOVERY_OUT"
echo "wrote $RECOVERY_OUT"

"$BUILD/bench/fig_split" --json > "$SPLIT_OUT"
echo "wrote $SPLIT_OUT"

"$BUILD/bench/fig_migration_strategies" --json > "$STRATEGIES_OUT"
echo "wrote $STRATEGIES_OUT"

#!/usr/bin/env bash
# Continuous-integration entry point. Stages:
#
#   ci.sh [tier1]    configure + build (-Werror) + full tier-1 ctest suite
#   ci.sh checked    same suite under -DESH_CHECK_INVARIANTS=ON: every
#                    contract in src/common/contracts.hpp is live and any
#                    violation fails the run
#   ci.sh lint       scripts/lint.py determinism/hygiene linter over src/
#   ci.sh tidy       clang-tidy build (gate configured in .clang-tidy);
#                    skipped with a notice when clang-tidy is not installed
#   ci.sh chaos      fault-injection suites (chaos schedules, reliable
#                    channel, adversarial network, recovery contracts)
#                    under -DESH_CHECK_INVARIANTS=ON, then again under
#                    ASan and TSan via scripts/run_sanitized.sh
#   ci.sh analysis   bounded model checking of the migration/split/merge/
#                    reliable-channel protocols (tools/modelcheck): stock
#                    models must verify exhaustively, planted faults and
#                    spec mutations must produce counterexamples, and
#                    docs/SPEC_CATALOG.md must match the generated tables
#   ci.sh release    Release (-O3) build with -Werror, build only: the
#                    optimizer reports warnings (-Wrestrict and friends)
#                    the default build never sees
#   ci.sh all        every stage above (lint, tier1, checked, chaos, tidy,
#                    analysis, release), in that order
#
# Each stage is also usable locally; stages never reuse another stage's
# build directory, so incremental local builds stay intact.
#
# Every stage exits with a stage-distinct non-zero code on failure and
# prints a one-line `STAGE <name> FAILED` trailer, so a wrapper (or a log
# scrape) can tell which gate broke without parsing the whole transcript:
#   lint=10  tier1=11  checked=12  chaos=13  tidy=14  analysis=15
#   release=16
set -euEo pipefail
cd "$(dirname "$0")/.."

stage_tier1() {
  local dir=${BUILD_DIR:-build-ci}
  cmake -B "$dir" -S . -DESH_WERROR=ON
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

stage_checked() {
  local dir=${BUILD_DIR:-build-ci-checked}
  cmake -B "$dir" -S . -DESH_WERROR=ON -DESH_CHECK_INVARIANTS=ON
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  # Explicit gate: the pipeline-wide determinism suite (golden full-run
  # pins) must hold with every contract live.
  ctest --test-dir "$dir" --output-on-failure -R 'ParallelPipeline'
}

stage_lint() {
  python3 scripts/lint.py
}

# Robustness gate: the chaos schedules (crash + partition + gray + storm
# faults), the split/merge torture suite, the migration-strategy differential
# and torture suites, the reliable control channel, the adversarial network
# tests, the interval-index determinism tests, the match-oracle suites
# (bitmap sampler and bitmap store) and the elastic-operation coordinator
# suites (scheduling rule, golden report/step digest) and the event core
# (the simulator's slot table and generation-checked handles, periodic
# timers, the host's dense job and slice tables) must pass with every
# invariant live, and stay clean under ASan and TSan.
CHAOS_FILTER='Chaos|Reliable|Net|Contract|Split|Merge|Interval|Strateg|Oracle|ElasticOp|Simulator|PeriodicTimer|HostTest'

stage_chaos() {
  local dir=${BUILD_DIR:-build-ci-chaos}
  cmake -B "$dir" -S . -DESH_WERROR=ON -DESH_CHECK_INVARIANTS=ON
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" -R "$CHAOS_FILTER"
  SANITIZE=address BUILD_DIR=build-ci-chaos-asan \
    scripts/run_sanitized.sh "$CHAOS_FILTER"
  SANITIZE=thread BUILD_DIR=build-ci-chaos-tsan \
    scripts/run_sanitized.sh "$CHAOS_FILTER"
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ci.sh: clang-tidy not installed; skipping tidy stage" >&2
    return 0
  fi
  local dir=${BUILD_DIR:-build-ci-tidy}
  cmake -B "$dir" -S . -DESH_CLANG_TIDY=ON
  cmake --build "$dir" -j "$(nproc)"
}

# The planted-fault / mutated-spec runs must find a counterexample (exit 1);
# a clean pass there means the checker went blind.
expect_counterexample() {
  local rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "ci.sh: expected a counterexample (exit 1) from: $* (got rc=$rc)" >&2
    return 1
  fi
}

stage_analysis() {
  # The build directory is cached across runs (only esh_analysis and the
  # driver rebuild), and the exploration carries both a wall-clock and a
  # distinct-state budget so a state-space regression fails fast instead of
  # hanging the pipeline.
  local dir=${BUILD_DIR:-build-ci-analysis}
  local budget=${ESH_MODELCHECK_MAX_STATES:-1000000}
  local clock=${ESH_MODELCHECK_TIMEOUT:-120}
  cmake -B "$dir" -S . -DESH_WERROR=ON
  cmake --build "$dir" -j "$(nproc)" --target modelcheck
  local mc="$dir/tools/modelcheck"

  # (a) Every stock model verifies exhaustively: no wedge, no spec-
  #     conformance violation, no invariant violation, budget not exhausted.
  timeout "$clock" "$mc" --max-states "$budget"

  # (b) The checker still detects each failure class it exists to catch.
  expect_counterexample timeout "$clock" "$mc" --model migration --plant-wedge
  expect_counterexample timeout "$clock" "$mc" --model migration \
    --plant-invariant
  expect_counterexample timeout "$clock" "$mc" --model migration \
    --mutate migration:duplication:transfer
  expect_counterexample timeout "$clock" "$mc" --model reliable \
    --mutate reliable-rx:buffered:delivered
  expect_counterexample timeout "$clock" "$mc" --model migration-stop-restart \
    --plant-wedge
  expect_counterexample timeout "$clock" "$mc" --model migration-stop-restart \
    --plant-invariant
  expect_counterexample timeout "$clock" "$mc" --model migration-stop-restart \
    --mutate migration-stop-restart:park:transfer
  expect_counterexample timeout "$clock" "$mc" --model migration-precopy \
    --plant-wedge
  expect_counterexample timeout "$clock" "$mc" --model migration-precopy \
    --plant-invariant
  expect_counterexample timeout "$clock" "$mc" --model migration-precopy \
    --mutate migration-precopy:precopy:transfer

  # (c) The documented spec catalog is the generated one, byte for byte.
  "$mc" --dump-catalog-md > "$dir/SPEC_CATALOG.generated.md"
  if ! diff -u docs/SPEC_CATALOG.md "$dir/SPEC_CATALOG.generated.md"; then
    echo "ci.sh: docs/SPEC_CATALOG.md drifted from protocol_spec.cpp;" \
         "regenerate with: build/tools/modelcheck --dump-catalog-md >" \
         "docs/SPEC_CATALOG.md" >&2
    return 1
  fi
}

stage_release() {
  local dir=${BUILD_DIR:-build-ci-release}
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DESH_WERROR=ON
  cmake --build "$dir" -j "$(nproc)"
}

stage_exit_code() {
  case "$1" in
    lint)     echo 10 ;;
    tier1)    echo 11 ;;
    checked)  echo 12 ;;
    chaos)    echo 13 ;;
    tidy)     echo 14 ;;
    analysis) echo 15 ;;
    release)  echo 16 ;;
  esac
}

stage="${1:-tier1}"
case "$stage" in
  all)
    # Each stage runs as a child invocation so its ERR trap and distinct
    # exit code apply unchanged; the first failure stops the pipeline.
    for s in lint tier1 checked chaos tidy analysis release; do
      bash "$0" "$s" || exit $?
    done
    exit 0
    ;;
  lint|tier1|checked|chaos|tidy|analysis|release) ;;
  *)
    echo "usage: $0 [tier1|checked|lint|tidy|chaos|analysis|release|all]" >&2
    exit 2
    ;;
esac

code="$(stage_exit_code "$stage")"
trap 'echo "STAGE '"$stage"' FAILED" >&2; exit '"$code"'' ERR
"stage_$stage"

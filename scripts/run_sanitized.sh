#!/usr/bin/env bash
# Builds the whole tree with a sanitizer in a dedicated build directory and
# runs the test suite under the instrumented binaries.
#
# Usage: [SANITIZE=address|thread|undefined] run_sanitized.sh [ctest-regex]
#   SANITIZE=address (default) instruments with ASan+UBSan in build-asan;
#   SANITIZE=thread instruments with TSan in build-tsan; SANITIZE=undefined
#   instruments with standalone UBSan (-fno-sanitize-recover=all: first
#   report aborts) in build-ubsan.
#   With an argument, only tests matching the regex run (ctest -R), e.g.
#   `run_sanitized.sh 'Matcher|Aspe'` for the matcher differential suite.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=${SANITIZE:-address}
case "$SANITIZE" in
  address)   DEFAULT_DIR=build-asan ;;
  thread)    DEFAULT_DIR=build-tsan ;;
  undefined) DEFAULT_DIR=build-ubsan ;;
  *)         DEFAULT_DIR=build-$SANITIZE ;;
esac
BUILD_DIR=${BUILD_DIR:-$DEFAULT_DIR}
FILTER=${1:-}

cmake -B "$BUILD_DIR" -S . -DESH_SANITIZE="$SANITIZE" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ -n "$FILTER" ]]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -R "$FILTER"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

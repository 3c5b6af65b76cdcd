#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers (separate build trees,
# so none pollutes the default build/ directory).
#
#   tools/run_sanitizers.sh [asan|ubsan|tsan|all]
#
# asan/ubsan run the full suite; ubsan stops a test at its first report
# (halt_on_error), so any undefined behaviour fails the run. tsan runs
# only the suites labeled "concurrency", "planner", "recovery", "ext",
# "obs", "asyncio", or "shard" (see tests/CMakeLists.txt):
# ThreadSanitizer slows single-threaded tests ~10x for no extra
# coverage, while the labeled suites are exactly the ones hammering the
# shared-reader machinery (sharded buffer pool, atomic metrics,
# concurrent value queries, concurrent cost-based planning), the WAL /
# crash-recovery paths, the extension engines (vector / volume /
# temporal persistence and external-sort builds), the lock-free
# trace-v2 ring buffers, the batch read / shared-scan path (concurrent
# preads and preadvs on one page-file descriptor, prefetch installs,
# executor grouping), and the shard router's scatter/gather across
# per-shard executor lanes.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
# The suites the tsan sweep runs; both the tsan and the all modes read it.
tsan_labels="concurrency|planner|recovery|ext|obs|asyncio|shard"
# Read only by UBSan builds: without it a report is printed and the test
# still exits 0.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

run_one() {
  local name="$1" flags="$2" ctest_args="${3:-}"
  local dir="build-${name}"
  echo "=== ${name}: configuring (${flags}) ==="
  cmake -B "${dir}" -S . \
    -DFIELDDB_SANITIZE="${flags}" \
    -DFIELDDB_BUILD_BENCHMARKS=OFF \
    -DFIELDDB_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  # A bare -j would let make start every compile at once.
  cmake --build "${dir}" -j "$(nproc)" >/dev/null
  echo "=== ${name}: running tests ==="
  # shellcheck disable=SC2086  # ctest_args is intentionally word-split
  (cd "${dir}" && ctest ${ctest_args} --output-on-failure -j "$(nproc)")
}

case "${mode}" in
  asan)  run_one asan address ;;
  ubsan) run_one ubsan undefined ;;
  tsan)  run_one tsan thread "-L ${tsan_labels}" ;;
  all)   run_one asan address && run_one ubsan undefined \
           && run_one tsan thread "-L ${tsan_labels}" ;;
  *)     echo "usage: $0 [asan|ubsan|tsan|all]" >&2; exit 2 ;;
esac
echo "sanitizer runs passed"

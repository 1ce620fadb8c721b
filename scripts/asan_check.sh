#!/usr/bin/env bash
# Builds the task-lifecycle, wait-path and registry-reader tests under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs them with leak
# detection on: the per-thread stack and task caches
# (util/magazine_cache.hpp), the fiber-in-task object, the per-worker
# liveness cells, the waits that block through block_until
# (sync/wait_queue.hpp), where a stale waiter entry would wake a retired
# task, and the counter registry's readers, whose sample functions capture
# worker_data* and task_service* and outlive neither only because
# unregistration takes the registry's exclusive lock.
#
#   scripts/asan_check.sh [extra gtest args...]
#
# Uses a dedicated build tree (build-asan/) so the normal build stays warm.
# Exits nonzero on any sanitizer report, leak or test failure.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-asan
TESTS=(fiber_test task_test thread_manager_test alloc_test sync_test async_test algo_test timer_test
       perf_test telemetry_test service_test)

cmake -B "$BUILD" -S . \
  -DGRAN_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGRAN_BUILD_BENCH=OFF \
  -DGRAN_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j --target "${TESTS[@]}"

export ASAN_OPTIONS="detect_leaks=1 halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

status=0
for t in "${TESTS[@]}"; do
  echo "=== asan: $t ==="
  "./$BUILD/tests/$t" "$@" || status=$?
done

if [[ $status -ne 0 ]]; then
  echo "asan_check: FAILED" >&2
  exit "$status"
fi
echo "asan_check: all clean"

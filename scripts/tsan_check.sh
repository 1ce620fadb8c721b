#!/usr/bin/env bash
# Builds the concurrency-critical tests under ThreadSanitizer and runs them.
#
#   scripts/tsan_check.sh [extra ctest args...]
#
# Uses a dedicated build tree (build-tsan/) so the normal build stays warm.
# Exits nonzero on any data-race report or test failure.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-tsan
TESTS=(config_test chase_lev_test queues_test fiber_test task_test thread_manager_test perf_test channel_steal_test steal_order_test sync_test async_test trace_test telemetry_test analysis_test pmu_test graph_test dag_fuzz_test stencil_test split_test service_test algo_test timer_test)

cmake -B "$BUILD" -S . \
  -DGRAN_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGRAN_BUILD_BENCH=OFF \
  -DGRAN_BUILD_EXAMPLES=OFF
cmake --build "$BUILD" -j --target "${TESTS[@]}"

# halt_on_error makes the first race fail the test run instead of just
# printing; second_deadlock_stack improves mutex-order reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

status=0
for t in "${TESTS[@]}"; do
  echo "=== tsan: $t ==="
  "./$BUILD/tests/$t" "$@" || status=$?
done

if [[ $status -ne 0 ]]; then
  echo "tsan_check: FAILED" >&2
  exit "$status"
fi
echo "tsan_check: all clean"

#!/usr/bin/env bash
# The tier-1 verification gate, as one command:
#   1. configure + build everything (warnings are errors via the toolchain);
#   2. run the full ctest suite;
#   3. rebuild the concurrency-critical tests (including the trace-ring
#      concurrency test) under ThreadSanitizer and run them;
#   4. rebuild the task-lifecycle tests under ASan+UBSan with leak
#      detection and run them.
#
#   scripts/ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT

echo "=== ci: build ==="
cmake -B build -S .
cmake --build build -j

echo "=== ci: configure without google-benchmark ==="
# No target needs google-benchmark; the tree must configure with it absent.
cmake -S . -B "$trace_tmp/nogb" -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON >/dev/null
echo "configure without google-benchmark ok"

echo "=== ci: ctest ==="
(cd build && ctest --output-on-failure -j "$(nproc)" "$@")

echo "=== ci: graph smoke matrix ==="
# Every task-graph pattern through both executors at tiny sizes: catches
# generator/executor regressions that unit sizes miss, in a few seconds.
for pattern in trivial serial_chain stencil1d fft binary_tree nearest spread random; do
  for mode in native sim; do
    ./build/bench/graph_sweep --pattern="$pattern" --mode="$mode" \
        --width=8 --steps=4 --grain-min=1000 --grain-max=2000 \
        --samples=1 --workers=2 --cores=4 >/dev/null
  done
  # Native again under every other policy: the whole pattern set must drain
  # under each one's search and parking (and channel-steal's termination
  # detection); checksum equality across policies is asserted in
  # channel_steal_test.
  for policy in static-fifo work-stealing-lifo channel-steal; do
    GRAN_POLICY=$policy ./build/bench/graph_sweep --pattern="$pattern" \
        --mode=native --width=8 --steps=4 --grain-min=1000 --grain-max=2000 \
        --samples=1 --workers=2 >/dev/null
  done
done
echo "graph smoke: 8 patterns x {native,sim} + native x {static-fifo,work-stealing-lifo,channel-steal} ok"

echo "=== ci: config smoke ==="
# One knob table (src/util/config.hpp): a malformed value exits 2 naming the
# knob and the value; a misspelt GRAN_* name warns once and the run goes on.
status=0
GRAN_WORKERS=four ./build/examples/heat_ring --points=20000 --partition=500 \
    --steps=2 --workers=2 >/dev/null 2>"$trace_tmp/bad_knob.txt" || status=$?
[[ $status -eq 2 ]] && grep -q "GRAN_WORKERS=four" "$trace_tmp/bad_knob.txt" \
  || { echo "config smoke: GRAN_WORKERS=four gave exit $status" >&2; \
       cat "$trace_tmp/bad_knob.txt" >&2; exit 1; }
GRAN_POLCY=static-fifo ./build/bench/graph_sweep --pattern=stencil1d --width=8 \
    --steps=4 --grain-min=1000 --grain-max=1000 --samples=1 --workers=2 \
    >"$trace_tmp/typo.txt" 2>&1
[[ $(grep -c "GRAN_POLCY" "$trace_tmp/typo.txt") -eq 1 ]] \
  || { echo "config smoke: want one GRAN_POLCY warning" >&2; \
       cat "$trace_tmp/typo.txt" >&2; exit 1; }
echo "config smoke: malformed value exits 2, unknown name warns once"

echo "=== ci: trace-report smoke ==="
# Trace a small graph_sweep into a binary dump, analyze it offline with
# gran_trace_report, and check the report carries a critical-path line —
# the analyzer's whole pipeline (emit -> dump -> load -> analyze) in one go.
./build/bench/graph_sweep --pattern=stencil1d --width=8 --steps=6 \
    --grain-min=2000 --grain-max=2000 --samples=1 --workers=2 \
    --trace-bin="$trace_tmp/trace.bin" >/dev/null
./build/tools/gran_trace_report --in="$trace_tmp/trace.bin" \
    > "$trace_tmp/report.txt"
grep -E "critical path: [0-9.]+ ms \([0-9.]+% of wall, [0-9]+ tasks\)" \
    "$trace_tmp/report.txt" >/dev/null \
  || { echo "trace-report smoke: no critical-path line" >&2; \
       cat "$trace_tmp/report.txt" >&2; exit 1; }
echo "trace-report smoke: critical-path line ok"

echo "=== ci: telemetry smoke ==="
# The live telemetry plane end to end: a bench streams windowed metrics into
# a FIFO that gran_top reads and validates, then a second run takes a
# SIGUSR1 flight-recorder dump mid-flight and the offline analyzer must load
# it.
mkfifo "$trace_tmp/metrics.fifo"
./build/tools/gran_top --check="$trace_tmp/metrics.fifo" &
check_pid=$!
./build/bench/graph_sweep --pattern=stencil1d --width=8 --steps=6 \
    --grain-min=2000 --grain-max=2000 --samples=1 --workers=2 \
    --metrics-out="$trace_tmp/metrics.fifo" \
    --metrics-interval-us=20000 >/dev/null
wait "$check_pid"
./build/bench/graph_sweep --pattern=stencil1d --width=64 --steps=200 \
    --grain-min=100000 --grain-max=100000 --samples=3 --workers=2 \
    --metrics-out="$trace_tmp/flight.jsonl" \
    --flight-prefix="$trace_tmp/flight" >/dev/null &
sweep_pid=$!
sleep 1
kill -USR1 "$sweep_pid" 2>/dev/null \
  || { echo "telemetry smoke: sweep finished before SIGUSR1" >&2; exit 1; }
wait "$sweep_pid"
flight_bin=$(ls "$trace_tmp"/flight-*.bin 2>/dev/null | head -1)
[[ -n "$flight_bin" ]] \
  || { echo "telemetry smoke: no flight dump written" >&2; exit 1; }
./build/tools/gran_trace_report --in="$flight_bin" >/dev/null
echo "telemetry smoke: FIFO stream + SIGUSR1 flight dump ok"

echo "=== ci: FIFO reader-gone smoke ==="
# A FIFO's reader leaves after one line: the bench must finish with exit 0
# and one "(disabling)" warning from the sink, not die of SIGPIPE (141).
mkfifo "$trace_tmp/gone.fifo"
head -n 1 "$trace_tmp/gone.fifo" >/dev/null &
head_pid=$!
status=0
./build/bench/graph_sweep --pattern=stencil1d --width=64 --steps=200 \
    --grain-min=100000 --grain-max=100000 --samples=2 --workers=2 \
    --metrics-out="$trace_tmp/gone.fifo" --metrics-interval-us=20000 \
    >/dev/null 2>"$trace_tmp/gone.txt" || status=$?
wait "$head_pid"
[[ $status -eq 0 && $(grep -c "(disabling)" "$trace_tmp/gone.txt") -eq 1 ]] \
  || { echo "FIFO reader-gone smoke: exit $status, want 0 and one warning" >&2; \
       cat "$trace_tmp/gone.txt" >&2; exit 1; }
echo "FIFO reader-gone smoke: exit 0, sink disabled once"

echo "=== ci: env time-series smoke ==="
# The counter time series with no flags at all: GRAN_METRICS arms the
# telemetry session from the thread manager's constructor in any gran
# program, and every window line carries the /threads counters under
# "counters".
GRAN_METRICS="$trace_tmp/env.jsonl" GRAN_METRICS_US=20000 \
    ./build/examples/heat_ring --points=400000 --partition=1000 --steps=50 \
    --workers=2 >/dev/null
./build/tools/gran_top --check="$trace_tmp/env.jsonl"
env_windows=$(grep -cE \
    '"type":"window".*"counters":\{[^}]*"/threads/count/cumulative":' \
    "$trace_tmp/env.jsonl" || true)
[[ "$env_windows" -ge 2 ]] \
  || { echo "env time-series smoke: $env_windows window(s) hold" \
            "/threads/count/cumulative, want >= 2" >&2; exit 1; }
echo "env time-series smoke: $env_windows windows ok"

echo "=== ci: topology smoke ==="
# Hier-vs-flat steal order and both pinning layouts at CI sizes. The forced
# 2-worker / 2-domain split exercises the remote-steal accounting even on
# single-CPU runners; GRAN_PIN must be honored whatever the host looks like.
./build/bench/ablation_topology --quick --workers=2 --domains=2 >/dev/null
GRAN_PIN=compact ./build/bench/ablation_topology --quick --workers=2 >/dev/null
GRAN_PIN=scatter ./build/bench/ablation_topology --quick --workers=2 >/dev/null
echo "topology smoke: quick + GRAN_PIN={compact,scatter} ok"

echo "=== ci: lazy-split smoke ==="
# A quick Fig. 3-style grain sweep with the closed-loop splitter in the ring,
# native and simulated. No throughput gate at CI sizes (the full gated run is
# scripts/bench_gates.sh); this catches wiring regressions —
# lazy_chunk must run to completion in both modes and the sim must split.
./build/bench/ablation_adaptive --items=100000 --samples=1 --mode=native \
    >/dev/null
./build/bench/ablation_adaptive --items=100000 --samples=1 --mode=sim \
    | grep -q 'sim/busy_spin' \
  || { echo "lazy-split smoke: sim leg missing" >&2; exit 1; }
echo "lazy-split smoke: native + sim ok"

echo "=== ci: service smoke ==="
# Task-service ingress end to end, sized for 1-CPU runners: a short open-loop
# run (fixed seed) through the live runtime and through the DES mirror, its
# report must carry the sojourn-percentile line, and the streamed telemetry
# must validate with the interval.service section present.
./build/bench/service_load --duration=0.5 --rate=2000 --grain=20000 \
    --workers=1 --clients=1 --seed=3 --mode=both \
    --metrics-out="$trace_tmp/service.jsonl" --metrics-interval-us=100000 \
    > "$trace_tmp/service.txt"
grep -E "sojourn p50/p95/p99 = " "$trace_tmp/service.txt" >/dev/null \
  || { echo "service smoke: no sojourn-percentile line" >&2; \
       cat "$trace_tmp/service.txt" >&2; exit 1; }
grep -q '\[sim\]' "$trace_tmp/service.txt" \
  || { echo "service smoke: sim leg missing" >&2; exit 1; }
./build/tools/gran_top --check="$trace_tmp/service.jsonl"
grep -q '"service":{' "$trace_tmp/service.jsonl" \
  || { echo "service smoke: no interval.service section in JSONL" >&2; exit 1; }
echo "service smoke: native + sim + telemetry ok"

echo "=== ci: pmu smoke ==="
# The PMU plane both ways through the same code path. The software-only rung
# (GRAN_PMU=sw) must always work — no perf fds at all — and its report must
# carry the clearly-labeled software-only attribution table. The hardware
# probe (GRAN_PMU=1) must never crash whatever rung perf_event_paranoid or
# the container seccomp policy grants; whichever rung it lands on, the same
# "pmu attribution" table must print.
paranoid=$(cat /proc/sys/kernel/perf_event_paranoid 2>/dev/null || echo "?")
echo "perf_event_paranoid=$paranoid"
GRAN_PMU=sw ./build/tools/gran_trace_report --pattern=stencil1d --width=8 \
    --steps=6 --grain=2000 --workers=2 > "$trace_tmp/pmu_sw.txt" 2>&1
grep -q "pmu attribution (software-only mode" "$trace_tmp/pmu_sw.txt" \
  || { echo "pmu smoke: no software-only attribution table" >&2; \
       cat "$trace_tmp/pmu_sw.txt" >&2; exit 1; }
GRAN_PMU=1 ./build/tools/gran_trace_report --pattern=stencil1d --width=8 \
    --steps=6 --grain=2000 --workers=2 > "$trace_tmp/pmu_hw.txt" 2>&1
grep -q "pmu attribution (" "$trace_tmp/pmu_hw.txt" \
  || { echo "pmu smoke: no attribution table under GRAN_PMU=1" >&2; \
       cat "$trace_tmp/pmu_hw.txt" >&2; exit 1; }
# Streamed telemetry with the plane on: gran_top must accept the interval.pmu
# JSONL section.
GRAN_PMU=sw ./build/bench/graph_sweep --pattern=stencil1d --width=8 --steps=6 \
    --grain-min=2000 --grain-max=2000 --samples=1 --workers=2 \
    --metrics-out="$trace_tmp/pmu.jsonl" --metrics-interval-us=20000 >/dev/null
./build/tools/gran_top --check="$trace_tmp/pmu.jsonl"
grep -q '"pmu":{' "$trace_tmp/pmu.jsonl" \
  || { echo "pmu smoke: no interval.pmu section in JSONL" >&2; exit 1; }
echo "pmu smoke: software-only + hardware-probe (paranoid=$paranoid) ok"

echo "=== ci: tsan ==="
scripts/tsan_check.sh

echo "=== ci: asan ==="
scripts/asan_check.sh

echo "ci: all green"

#!/usr/bin/env bash
# Records the closed-loop granularity baseline (best-fixed sweep vs
# lazy_chunk) into results/BENCH_adaptive.json, building the
# bench if needed. The --check gate fails the script when lazy_chunk lands
# below 90% of the best fixed grain's throughput in any mode/kernel cell —
# the controller must find the sweet spot without being told the grain.
#
#   scripts/bench_adaptive_baseline.sh [--items=N] [--samples=N] [--ratio=R] ...
# Extra args go to ablation_adaptive.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j --target ablation_adaptive >/dev/null

mkdir -p results
# 2M items x 5 interleaved samples: large enough that per-pass runtime
# dominates scheduling noise, sampled round-robin so host speed drift (cloud
# hosts swing ~2x between phases) hits every configuration equally.
./build/bench/ablation_adaptive --items=2000000 --samples=5 --mode=both \
    --check --ratio=0.9 --json=results/BENCH_adaptive.json "$@" \
  | tee results/ablation_adaptive.txt

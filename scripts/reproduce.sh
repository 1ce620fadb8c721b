#!/usr/bin/env bash
# One-command reproduction: build, test, and regenerate every table/figure.
#
#   scripts/reproduce.sh [--full]
#
# --full uses the paper's 100 M-point grid (hours); default is the 10 M-point
# scale (minutes). Outputs land in results/ as text tables and CSVs.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=""
if [[ "${1:-}" == "--full" ]]; then FULL="--full"; fi

echo "=== configure & build ==="
cmake -B build -G Ninja
cmake --build build

echo "=== tests ==="
ctest --test-dir build --output-on-failure

mkdir -p results
echo "=== tables & figures ==="
run() {
  local name="$1"; shift
  echo "--- $name ---"
  "./build/bench/$name" "$@" --quiet --csv=results/ | tee "results/$name.txt"
}

./build/bench/table1_platforms --csv=results/ | tee results/table1_platforms.txt
run fig3_exec_time $FULL
run fig4_idle_rate_haswell $FULL --select
run fig5_idle_rate_phi $FULL
run fig6_wait_time $FULL
run fig7_overheads_haswell $FULL
run fig8_overheads_phi $FULL
run fig9_pending_queue_haswell $FULL --select
run fig10_pending_queue_phi $FULL

echo "=== ablations & micro benches ==="
run ablation_scheduler $FULL
run ablation_steal_order $FULL
./build/bench/ablation_adaptive | tee results/ablation_adaptive.txt
./build/bench/micro_grain_sweep | tee results/micro_grain_sweep.txt
./build/bench/micro_grain_sweep --mode=sim --cores=28 | tee results/micro_grain_sweep_sim.txt

echo "=== done; see results/ and EXPERIMENTS.md ==="

#!/usr/bin/env bash
# The performance gates that perfbench has no row for, run on this host:
#   * ablation_adaptive --check: lazy_chunk reaches >= 90% of the best fixed
#     grain's throughput in every mode/kernel cell (docs/ADAPTIVE.md);
#   * micro_observer_overhead: median end-to-end overhead of tracing <= 10%,
#     telemetry <= 2% and the PMU software rung <= 30%, over 21 rotated
#     rounds against an off run (docs/TRACING.md, TELEMETRY.md, PMU.md).
# Each writes results/<bench>.txt, whose first line names the commit, nproc,
# CPU model and date. Exits non-zero when either gate fails. Everything else
# is compared between two revisions with `python3 scripts/ab.py <base-rev>`.
#
#   scripts/bench_gates.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target ablation_adaptive micro_observer_overhead >/dev/null

sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
git diff --quiet HEAD 2>/dev/null || sha="$sha-dirty"
model=$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')
header="# git $sha, nproc $(nproc), $model, $(date -u +%Y-%m-%dT%H:%M:%SZ)"

mkdir -p results
status=0
gate() {
  local name="$1"; shift
  echo "=== $name ==="
  if ! { echo "$header"; "./build/bench/$name" "$@"; } | tee "results/$name.txt"; then
    echo "bench_gates: $name FAILED" >&2
    status=1
  fi
}

# 2M items x 5 interleaved samples: per-pass runtime dominates scheduling
# noise, and round-robin sampling spreads host speed drift over every cell.
gate ablation_adaptive --items=2000000 --samples=5 --mode=both --check --ratio=0.9
gate micro_observer_overhead

exit "$status"

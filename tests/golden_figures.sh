#!/bin/sh
# Golden check of the simulator figures: runs each named bench with --quiet
# and diffs its stdout against <results-dir>/<bench>.txt, ignoring the
# "# gran config:" line on both sides. The simulator is deterministic, so a
# difference is a change to the model, the sweep or the printing.
#
#   golden_figures.sh <results-dir> <bench-dir> <bench>...
results=$1
bin=$2
shift 2
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for name in "$@"; do
  "$bin/$name" --quiet | grep -v '^# gran config:' > "$out"
  if grep -v '^# gran config:' "$results/$name.txt" | diff -u - "$out"; then
    echo "$name: matches $results/$name.txt"
  else
    status=1
  fi
done
exit $status

#!/bin/sh
# Passes when a command exits with the expected status and its output
# (stdout and stderr) matches an extended regular expression.
#
#   expect_exit.sh <status> <regex> <command> [args...]
want=$1
pattern=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want" ]; then
  echo "expected exit status $want, got $rc"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$pattern"; then
  echo "output does not match: $pattern"
  exit 1
fi

#!/usr/bin/env bash
# Runs one command and checks that it exits 0 and prints an expected
# substring (stdout and stderr together).
# Usage: expect_output.sh <substring> <cmd> [args...]
set -u

WANT=${1:?usage: expect_output.sh <substring> <cmd> [args...]}
shift

OUT=$("$@" 2>&1)
STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "FAIL $*: exit $STATUS"
  echo "$OUT" | sed 's/^/  | /'
  exit 1
fi
if ! printf '%s' "$OUT" | grep -qF -- "$WANT"; then
  echo "FAIL $*: output lacks \"$WANT\""
  echo "$OUT" | sed 's/^/  | /'
  exit 1
fi
echo "ok   $*"

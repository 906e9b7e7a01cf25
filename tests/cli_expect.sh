#!/bin/sh
# Usage: cli_expect.sh <exit-status> <text> <command> [args...]
#
# Runs the command and passes only when it exits with <exit-status> and its
# combined stdout/stderr contains <text> (a fixed string) — for CLI error
# cases whose exit status is part of the contract.
expected=$1
text=$2
shift 2
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne "$expected" ]; then
  echo "cli_expect: exit status $status, expected $expected"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -qF -- "$text"; then
  echo "cli_expect: output lacks '$text'"
  exit 1
fi

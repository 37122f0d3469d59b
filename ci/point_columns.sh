#!/usr/bin/env bash
# One off-preset `unruh-lab point` through the console script: it must exit
# 0, and the printed names must be the CSV columns, in order.  A NaN q_r must
# exit 3, the domain-error code, print nothing on stdout, and name q_r at the
# start of stderr.  Runs from any directory; needs `unruh-lab` on PATH and
# `python` able to import unruh_lab.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
unruh-lab point --family quantum-single --region bob-i --gamma 0.3 --qr 0.8 --alpha 0.6 > "$work/point.log"
cat "$work/point.log"
cut -d= -f1 "$work/point.log" | diff - <(python -c \
  'from unruh_lab.output import CSV_COLUMNS; print(*CSV_COLUMNS, sep="\n")')
status=0
unruh-lab point --family quantum-single --region bob-i --gamma 0.3 --qr nan \
  > "$work/nan.log" 2> "$work/nan.err" || status=$?
cat "$work/nan.err"
test "$status" -eq 3 || { echo "expected exit 3, got $status"; exit 1; }
test ! -s "$work/nan.log" || { echo "expected no stdout"; exit 1; }
[[ "$(< "$work/nan.err")" == "error: q_r:"* ]] || { echo "expected stderr to start with 'error: q_r:'"; exit 1; }

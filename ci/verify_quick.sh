#!/usr/bin/env bash
# Run `unruh-lab verify --quick` through the console script.  Check 5 fails by
# design, so the run must exit 1; every row's verdict and name, and the
# summary line, must match the expected list, so a verdict that flips
# anywhere fails the script.  Runs from any directory; needs `unruh-lab` on
# PATH.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
status=0
unruh-lab verify --quick > "$work/verify.log" || status=$?
cat "$work/verify.log"
test "$status" -eq 1 || { echo "expected exit 1, got $status"; exit 1; }
cut -d: -f1 "$work/verify.log" | diff - <(printf '%s\n' \
  'PASS 1-inertial-limit' \
  'PASS 2-infinite-acceleration-coincidence' \
  'PASS 3-quantum-conditional-entropy-vanishes' \
  'PASS 4-classical-channel-contrast' \
  'FAIL 5-mutual-information-monotonicity' \
  'PASS 6-werner-strong-additivity' \
  'PASS 7-oracle-equivalence' \
  'PASS 8-purity-and-invariants' \
  'NOTE strong-additivity-variant-comparison' \
  '7 of 8 checks passed')

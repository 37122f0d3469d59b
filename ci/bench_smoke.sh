#!/usr/bin/env bash
# Each benchmark workload for 2 s, untraced and traced, so the tracer runs
# too.  run.py exits 0 even when operations fail; its last line says whether
# every one was correct (the line before it holds the errors), so a last line
# without "correct": true fails the script, and with pipefail so does a
# run.py that crashes.  Runs from any directory; needs `python` with numpy.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for workload in figures point-queries verify-quick; do
  for trace in 0 1; do
    python benchmarks/run.py --workload "$workload" --seconds 2 --trace "$trace" | tee "$work/bench.log"
    tail -n 1 "$work/bench.log" | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  done
done

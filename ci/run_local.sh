#!/usr/bin/env bash
# Run the workflow's ci/ scripts in the workflow's order against this
# checkout, without installing it.  No shim is needed: no script starts the
# `unruh-lab` console script, and each puts src/ on the path itself.  Stops
# at the first script that fails, with its status.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
for script in unrun value_diff bench_smoke mutants; do
  echo "== ci/$script.sh"
  bash "$root/ci/$script.sh"
done

#!/usr/bin/env bash
# Write every figure preset through the `unruh-lab` console script and diff
# each file's sha256 against the committed golden digests
# (benchmarks/golden_figures.json), name by name: a missing, extra or changed
# file is a line of the diff, which fails the script.  Both lists are sorted
# in one collation.  Runs from any directory; needs `unruh-lab` on PATH.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for preset in fig1 fig2 fig3 fig4; do
  unruh-lab figure "$preset" --out-dir "$work/figs" > /dev/null
done
python -c 'import json, sys; print(*(f"{d}  {n}" for n, d in json.load(open(sys.argv[1])).items()), sep="\n")' \
  benchmarks/golden_figures.json | LC_ALL=C sort > "$work/golden.sha256"
(cd "$work/figs" && sha256sum -- *) | LC_ALL=C sort | diff "$work/golden.sha256" -

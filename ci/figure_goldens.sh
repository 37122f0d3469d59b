#!/usr/bin/env bash
# Write every figure preset in one call, and fig4 in the json and plot
# formats too, through the `unruh-lab` console script and diff each file's
# sha256 against the committed golden digests (benchmarks/golden_figures.json and
# tests/golden_fig4_json_plot.json), name by name: a missing, extra or
# changed file is a line of the diff, which fails the script.  Both lists are
# sorted in one collation.  Runs from any directory; needs `unruh-lab` on PATH.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# diff_golden GOLDEN DIR: the digests of DIR's files against GOLDEN's
diff_golden() {
  python -c 'import json, sys; print(*(f"{d}  {n}" for n, d in json.load(open(sys.argv[1])).items()), sep="\n")' \
    "$1" | LC_ALL=C sort > "$work/golden.sha256"
  (cd "$2" && sha256sum -- *) | LC_ALL=C sort | diff "$work/golden.sha256" -
}

unruh-lab figure fig1 fig2 fig3 fig4 --out-dir "$work/figs" > /dev/null
diff_golden benchmarks/golden_figures.json "$work/figs"
for format in json plot; do
  unruh-lab figure fig4 --format "$format" --out-dir "$work/fig4" > /dev/null
done
diff_golden tests/golden_fig4_json_plot.json "$work/fig4"

#!/usr/bin/env bash
# Sweep the four presets in a base revision and in this working tree and
# compare their records key by key (ci/value_diff.py): the report lists, per
# preset and measure, the values that moved and the rows whose text would
# change.  A row whose text changes at precision 12, the goldens' precision,
# fails the script.  The base is HEAD while a tracked file has changes, and
# HEAD^ when none has, as in CI, where the tree is the commit under test.
# Runs from any directory; needs git and `python` with numpy.
set -euo pipefail
cd "$(dirname "$0")/.."
base=HEAD
if [ -z "$(git status --porcelain --untracked-files=no)" ]; then
  base=HEAD^
fi
python ci/value_diff.py "$base"

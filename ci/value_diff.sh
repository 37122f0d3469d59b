#!/usr/bin/env bash
# Sweep the four presets in HEAD and in this working tree and compare their
# records key by key (ci/value_diff.py): the report lists, per preset and
# measure, the values that moved and the rows whose text would change.  A
# row whose text changes at precision 12, the goldens' precision, fails the
# script.  Runs from any directory; needs git and `python` with numpy.
set -euo pipefail
cd "$(dirname "$0")/.."
python ci/value_diff.py HEAD

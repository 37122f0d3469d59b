#!/usr/bin/env bash
# Run the tier-1 suite once under a line tracer (ci/unrun.py) and print
# every statement of src/unruh_lab/ that no test runs.  The list must equal
# ci/unrun.py's committed allow-list, which gives one reason per entry.
# The property tests draw from a fixed seed, so the list is the same on
# every run.  Runs from any directory; needs `python` with numpy, pytest
# and hypothesis.
set -euo pipefail
cd "$(dirname "$0")/.."
python ci/unrun.py

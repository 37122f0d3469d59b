#!/usr/bin/env bash
# Run the tier-1 suite once under a line tracer (ci/unrun.py) and print
# every statement of src/unruh_lab/ that no test runs.  No statement may be
# unrun: one such statement fails the script.  The property tests draw from
# a fixed seed, so the result is the same on every run.  Runs from any
# directory; needs `python` with numpy, pytest and hypothesis.
set -euo pipefail
cd "$(dirname "$0")/.."
python ci/unrun.py

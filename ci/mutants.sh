#!/usr/bin/env bash
# Apply each entry of the mutation catalogue (ci/mutants.py) to a temporary
# copy of the checkout and run the tests named to kill it: a mutant that
# survives, times out or no longer matches the source fails the script.
# Runs from any directory; needs `python` with numpy, pytest and hypothesis.
set -euo pipefail
cd "$(dirname "$0")/.."
python ci/mutants.py

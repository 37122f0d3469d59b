#!/usr/bin/env bash
# Run the workflow's ci/ scripts in the workflow's order against this
# checkout, without installing it: a PATH shim stands in for the
# `unruh-lab` console script (`python3 -m unruh_lab` with src/ on
# PYTHONPATH).  Stops at the first script that fails, with its status.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
shim="$(mktemp -d)"
trap 'rm -rf "$shim"' EXIT
printf '#!/usr/bin/env bash\nexec python3 -m unruh_lab "$@"\n' > "$shim/unruh-lab"
chmod +x "$shim/unruh-lab"
export PATH="$shim:$PATH"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
for script in unrun verify_quick point_columns figure_goldens value_diff bench_smoke mutants; do
  echo "== ci/$script.sh"
  bash "$root/ci/$script.sh"
done

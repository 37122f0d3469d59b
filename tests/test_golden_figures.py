"""The four figure presets, written as CSV, must match the committed golden hashes.

``benchmarks/golden_figures.json`` holds the sha256 of every file the
presets write at the default precision of 12 digits.  The files pin the
exact rounding of the whole evaluation path, so any change to it that moves
a twelfth digit fails here.  The path must not depend on the CPU features
numpy dispatches to, so the presets are written under each level too.
"""

import json

import pytest

from helpers import DISPATCH_LEVELS, ROOT, preset_hashes, run_at_dispatch_level

GOLDEN = ROOT / "benchmarks" / "golden_figures.json"


def assert_golden(found) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(found) == sorted(golden)
    mismatched = sorted(name for name, digest in golden.items() if found[name] != digest)
    assert mismatched == []


def test_presets_match_golden_hashes(tmp_path):
    assert_golden(preset_hashes(tmp_path))


@pytest.mark.parametrize("level", DISPATCH_LEVELS + ("baseline",))
def test_presets_match_golden_hashes_at_each_dispatch_level(level, tmp_path):
    code = f"import json\nprint(json.dumps(helpers.preset_hashes({str(tmp_path)!r})))"
    assert_golden(json.loads(run_at_dispatch_level(level, code)))

"""The four figure presets, written as CSV, must match the committed golden hashes.

``benchmarks/golden_figures.json`` holds the sha256 of every file the
presets write at the default precision of 12 digits.  The files pin the
exact rounding of the whole evaluation path, so any change to it that moves
a twelfth digit fails here.
"""

import hashlib
import json
from pathlib import Path

from unruh_lab import FigurePreset, OutputFormat, figure_preset, run_sweep, write_figure_files

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden_figures.json"


def test_presets_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for preset in FigurePreset:
        spec = figure_preset(preset)
        write_figure_files(preset, run_sweep(spec), spec, tmp_path, OutputFormat("csv", 12))
    found = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert sorted(found) == sorted(golden)
    mismatched = sorted(name for name, digest in golden.items() if found[name] != digest)
    assert mismatched == []

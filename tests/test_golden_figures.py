"""The four figure presets, written as CSV, must match the committed golden hashes.

``benchmarks/golden_figures.json`` holds the sha256 of every file the
presets write at the default precision of 12 digits.  The files pin the
exact rounding of the whole evaluation path, so any change to it that moves
a twelfth digit fails here.  The path must not depend on the CPU features
numpy dispatches to, so the presets are written under each level too.
``golden_fig4_json_plot.json``, beside this file, pins fig4's JSON and
plot files the same way, so each of the three writers is pinned.  Each
set is written through ``write_figure_set``, through the per-preset
pairing of ``run_sweep`` and ``write_figure_files`` it stands for, and
through ``unruh-lab figure`` with every preset in one call.
"""

import json

import pytest

from unruh_lab import FigurePreset, cli, write_figure_set

from helpers import (
    DISPATCH_LEVELS,
    ROOT,
    preset_hashes,
    run_at_dispatch_level,
    write_each_preset,
)

GOLDEN = ROOT / "benchmarks" / "golden_figures.json"
FIG4_JSON_PLOT_GOLDEN = ROOT / "tests" / "golden_fig4_json_plot.json"


def assert_golden(found, golden_path=GOLDEN) -> None:
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert sorted(found) == sorted(golden)
    mismatched = sorted(name for name, digest in golden.items() if found[name] != digest)
    assert mismatched == []


def write_through_cli(presets, out_dir, fmt) -> None:
    """``unruh-lab figure`` with all of ``presets`` in one call."""
    names = [FigurePreset(preset).value for preset in presets]
    argv = ["figure", *names, "--out-dir", str(out_dir), "--format", fmt.kind]
    assert cli.main(argv + ["--precision", str(fmt.precision)]) == 0


# the package's one route, the per-preset pairing it stands for, and the CLI
WRITERS = (write_figure_set, write_each_preset, write_through_cli)


def test_presets_match_golden_hashes(tmp_path):
    for writer in WRITERS:
        assert_golden(preset_hashes(tmp_path / writer.__name__, FigurePreset, writer=writer))


def test_fig4_json_and_plot_match_golden_hashes(tmp_path):
    for writer in WRITERS:
        out_dir = tmp_path / writer.__name__
        found = preset_hashes(out_dir, [FigurePreset.FIG4], ("json", "plot"), writer)
        assert_golden(found, FIG4_JSON_PLOT_GOLDEN)


@pytest.mark.parametrize("level", DISPATCH_LEVELS + ("baseline",))
def test_presets_match_golden_hashes_at_each_dispatch_level(level, tmp_path):
    code = f"import json\nprint(json.dumps(helpers.preset_hashes({str(tmp_path)!r})))"
    assert_golden(json.loads(run_at_dispatch_level(level, code)))

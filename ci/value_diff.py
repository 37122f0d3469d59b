#!/usr/bin/env python3
"""Which record values of the four figure presets moved between two trees.

Usage: python ci/value_diff.py REV [REV2]

REV and REV2 are git revisions; without REV2 the other side is this
checkout's working tree.  A revision's ``src/`` is extracted with
``git archive`` into a temporary directory, which is removed on every exit
path, so the checkout and its ``.git`` stay untouched.  Each tree sweeps
the presets in its own interpreter, writing no bytecode, and hands its
records over with every float as ``float.hex``, so the comparison sees
their bits.

Records are keyed (preset, family, wedge, gamma, q_r, F).  For each preset
and measure the report gives the values whose bits moved, the largest
|delta|, and the rows whose ``render_csv`` text of that measure changes at
precisions 6, 12 and 17: at 12, the default, those are the golden rows that
would change.  This checkout's renderer prints both sides, so only values
show.  Exits 1 when some text changes at precision 12 or a key is on one
side only, 2 when git or a sweep fails, and 0 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from unruh_lab import BobRegion, ChannelFamily, SweepRecord, render_csv  # noqa: E402

MEASURES = SweepRecord._fields[6:]  # s_a .. ssa_value
PRECISIONS = (6, 12, 17)
GOLDEN_PRECISION = 12

# run by each tree's interpreter: argv[1] is the tree's src/
_SWEEP = """
import json, sys
from pathlib import Path
import unruh_lab
from unruh_lab import FigurePreset, figure_preset, run_sweep
if Path(sys.argv[1]).resolve() not in Path(unruh_lab.__file__).resolve().parents:
    sys.exit(f"imported unruh_lab from {unruh_lab.__file__}, not from {sys.argv[1]}")
def field(value):
    return None if value is None else float(value).hex()
json.dump({
    preset.value: [[getattr(v, "value", v) for v in r[:2]] + [field(v) for v in r[2:]]
                   for r in run_sweep(figure_preset(preset))]
    for preset in FigurePreset
}, sys.stdout)
"""


class Change(NamedTuple):
    """One preset's measure: rows compared, values whose bits moved, largest |delta|,
    and rows whose text changed at each of :data:`PRECISIONS`."""

    rows: int
    moved: int
    largest: float
    text: tuple[int, ...]


def sweep_tree(src: Path) -> dict[str, list[SweepRecord]]:
    """The preset records of the package under ``src``, swept in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP, str(src)], env=env, capture_output=True, text=True
    )
    if done.returncode:
        raise RuntimeError(f"sweep of {src} failed:\n{done.stderr}")
    return {
        preset: [
            SweepRecord(
                ChannelFamily(family),
                BobRegion(region),
                *(None if v is None else float.fromhex(v) for v in numbers),
            )
            for family, region, *numbers in rows
        ]
        for preset, rows in json.loads(done.stdout).items()
    }


def extract(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev``, extracted under ``into``."""
    done = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True
    )
    if done.returncode:
        raise RuntimeError(f"git archive {rev} failed:\n{done.stderr.decode()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        # the "data" filter, where this Python has it, refuses links out of `into`
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def _key(record: SweepRecord) -> tuple:
    return record.family, record.region, record.gamma, record.q_r, record.f


def _columns(records: list[SweepRecord], precision: int) -> list[list[str]]:
    return [row.split(",") for row in render_csv(records, precision).splitlines()[1:]]


def compare(
    old: dict[str, list[SweepRecord]], new: dict[str, list[SweepRecord]]
) -> tuple[dict[tuple[str, str], Change], list[tuple]]:
    """A :class:`Change` per (preset, measure), and the keys found on one side only."""
    changes, unmatched = {}, []
    for preset in sorted(old.keys() | new.keys()):
        before = {_key(r): r for r in old.get(preset, [])}
        after = {_key(r): r for r in new.get(preset, [])}
        unmatched += [(preset, *key) for key in before.keys() ^ after.keys()]
        pairs = [(before[key], after[key]) for key in before if key in after]
        texts = [
            (_columns([a for a, _ in pairs], p), _columns([b for _, b in pairs], p))
            for p in PRECISIONS
        ]
        for measure in MEASURES:
            index = SweepRecord._fields.index(measure)
            moved, largest = 0, 0.0
            for a, b in pairs:
                x, y = a[index], b[index]
                if (x is None) != (y is None) or x is not None and x.hex() != y.hex():
                    moved += 1
                    delta = float("inf") if x is None or y is None else abs(x - y)
                    largest = max(largest, delta)
            text = tuple(
                sum(r[index] != s[index] for r, s in zip(rows_a, rows_b))
                for rows_a, rows_b in texts
            )
            changes[preset, measure] = Change(len(pairs), moved, largest, text)
    return changes, unmatched


def text_changed(changes: dict[tuple[str, str], Change], unmatched: list[tuple]) -> bool:
    """Whether a golden row would change: text at the golden precision, or a missing key."""
    at = PRECISIONS.index(GOLDEN_PRECISION)
    return bool(unmatched) or any(change.text[at] for change in changes.values())


def report(changes: dict[tuple[str, str], Change], unmatched: list[tuple]) -> str:
    head = ["preset", "measure", "rows", "moved", "max|delta|"]
    rows = [head + [f"text@{p}" for p in PRECISIONS]]
    for (preset, measure), c in changes.items():
        rows.append([preset, measure, c.rows, c.moved, f"{c.largest:.3g}", *c.text])
    compared, moved, largest, text = zip(*changes.values())
    rows.append(
        ["total", "", sum(compared), sum(moved), f"{max(largest):.3g}"]
        + [sum(column) for column in zip(*text)]
    )
    lines = ["  ".join(f"{cell!s:>12}" for cell in row) for row in rows]
    lines += [f"only on one side: {key}" for key in unmatched]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still removes the tree
    try:
        with tempfile.TemporaryDirectory(prefix="value-diff-") as tmp:
            trees = [extract(rev, Path(tmp, str(i))) for i, rev in enumerate(argv)]
            if len(trees) == 1:
                trees.append(ROOT / "src")
            changes, unmatched = compare(*map(sweep_tree, trees))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{argv[0]} -> {argv[1] if len(argv) == 2 else 'working tree'}")
    print(report(changes, unmatched))
    return 1 if text_changed(changes, unmatched) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

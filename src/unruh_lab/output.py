"""Record rendering: fixed CSV schema, JSON, and two-column plot data; the figure-set writer.

The CSV columns are the fields of :class:`~unruh_lab.sweep.SweepRecord`, in
their order (``CSV_COLUMNS``), stable for golden-file comparison.  The three
formats share one row writer, :func:`_render`, whose docstring holds the
formatting rules; :func:`write_figure_set` is the route from preset names
to files.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import DomainError
from .states import read_real
from .sweep import FigurePreset, Measure, SweepRecord, SweepSpec, figure_preset, run_sweep
from .sweep import _check_members

CSV_COLUMNS = SweepRecord._fields

_EXTENSIONS = {"csv": "csv", "json": "json", "plot": "dat"}
_KINDS = tuple(_EXTENSIONS)
_PRECISION_RANGE = (6, 17)  # the fewest and the most digits after the decimal point


@dataclass(frozen=True)
class OutputFormat:
    kind: str = "csv"
    precision: int = 12

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError("format", f"must be one of {_KINDS}, got {self.kind!r}")
        if isinstance(self.precision, bool) or not hasattr(self.precision, "__index__"):
            raise DomainError("precision", f"must be an integer, got {self.precision!r}")
        precision = operator.index(self.precision)
        read_real("precision", precision, *_PRECISION_RANGE)
        object.__setattr__(self, "precision", precision)


def render_csv(records: list[SweepRecord], precision: int = OutputFormat.precision) -> str:
    return _render("csv", records, precision)


def _run_key(record: SweepRecord) -> tuple:
    return record.family, record.region, record.f is None, record.ssa_value is None


def _render(
    kind: str, records: list[SweepRecord], precision: int, measure: Measure | None = None
) -> str:
    """The text of ``records`` in format ``kind``, each number at ``precision`` decimals.

    Numbers are fixed-point with a ``.`` decimal point, so the bytes do not
    depend on locale or platform.  Plot data is two columns, gamma and
    ``measure``; CSV and JSON rows hold every field.

    A run's template holds ``%.{precision}f`` for each number and an empty
    field (``null`` in JSON) for each ``None``, so a row fills it with the
    numbers it holds.  Every number then has exactly ``precision`` decimals
    and a ``-`` only as its sign, so replacing the negative zero's text
    prints every value that rounds to zero as an unsigned zero.
    """
    number = f"%.{precision}f"
    values = operator.itemgetter(slice(2, None))  # the number columns
    if kind == "plot":
        values = operator.attrgetter("gamma", measure.value)
    rows = []
    for (family, region, *_), run in itertools.groupby(records, _run_key):
        run = list(run)
        present = [value is not None for value in values(run[0])]
        slots = [number if kept else None for kept in present]
        if kind == "plot":
            template = " ".join(slot or "" for slot in slots)
        elif kind == "csv":
            template = ",".join([family.value, region.value, *(slot or "" for slot in slots)])
        else:  # the row as json.dumps writes it inside the list; an empty field is null
            fields = dict(zip(CSV_COLUMNS, [family.value, region.value, *slots]))
            template = json.dumps([fields], indent=2)[2:-2]
        rows += (template % tuple(itertools.compress(values(r), present)) for r in run)
    if kind == "csv":
        rows.insert(0, ",".join(CSV_COLUMNS))
    text = (",\n" if kind == "json" else "\n").join(rows)
    if kind == "json":
        text = f"[\n{text}\n]" if rows else "[]"
    zero = "0." + "0" * precision
    return text.replace("-" + zero, zero) + "\n"


def _series_token(value: float) -> str:
    # + 0.0 turns a -0.0 into 0.0, as the file's own text prints it
    return f"{value + 0.0:.10g}"


def series_filename(
    figure: FigurePreset, record: SweepRecord, kind: str = "csv"
) -> str:
    """``<figure>_<family>_<region>_qr<q>[_f<F>].<ext>`` for the record's series."""
    name = (
        f"{figure.value}_{record.family.value}_{record.region.value}"
        f"_qr{_series_token(record.q_r)}"
    )
    if record.f is not None:
        name += f"_f{_series_token(record.f)}"
    return f"{name}.{_EXTENSIONS[kind]}"


def split_series(records: list[SweepRecord]) -> dict[tuple, list[SweepRecord]]:
    """Group records into series keyed (family, region, q_r, f), preserving order; a run of
    one (family, region) is split by (q_r, f), so an enum member is hashed once per series."""
    series: dict[tuple, list[SweepRecord]] = {}
    for (family, region), run in itertools.groupby(records, operator.itemgetter(0, 1)):
        points = collections.defaultdict(list)
        for record in run:
            points[record.q_r, record.f].append(record)
        for (q_r, f), members in points.items():
            series.setdefault((family, region, q_r, f), []).extend(members)
    return series


def write_figure_files(
    figure: FigurePreset | str,
    records: list[SweepRecord],
    spec: SweepSpec,
    out_dir: str | Path,
    fmt: OutputFormat = OutputFormat(),
) -> list[Path]:
    """One data file per (family, region, q_r[, f]) series; returns the paths.

    Raises :class:`DomainError` naming the grid, before any file is
    written, when two series would share a file name.
    """
    figure = FigurePreset(figure)
    out_dir = Path(out_dir)
    files: dict[Path, list[SweepRecord]] = {}
    for series in split_series(records).values():
        path = out_dir / series_filename(figure, series[0], fmt.kind)
        if path in files:
            raise _name_clash(files[path][0], series[0])
        files[path] = series
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, series in files.items():
        text = _render(fmt.kind, series, fmt.precision, spec.measure)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return list(files)


def write_figure_set(
    presets: Iterable[FigurePreset | str],
    out_dir: str | Path,
    fmt: OutputFormat = OutputFormat(),
) -> list[Path]:
    """Each preset's sweep written by :func:`write_figure_files`; all paths, in preset order.

    The one route from preset names to files.  It reads every name and
    ``out_dir``, then creates ``out_dir``, before the first sweep, so a bad
    name or directory raises :class:`DomainError` or ``OSError`` before any
    work.  ``presets`` is a non-empty collection of distinct presets; a bare
    string is not one.  An empty ``out_dir`` string is rejected, not read as
    the current directory.
    """
    if isinstance(presets, (str, bytes)):
        raise DomainError("figure", f"must be a collection of presets, got {presets!r}")
    figures = _check_members("figure", [FigurePreset(p) for p in presets], FigurePreset)
    if out_dir == "":
        raise DomainError("out-dir", "must not be empty")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    written = []
    for figure in figures:
        spec = figure_preset(figure)
        written += write_figure_files(figure, run_sweep(spec), spec, out_dir, fmt)
    return written


def _name_clash(first: SweepRecord, second: SweepRecord) -> DomainError:
    """The error for two series whose grid values render to the same file name."""
    name, a, b = (
        ("q_r_grid", first.q_r, second.q_r)
        if first.q_r != second.q_r
        else ("f_grid", first.f, second.f)
    )
    return DomainError(
        name, f"values {a!r} and {b!r} share the file name token {_series_token(a)}"
    )

"""Record rendering: fixed CSV schema, JSON, and two-column plot data; the figure-set writer.

The CSV schema is the fields of :class:`~unruh_lab.sweep.SweepRecord`, in
their order, and is stable for golden-file comparison:

    family,region,gamma,q_r,alpha,f,s_a,s_b,s_ab,mutual_info,cond_entropy,ssa_value

Inapplicable fields stay empty.  JSON rows carry the same fields; plot data
is two columns, gamma and the preset's :attr:`SweepSpec.measure`.  Numbers
are fixed-point with a configurable number of digits and a ``.`` decimal
point, so output bytes do not depend on locale or platform.  The three
formats share one row writer, :func:`_render`, which fills one ``%``
template per run of records with the labels as literal text.
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
from .sweep import FigurePreset, Measure, SweepRecord, SweepSpec, figure_preset, run_sweep

CSV_COLUMNS = SweepRecord._fields

_KINDS = ("csv", "json", "plot")
_EXTENSIONS = {"csv": "csv", "json": "json", "plot": "dat"}


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
        if not (6 <= precision <= 17):
            raise DomainError("precision", f"must be within [6, 17], got {precision}")
        object.__setattr__(self, "precision", precision)


def format_number(value: float | None, precision: int = 12) -> str:
    if value is None:
        return ""
    rendered = f"{value + 0.0:.{precision}f}"
    if rendered.startswith("-") and float(rendered) == 0.0:
        rendered = rendered[1:]
    return rendered


def record_fields(record: SweepRecord, precision: int = 12) -> list[str]:
    """The record as CSV-schema strings, empty where not applicable."""
    return [record.family.value, record.region.value] + [
        format_number(x, precision) for x in record[2:]
    ]


def render_csv(records: list[SweepRecord], precision: int = 12) -> str:
    return _render("csv", records, precision)


def _run_key(record: SweepRecord) -> tuple:
    return record.family, record.region, record.f is None, record.ssa_value is None


def _render(
    kind: str, records: list[SweepRecord], precision: int, measure: Measure | None = None
) -> str:
    """The text of ``records`` in format ``kind``, each number at ``precision`` decimals.

    A run's template holds ``%.{precision}f`` for each number and an empty
    field (``null`` in JSON) for each ``None``, so a row fills it with the
    numbers it holds.  Every number then has exactly ``precision`` decimals
    and a ``-`` only as its sign, so replacing the negative zero's text
    gives the fields of :func:`format_number`.
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
    return f"{value:.10g}"


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

    The one route from preset names to files.  It reads every name, then
    creates ``out_dir``, before the first sweep, so a bad name or directory
    raises :class:`DomainError` or ``OSError`` before any work.
    """
    figures = [FigurePreset(preset) for preset in presets]
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

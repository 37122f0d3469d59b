"""Record rendering: fixed CSV schema, JSON, and two-column plot data.

The CSV schema is the fields of :class:`~unruh_lab.sweep.SweepRecord`, in
their order, and is stable for golden-file comparison:

    family,region,gamma,q_r,alpha,f,s_a,s_b,s_ab,mutual_info,cond_entropy,ssa_value

Inapplicable fields stay empty.  Numbers are rendered in fixed-point with a
configurable number of digits, always with a ``.`` decimal point, so output
bytes do not depend on locale or platform.

The three formats share one row writer, which formats each distinct number
once per call and takes the family and region text once per run of
records that share them.  :func:`write_figure_files` passes it every
series of a figure with one table of formatted numbers, so a value that
recurs across series and columns (grid values, and Alice's entropy, which
the acceleration does not change) is formatted once per figure.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError
from .sweep import FigurePreset, Measure, SweepRecord, SweepSpec

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
        try:
            precision = operator.index(self.precision)
        except TypeError:
            raise DomainError(
                "precision", f"must be an integer, got {self.precision!r}"
            ) from None
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
    return _render("csv", records, _Numbers(precision))


class _Numbers(dict):
    """:func:`format_number` of each number looked up (``None`` included), formatted once."""

    def __init__(self, precision: int):
        super().__init__({None: ""})
        self.precision = precision

    def __missing__(self, value: float) -> str:
        text = self[value] = format_number(value, self.precision)
        return text


_SERIES_LABEL = operator.attrgetter("family", "region")


def _render(
    kind: str, records: list[SweepRecord], numbers: _Numbers, measure: Measure | None = None
) -> str:
    """The text of ``records`` in format ``kind``, its numbers looked up in ``numbers``.

    ``0.0`` and ``-0.0`` share a key, which is safe because
    :func:`format_number` renders both as zero.
    """
    text = numbers.__getitem__
    if kind == "plot":
        columns = operator.attrgetter("gamma", measure.value)
        return "\n".join(" ".join(map(text, columns(record))) for record in records) + "\n"
    rows = []
    for (family, region), run in itertools.groupby(records, _SERIES_LABEL):
        label = (family.value, region.value)
        rows += ([*label, *map(text, record[2:])] for record in run)
    if kind == "csv":
        return "\n".join([",".join(CSV_COLUMNS), *map(",".join, rows)]) + "\n"
    # an empty field is null in JSON
    rows = [dict(zip(CSV_COLUMNS, [field or None for field in row])) for row in rows]
    return json.dumps(rows, indent=2) + "\n"


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
    """Group records into series keyed (family, region, q_r, f), preserving order."""
    series: dict[tuple, list[SweepRecord]] = {}
    for record in records:
        key = (record.family, record.region, record.q_r, record.f)
        series.setdefault(key, []).append(record)
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
    numbers = _Numbers(fmt.precision)
    for path, series in files.items():
        text = _render(fmt.kind, series, numbers, spec.measure)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return list(files)


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

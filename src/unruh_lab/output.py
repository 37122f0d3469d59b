"""Record rendering: fixed CSV schema, JSON, and two-column plot data.

The CSV schema is stable for golden-file comparison:

    family,region,gamma,q_r,alpha,f,s_a,s_b,s_ab,mutual_info,cond_entropy,ssa_value

Inapplicable fields stay empty.  Numbers are rendered in fixed-point with a
configurable number of digits, always with a ``.`` decimal point, so output
bytes do not depend on locale or platform.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError
from .sweep import FigurePreset, Measure, SweepRecord, SweepSpec

CSV_COLUMNS = (
    "family",
    "region",
    "gamma",
    "q_r",
    "alpha",
    "f",
    "s_a",
    "s_b",
    "s_ab",
    "mutual_info",
    "cond_entropy",
    "ssa_value",
)

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
    if float(rendered) == 0.0:
        rendered = rendered.lstrip("-")
    return rendered


def record_fields(record: SweepRecord, precision: int = 12) -> list[str]:
    """The record as CSV-schema strings, empty where not applicable."""
    numbers = (
        record.gamma,
        record.q_r,
        record.alpha,
        record.f,
        record.s_a,
        record.s_b,
        record.s_ab,
        record.mutual_info,
        record.cond_entropy,
        record.ssa_value,
    )
    return [record.family.value, record.region.value] + [
        format_number(x, precision) for x in numbers
    ]


def render_csv(records: list[SweepRecord], precision: int = 12) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        lines.append(",".join(record_fields(record, precision)))
    return "\n".join(lines) + "\n"


def render_json(records: list[SweepRecord], precision: int = 12) -> str:
    rows = []
    for record in records:
        row = dict(zip(CSV_COLUMNS, record_fields(record, precision)))
        rows.append(
            {key: (value if value != "" else None) for key, value in row.items()}
        )
    return json.dumps(rows, indent=2) + "\n"


def render_plot_data(
    records: list[SweepRecord], measure: Measure, precision: int = 12
) -> str:
    """Two whitespace-separated columns, gamma then the measure value."""
    lines = []
    for record in records:
        value = getattr(record, measure.value)
        lines.append(f"{format_number(record.gamma, precision)} {format_number(value, precision)}")
    return "\n".join(lines) + "\n"


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
    for path, series in files.items():
        if fmt.kind == "csv":
            text = render_csv(series, fmt.precision)
        elif fmt.kind == "json":
            text = render_json(series, fmt.precision)
        else:
            text = render_plot_data(series, spec.measure, fmt.precision)
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

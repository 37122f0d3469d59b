import json
import math

import numpy as np
import pytest

from unruh_lab import (
    BobRegion,
    ChannelFamily,
    DomainError,
    FigurePreset,
    OutputFormat,
    SweepSpec,
    figure_preset,
    run_sweep,
    write_figure_files,
    write_figure_set,
)
from unruh_lab import cli, output
from unruh_lab.output import (
    CSV_COLUMNS,
    format_number,
    record_fields,
    render_csv,
    series_filename,
    split_series,
)
from unruh_lab.sweep import Measure, SweepRecord

from helpers import write_each_preset


def make_record(**overrides):
    base = dict(
        family=ChannelFamily.QUANTUM_SINGLE_RAIL,
        region=BobRegion.I,
        gamma=0.5,
        q_r=0.9,
        alpha=math.pi / 4,
        f=None,
        s_a=1.0,
        s_b=0.75,
        s_ab=0.5,
        mutual_info=1.25,
        cond_entropy=-0.25,
        ssa_value=None,
    )
    base.update(overrides)
    return SweepRecord(**base)


def write_texts(
    tmp_path, records, kind, measure=Measure.MUTUAL_INFORMATION, precision=12
) -> list[str]:
    """The text of each file ``write_figure_files`` writes for ``records``."""
    spec = SweepSpec(
        families=(ChannelFamily.WERNER,), gamma_grid=(0.0, 0.5), q_r_grid=(0.5,),
        f_grid=(0.5,), measure=measure,
    )
    paths = write_figure_files("fig4", records, spec, tmp_path, OutputFormat(kind, precision))
    return [path.read_bytes().decode("utf-8") for path in paths]


def expected_text(records, kind, measure, precision=12) -> str:
    """The bytes a file of ``records`` should hold, formatted field by field."""
    if kind == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(record_fields(r, precision)) for r in records]
        return "\n".join(lines) + "\n"
    if kind == "json":
        # an empty field is null in JSON
        rows = [
            dict(zip(CSV_COLUMNS, [x or None for x in record_fields(r, precision)]))
            for r in records
        ]
        return json.dumps(rows, indent=2) + "\n"
    columns = ("gamma", measure.value)
    return "".join(
        " ".join(format_number(getattr(r, column), precision) for column in columns) + "\n"
        for r in records
    )


class TestSchema:
    def test_columns_are_the_record_fields(self):
        assert CSV_COLUMNS == SweepRecord._fields
        assert CSV_COLUMNS[:2] == ("family", "region")

    def test_point_prints_one_line_per_column_in_schema_order(self, capsys):
        code = cli.main([
            "point", "--family", "werner", "--region", "bob-i",
            "--gamma", "0.3", "--qr", "0.8", "--f", "0.7",
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split("=", 1)[0] for line in lines] == list(CSV_COLUMNS)


class TestFormatting:
    def test_fixed_point(self):
        assert format_number(2.0) == "2.000000000000"
        assert format_number(2.0, 6) == "2.000000"

    def test_none_is_empty(self):
        assert format_number(None) == ""

    def test_negative_zero_normalized(self):
        assert format_number(-0.0) == "0.000000000000"
        assert format_number(-1e-15) == "0.000000000000"

    def test_negative_value_that_rounds_away_from_zero_keeps_its_sign(self):
        assert format_number(-6e-13) == "-0.000000000001"

    def test_precision_bounds(self):
        with pytest.raises(DomainError, match="precision"):
            OutputFormat("csv", 5)
        with pytest.raises(DomainError, match="precision"):
            OutputFormat("csv", 18)

    @pytest.mark.parametrize("precision", [6.5, 7.0, "7", None, True])
    def test_precision_must_be_an_integer(self, precision):
        with pytest.raises(DomainError, match="precision: must be an integer"):
            OutputFormat("csv", precision)

    def test_numpy_integer_precision_accepted(self):
        fmt = OutputFormat("csv", np.int64(7))
        assert fmt.precision == 7 and type(fmt.precision) is int
        assert render_csv([make_record()], fmt.precision).endswith("1.2500000,-0.2500000,\n")

    def test_kind_validated(self):
        with pytest.raises(DomainError, match="format"):
            OutputFormat("yaml")


class TestRenderers:
    def test_csv_schema(self):
        text = render_csv([make_record()])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        fields = lines[1].split(",")
        assert fields[0] == "quantum-single"
        assert fields[1] == "bob-i"
        assert fields[5] == ""  # no Werner fidelity
        assert fields[9] == "1.250000000000"

    def test_record_fields_align_with_columns(self):
        assert len(record_fields(make_record())) == len(CSV_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        (text,) = write_texts(tmp_path, [make_record(f=0.95, ssa_value=0.25)], "json")
        rows = json.loads(text)
        assert rows[0]["family"] == "quantum-single"
        assert rows[0]["f"] == "0.950000000000"
        assert rows[0]["ssa_value"] == "0.250000000000"

    def test_plot_data_two_columns(self, tmp_path):
        (text,) = write_texts(tmp_path, [make_record()], "plot")
        gamma, value = text.strip().split(" ")
        assert gamma == "0.500000000000"
        assert value == "1.250000000000"


class TestSeries:
    def test_filename_without_f(self):
        name = series_filename(FigurePreset.FIG1, make_record(q_r=1 / math.sqrt(2)))
        assert name == "fig1_quantum-single_bob-i_qr0.7071067812.csv"

    def test_filename_with_f(self):
        record = make_record(
            family=ChannelFamily.WERNER, q_r=0.75, f=0.7, ssa_value=0.3
        )
        assert (
            series_filename(FigurePreset.FIG4, record, "plot")
            == "fig4_werner_bob-i_qr0.75_f0.7.dat"
        )

    @pytest.mark.parametrize("recurs", [False, True], ids=["contiguous", "a-b-a"])
    def test_split_series_groups_by_parameters(self, recurs):
        records = [
            make_record(gamma=0.0, q_r=1.0),
            make_record(gamma=0.0, q_r=0.9),
            make_record(gamma=0.1, q_r=1.0),
            make_record(gamma=0.1, q_r=0.9),
        ]
        family, region = ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I
        expected = [(family, region, 1.0, None), (family, region, 0.9, None)]
        if recurs:
            # the (family, region) run A comes back after a run B: its records
            # join A's series, and its new series come after B's
            werner = dict(family=ChannelFamily.WERNER, region=BobRegion.II, f=0.5)
            records += [
                make_record(**werner, gamma=0.0, q_r=1.0),
                make_record(**werner, gamma=0.1, q_r=1.0),
                make_record(gamma=0.2, q_r=0.8),
                make_record(gamma=0.2, q_r=1.0),
            ]
            expected += [(ChannelFamily.WERNER, BobRegion.II, 1.0, 0.5), (family, region, 0.8, None)]
        series = split_series(records)
        assert list(series) == expected
        assert [r.gamma for r in series[family, region, 1.0, None]] == [0.0, 0.1, 0.2][: 2 + recurs]
        # every record once, in the order it came, in the series of its key
        reference = {}
        for record in records:
            key = (record.family, record.region, record.q_r, record.f)
            reference.setdefault(key, []).append(record)
        assert list(series.items()) == list(reference.items())
        assert all(a is b for key in series for a, b in zip(series[key], reference[key]))


class TestWriteFigureFiles:
    @pytest.mark.parametrize("precision", [6, 12, 17])
    @pytest.mark.parametrize("kind", ["csv", "json", "plot"])
    def test_files_hold_the_bytes_of_the_renderers(self, tmp_path, kind, precision):
        # rows are written through one template per run of records that share
        # their labels and empty fields, so a value shared by series and
        # columns must read the same everywhere, an empty field may come and
        # go within a file, and of the values either side of rounding to -0
        # only the one that rounds to zero loses its sign
        shared = 0.1 + 0.2
        to_zero, away = -0.4 * 10.0**-precision, -0.6 * 10.0**-precision
        werner = dict(family=ChannelFamily.WERNER, region=BobRegion.II, q_r=shared, f=0.5)
        records = [
            make_record(gamma=0.0, s_a=to_zero, s_b=away, s_ab=math.nan, mutual_info=shared),
            make_record(
                gamma=shared, s_a=-0.0, s_b=0.0, cond_entropy=shared, ssa_value=math.inf
            ),
            make_record(gamma=1.0, s_ab=-math.inf),
            make_record(
                **werner, gamma=0.0, s_a=shared, s_b=to_zero, mutual_info=away,
                ssa_value=to_zero,
            ),
            make_record(
                **werner, gamma=shared, s_ab=shared, cond_entropy=math.nan, ssa_value=away
            ),
            make_record(**werner, gamma=1.0, s_a=math.inf, ssa_value=-math.inf),
        ]
        measure = Measure.STRONG_ADDITIVITY
        series = list(split_series(records).values())
        texts = write_texts(tmp_path, records, kind, measure, precision)
        assert len(texts) == len(series) == 2
        assert texts == [expected_text(group, kind, measure, precision) for group in series]
        if kind == "csv":
            assert texts == [render_csv(group, precision) for group in series]
            # labels and empty fields switching back and forth within one text
            switching = [records[i] for i in (0, 3, 2, 1, 4, 0)]
            assert render_csv(switching, precision) == expected_text(
                switching, kind, measure, precision
            )
        text = "".join(texts)
        if kind == "json":
            assert '"f": null' in text and '"ssa_value": null' in text
        if kind != "plot":
            assert "nan" in text
        zero = "0." + "0" * precision
        assert "-0." + "0" * (precision - 1) + "1" in text and zero in text
        assert "-" + zero not in text
        assert "inf" in text.replace("-inf", "") and "-inf" in text
        assert text.count(format_number(shared, precision)) == (9 if kind != "plot" else 2)

    def test_unknown_preset_is_a_domain_error(self, tmp_path):
        writes = [
            lambda out_dir: write_figure_files("fig5", [], figure_preset("fig1"), out_dir),
            # every name is read before the first sweep
            lambda out_dir: write_figure_set([FigurePreset.FIG1, "fig5"], out_dir),
        ]
        for write in writes:
            with pytest.raises(DomainError, match="'fig5' is not one of") as caught:
                write(tmp_path / "out")
            assert caught.value.param == "figure"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grids, name, values",
        [
            (dict(q_r_grid=(0.70710678119, 1 / math.sqrt(2))), "q_r_grid",
             ("0.70710678119", repr(1 / math.sqrt(2)))),
            (dict(families=(ChannelFamily.WERNER,), q_r_grid=(0.5,),
                  f_grid=(0.250000000001, 0.25)), "f_grid", ("0.250000000001", "0.25")),
        ],
    )
    def test_series_sharing_a_file_name_rejected(self, tmp_path, grids, name, values):
        spec = SweepSpec(
            **{"families": (ChannelFamily.QUANTUM_SINGLE_RAIL,), **grids},
            gamma_grid=(0.0, 0.5),
            regions=(BobRegion.I,),
        )
        records = run_sweep(spec)
        out_dir = tmp_path / "out"
        with pytest.raises(DomainError, match=name) as caught:
            write_figure_files("fig1", records, spec, out_dir)
        assert all(value in str(caught.value) for value in values)
        assert not out_dir.exists()


class TestWriteFigureSet:
    def test_paths_follow_the_presets_as_the_pairing_writes_them(self, tmp_path):
        # names and members alike, in the order given
        presets = ["fig4", FigurePreset.FIG2]
        written = write_figure_set(presets, tmp_path / "set")
        paired = write_each_preset(presets, tmp_path / "pairs")
        assert written == [tmp_path / "set" / path.name for path in paired]
        assert written[0].name.startswith("fig4_") and written[-1].name.startswith("fig2_")

    def test_unusable_out_dir_fails_before_any_sweep(self, tmp_path, monkeypatch):
        def no_sweep(spec):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(output, "run_sweep", no_sweep)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            write_figure_set(FigurePreset, blocker)

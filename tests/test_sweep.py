import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unruh_lab

from unruh_lab import (
    BobRegion,
    ChannelFamily,
    DomainError,
    FigurePreset,
    Measure,
    SweepRecord,
    SweepSpec,
    default_gamma_grid,
    evaluate_point,
    figure_preset,
    run_sweep,
)
from unruh_lab.errors import SweepPointError
from unruh_lab.output import split_series, write_figure_files

PI4 = math.pi / 4


def singleton_spec(family, region, **kwargs):
    return SweepSpec(
        families=(family,),
        gamma_grid=(0.0,),
        q_r_grid=(1.0,),
        regions=(region,),
        **kwargs,
    )


class TestRunSweep:
    def test_singleton_inertial_point(self):
        records = run_sweep(
            singleton_spec(ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I)
        )
        assert len(records) == 1
        assert abs(records[0].mutual_info - 2.0) < 1e-9
        assert abs(records[0].cond_entropy + 1.0) < 1e-9

    def test_singleton_far_wedge(self):
        records = run_sweep(
            singleton_spec(ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.II)
        )
        assert abs(records[0].mutual_info) < 1e-9

    def test_record_count_matches_grid(self):
        spec = SweepSpec(
            families=(
                ChannelFamily.QUANTUM_SINGLE_RAIL,
                ChannelFamily.QUANTUM_DUAL_RAIL,
            ),
            gamma_grid=default_gamma_grid(),
            q_r_grid=(1.0, 0.9, 0.8, 1 / math.sqrt(2)),
            regions=(BobRegion.I,),
        )
        assert len(run_sweep(spec)) == 808

    def test_internal_consistency(self):
        spec = SweepSpec(
            families=(ChannelFamily.CLASSICAL_DUAL_RAIL,),
            gamma_grid=(0.0, 0.3, PI4),
            q_r_grid=(1.0, 0.5),
        )
        for record in run_sweep(spec):
            assert abs(record.mutual_info - (record.s_a + record.s_b - record.s_ab)) <= 1e-12
            assert abs(record.cond_entropy - (record.s_ab - record.s_b)) <= 1e-12

    def test_deterministic_across_runs(self, tmp_path):
        spec = SweepSpec(
            families=(ChannelFamily.WERNER,),
            gamma_grid=(0.0, 0.2, 0.4, PI4),
            q_r_grid=(1.0, 0.5),
            f_grid=(0.95, 0.33),
            regions=(BobRegion.I,),
            measure=Measure.STRONG_ADDITIVITY,
        )
        first = write_figure_files("fig4", run_sweep(spec), spec, tmp_path / "a")
        second = write_figure_files("fig4", run_sweep(spec), spec, tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_sweep_does_not_import_numpy_ma(self):
        # numpy.ma costs about 1 MB of memory; np.unique imports it
        script = (
            "import sys\n"
            "from unruh_lab import ChannelFamily, SweepSpec, run_sweep\n"
            "spec = SweepSpec(\n"
            "    families=(ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.WERNER),\n"
            "    gamma_grid=(0.0, 0.3, 0.7), q_r_grid=(1.0, 0.8), f_grid=(0.5,),\n"
            ")\n"
            "assert len(run_sweep(spec)) == 24\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(unruh_lab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_canonical_ordering(self):
        spec = SweepSpec(
            families=(ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.WERNER),
            gamma_grid=(0.0, 0.1),
            q_r_grid=(1.0, 0.5),
            f_grid=(0.9, 0.1),
        )
        records = run_sweep(spec)
        keys = [
            (
                spec.families.index(r.family),
                spec.regions.index(r.region),
                spec.gamma_grid.index(r.gamma),
                spec.q_r_grid.index(r.q_r),
                -1 if r.f is None else spec.f_grid.index(r.f),
            )
            for r in records
        ]
        assert keys == sorted(keys)

    def test_ssa_only_when_requested(self):
        plain = run_sweep(
            singleton_spec(ChannelFamily.QUANTUM_SINGLE_RAIL, BobRegion.I)
        )
        assert plain[0].ssa_value is None
        with_ssa = run_sweep(
            singleton_spec(
                ChannelFamily.QUANTUM_SINGLE_RAIL,
                BobRegion.I,
                measure=Measure.STRONG_ADDITIVITY,
            )
        )
        assert with_ssa[0].ssa_value is not None

    def test_single_mode_curves_monotone(self):
        # at q_r = 1 the near-wedge curve never rises and the far-wedge
        # curve never falls, over the full preset gamma grid
        spec = SweepSpec(
            families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
            gamma_grid=default_gamma_grid(),
            q_r_grid=(1.0,),
        )
        records = run_sweep(spec)
        for region, sense in ((BobRegion.I, -1.0), (BobRegion.II, 1.0)):
            values = [r.mutual_info for r in records if r.region is region]
            assert all(
                sense * (b - a) >= -1e-12 for a, b in zip(values, values[1:])
            )

    def test_aborts_with_grid_point_named(self):
        spec = SweepSpec(
            families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
            gamma_grid=(0.0,),
            q_r_grid=(1.0,),
        )
        object.__setattr__(spec, "alpha", math.nan)
        with pytest.raises(SweepPointError, match="gamma=0.0"):
            run_sweep(spec)


class TestSweepSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="gamma_grid"):
            SweepSpec(
                families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
                gamma_grid=(),
                q_r_grid=(1.0,),
            )

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError, match="q_r_grid"):
            SweepSpec(
                families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
                gamma_grid=(0.0,),
                q_r_grid=(1.5,),
            )

    def test_non_monotone_rejected(self):
        with pytest.raises(DomainError, match="gamma_grid"):
            SweepSpec(
                families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
                gamma_grid=(0.0, 0.5, 0.2),
                q_r_grid=(1.0,),
            )

    def test_werner_needs_f_grid(self):
        with pytest.raises(DomainError, match="f_grid"):
            SweepSpec(
                families=(ChannelFamily.WERNER,),
                gamma_grid=(0.0,),
                q_r_grid=(1.0,),
            )

    @pytest.mark.parametrize(
        "families, alpha",
        [((ChannelFamily.QUANTUM_SINGLE_RAIL,), math.nan), ((ChannelFamily.WERNER,), 0.5)],
    )
    def test_bad_alpha_rejected(self, families, alpha):
        werner = ChannelFamily.WERNER in families
        with pytest.raises(DomainError) as excinfo:
            SweepSpec(
                families=families,
                gamma_grid=(0.0,),
                q_r_grid=(1.0,),
                alpha=alpha,
                f_grid=(0.5,) if werner else (),
            )
        assert excinfo.value.param == "alpha"

    def test_measure_must_be_a_measure(self):
        with pytest.raises(DomainError) as excinfo:
            SweepSpec(
                families=(ChannelFamily.WERNER,),
                gamma_grid=(0.0,),
                q_r_grid=(1.0,),
                f_grid=(0.5,),
                measure="ssa_value",
            )
        assert excinfo.value.param == "measure"

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("families", ("werner",), "must hold ChannelFamily members, got 'werner'"),
            ("regions", ("bob-i",), "must hold BobRegion members, got 'bob-i'"),
            ("families", (ChannelFamily.QUANTUM_SINGLE_RAIL,) * 2, "repeats 'quantum-single'"),
            ("regions", (BobRegion.I, BobRegion.II, BobRegion.I), "repeats 'bob-i'"),
            # a bare member is not a sequence of members
            (
                "families",
                ChannelFamily.WERNER,
                "must be a sequence, got <ChannelFamily.WERNER: 'werner'>",
            ),
            ("regions", BobRegion.I, "must be a sequence, got <BobRegion.I: 'bob-i'>"),
        ],
    )
    def test_families_and_regions_hold_distinct_members(self, field, values, message):
        fields = dict(families=(ChannelFamily.QUANTUM_SINGLE_RAIL,), regions=(BobRegion.I,))
        fields[field] = values
        with pytest.raises(DomainError, match=f"^{field}: {message}$") as excinfo:
            SweepSpec(gamma_grid=(0.0,), q_r_grid=(1.0,), **fields)
        assert excinfo.value.param == field

    @pytest.mark.parametrize(
        "grid", [1.0, "1", b"\x00", np.array(1.0), {1.0}, None], ids=repr
    )
    def test_grid_must_be_a_sequence(self, grid):
        with pytest.raises(DomainError, match="^q_r_grid: must be a sequence, got ") as excinfo:
            SweepSpec(
                families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
                gamma_grid=(0.0,),
                q_r_grid=grid,
            )
        assert excinfo.value.param == "q_r_grid"

    def test_numpy_grids_are_read_as_tuples_of_floats(self):
        spec = SweepSpec(
            families=(ChannelFamily.WERNER,),
            gamma_grid=np.linspace(0.0, 0.5, 3),
            q_r_grid=np.array([1, 0]),
            f_grid=np.array([0.5], dtype=np.float32),
        )
        assert (spec.gamma_grid, spec.q_r_grid, spec.f_grid) == ((0.0, 0.25, 0.5), (1.0, 0.0), (0.5,))
        for grid in (spec.gamma_grid, spec.q_r_grid, spec.f_grid):
            assert type(grid) is tuple and {type(value) for value in grid} == {float}

    def test_f_grid_requires_werner(self):
        with pytest.raises(DomainError, match="f_grid"):
            SweepSpec(
                families=(ChannelFamily.QUANTUM_SINGLE_RAIL,),
                gamma_grid=(0.0,),
                q_r_grid=(1.0,),
                f_grid=(0.5,),
            )


class TestSweepRecord:
    def record(self):
        return SweepRecord(
            ChannelFamily.WERNER, BobRegion.II, 0.5, 0.75, PI4, 0.95,
            1.0, 0.5, 0.25, 1.25, -0.25, None,
        )

    def test_fields_cannot_be_assigned(self):
        record = self.record()
        with pytest.raises(AttributeError):
            record.gamma = 0.1
        assert record.gamma == 0.5

    def test_repr_is_literal(self):
        assert repr(self.record()) == (
            "SweepRecord(family=<ChannelFamily.WERNER: 'werner'>, "
            "region=<BobRegion.II: 'bob-ii'>, gamma=0.5, q_r=0.75, "
            "alpha=0.7853981633974483, f=0.95, s_a=1.0, s_b=0.5, s_ab=0.25, "
            "mutual_info=1.25, cond_entropy=-0.25, ssa_value=None)"
        )


class TestEvaluatePointValidation:
    def test_family_must_be_a_member(self):
        # ChannelSpec makes this check
        with pytest.raises(DomainError, match="^family: must be a ChannelFamily, got 'werner'$"):
            evaluate_point("werner", BobRegion.I, 0.1, 0.5, f=0.5)

    def test_region_must_be_a_member(self):
        with pytest.raises(DomainError, match="^region: must be a BobRegion, got 'bob-i'$"):
            evaluate_point(ChannelFamily.WERNER, "bob-i", 0.1, 0.5, f=0.5)

    @pytest.mark.parametrize("kind", [np.float32, np.int64, int])
    def test_record_holds_python_floats(self, kind):
        # the values are exact in every kind, so the records equal those of float input
        gamma, q_r, alpha, f = (0.5, 0.75, 1.25, 0.5) if kind is np.float32 else (0, 1, 2, 1)
        points = [
            (ChannelFamily.QUANTUM_DUAL_RAIL, kind(gamma), kind(q_r), kind(alpha), None),
            (ChannelFamily.WERNER, kind(gamma), kind(q_r), PI4, kind(f)),
        ]
        for family, *values in points:
            record = evaluate_point(family, BobRegion.I, *values, with_ssa=True)
            fields = (record.gamma, record.q_r, record.alpha, record.f)
            assert {type(value) for value in fields if value is not None} == {float}
            assert (record.f is None) == (values[-1] is None)
            floats = [None if value is None else float(value) for value in values]
            assert repr(record) == repr(evaluate_point(family, BobRegion.I, *floats, with_ssa=True))


class TestFigurePresets:
    def test_fig4_grids(self):
        spec = figure_preset(FigurePreset.FIG4)
        assert spec.f_grid == (0.95, 0.70, 0.50, 0.33)
        assert spec.q_r_grid == (1.0, 0.75, 0.5, 0.25)
        assert spec.regions == (BobRegion.I,)

    def test_fig1_parameters(self):
        spec = figure_preset(FigurePreset.FIG1)
        assert spec.alpha == PI4
        assert spec.q_r_grid == (1.0, 0.9, 0.8, 1 / math.sqrt(2))
        assert len(spec.gamma_grid) == 101
        assert spec.gamma_grid[0] == 0.0 and spec.gamma_grid[-1] == PI4

    def test_fig3_covers_all_families(self):
        spec = figure_preset(FigurePreset.FIG3)
        assert set(spec.families) == {
            ChannelFamily.QUANTUM_SINGLE_RAIL,
            ChannelFamily.QUANTUM_DUAL_RAIL,
            ChannelFamily.CLASSICAL_SINGLE_RAIL,
            ChannelFamily.CLASSICAL_DUAL_RAIL,
        }
        assert spec.measure is Measure.CONDITIONAL_ENTROPY

    def test_fig1_and_fig2_are_slices_of_fig3(self):
        # verify checks the fig1 and fig2 families in the fig3 sweep
        fig3 = figure_preset(FigurePreset.FIG3)
        fig3_records = run_sweep(fig3)
        fig3_series = split_series(fig3_records)
        assert fig3.measure is not Measure.STRONG_ADDITIVITY
        for figure in (FigurePreset.FIG1, FigurePreset.FIG2):
            spec = figure_preset(figure)
            for field in ("gamma_grid", "q_r_grid", "alpha", "f_grid", "regions"):
                assert getattr(spec, field) == getattr(fig3, field)
            assert set(spec.families) <= set(fig3.families)
            assert spec.measure is not Measure.STRONG_ADDITIVITY
            records = run_sweep(spec)
            sliced = [r for r in fig3_records if r.family in spec.families]
            assert len(records) == len(sliced) == 1616
            assert records == sliced
            assert repr(records) == repr(sliced)
            sliced_series = {k: s for k, s in fig3_series.items() if k[0] in spec.families}
            assert sliced_series == split_series(records)

    def test_unknown_preset_is_a_domain_error(self):
        with pytest.raises(DomainError, match="fig1, fig2, fig3, fig4") as caught:
            figure_preset("fig5")
        assert caught.value.param == "figure"

    def test_accepts_string_names(self):
        assert figure_preset("fig2").families == (
            ChannelFamily.CLASSICAL_SINGLE_RAIL,
            ChannelFamily.CLASSICAL_DUAL_RAIL,
        )

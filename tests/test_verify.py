"""The check table behind ``unruh-lab verify``: order, names and crashes."""

import math
import re

import numpy as np
import pytest

from unruh_lab import (
    BobRegion,
    ChannelFamily,
    FigurePreset,
    SweepSpec,
    cli,
    crosscheck,
    evaluate_point,
    figure_preset,
    measures,
    output,
    sweep,
    verify,
)
from unruh_lab.fock import PSD_TOL
from unruh_lab.verify import run_checks

from helpers import count_calls, double_wedge_at

QUICK_NAMES = [
    "1-inertial-limit",
    "2-infinite-acceleration-coincidence",
    "3-quantum-conditional-entropy-vanishes",
    "4-classical-channel-contrast",
    "5-mutual-information-monotonicity",
    "6-werner-strong-additivity",
    "7-oracle-equivalence",
    "8-purity-and-invariants",
    "strong-additivity-variant-comparison",
]


def broken(*args, **kwargs):
    raise ValueError("broke")


@pytest.fixture(scope="module")
def quick_results():
    return run_checks(include_determinism=False)


def test_quick_run_is_checks_one_to_eight_then_the_note(quick_results):
    assert [r.name for r in quick_results] == QUICK_NAMES
    assert [r.informational for r in quick_results] == [False] * 8 + [True]


def test_verify_quick_prints_every_verdict_and_exits_one(monkeypatch, capsys, quick_results):
    # `unruh-lab verify --quick` on this module's one run: check 5 fails by design
    monkeypatch.setattr(cli, "run_checks", lambda **kwargs: quick_results)
    assert cli.main(["verify", "--quick"]) == 1
    statuses = ["PASS"] * 4 + ["FAIL"] + ["PASS"] * 3 + ["NOTE"]
    rows = [f"{status} {name}" for status, name in zip(statuses, QUICK_NAMES)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":", 1)[0] for line in lines] == rows + ["7 of 8 checks passed"]


def test_checks_and_notes_are_two_tables():
    # `--quick` drops the last check; every note is informational
    assert [name for name, _ in verify.CHECKS] == QUICK_NAMES[:8] + ["9-figure-determinism"]
    assert [name for name, _ in verify.NOTES] == QUICK_NAMES[8:]


def test_quick_run_sweeps_fig3_fig4_then_check_8s_grid(monkeypatch):
    # fig1 and fig2 are read from fig3's sweep, so each preset is swept once
    specs = []
    real = verify.run_sweep
    monkeypatch.setattr(verify, "run_sweep", lambda spec: specs.append(spec) or real(spec))
    run_checks(include_determinism=False)
    check_8_grid = SweepSpec(
        tuple(ChannelFamily),
        tuple(i * math.pi / 16 for i in range(5)),
        (1.0, 0.8, 0.5, 0.2),
        f_grid=(1.0,),
    )
    assert specs == [
        figure_preset(FigurePreset.FIG3),
        figure_preset(FigurePreset.FIG4),
        check_8_grid,
    ]


def test_monotonicity_violations_list_the_quantum_pair_then_the_classical_pair(quick_results):
    # the labels only: the step sizes depend on the CPU's rounding
    (result,) = [r for r in quick_results if r.name == "5-mutual-information-monotonicity"]
    assert re.findall(r"([\w-]+/bob-i+/q_r=[\d.]+): ", result.detail) == [
        "quantum-single/bob-i/q_r=0.9",
        "quantum-single/bob-ii/q_r=0.9",
        "quantum-single/bob-i/q_r=0.8",
        "quantum-single/bob-ii/q_r=0.8",
        "quantum-dual/bob-i/q_r=0.9",
        "quantum-dual/bob-ii/q_r=0.9",
        "quantum-dual/bob-i/q_r=0.8",
        "quantum-dual/bob-ii/q_r=0.8",
        "classical-single/bob-ii/q_r=0.9",
        "classical-single/bob-ii/q_r=0.8",
        "classical-dual/bob-i/q_r=0.9",
        "classical-dual/bob-i/q_r=0.8",
    ]


def test_monotone_series_pass_check_5():
    # every series replaced by its q_r = 1 series, where the claimed shapes hold
    fig3 = verify._SeriesTables()[FigurePreset.FIG3]
    monotone = {key: fig3[key[0], key[1], 1.0, key[3]] for key in fig3}
    tables = verify._SeriesTables({FigurePreset.FIG3: monotone})
    assert verify._check_monotonicity(tables) == (
        True,
        "all families monotone for q_r in (1, 0.9, 0.8), both wedges",
    )


@pytest.mark.parametrize(
    "second, detail",
    [
        ({"a.csv": "1\n"}, "file counts differ: 2 vs 1"),
        ({"a.csv": "1\n", "b.csv": "3\n"}, "files differ between runs: ['b.csv']"),
    ],
)
def test_check_9_fails_when_the_two_figure_sets_differ(monkeypatch, second, detail):
    sets = iter([{"a.csv": "1\n", "b.csv": "2\n"}, second])

    def write(presets, out_dir):
        out_dir.mkdir(parents=True)
        for name, text in next(sets).items():
            (out_dir / name).write_text(text)
        return sorted(out_dir.iterdir())

    monkeypatch.setattr(verify, "write_figure_set", write)
    assert verify._check_determinism(verify._SeriesTables()) == (False, detail)


def test_crashed_oracle_fails_under_its_own_name(monkeypatch, quick_results):
    # the table holds the check functions, so patch what check 7 calls
    monkeypatch.setattr(crosscheck, "brute_subsystem_entropies_batch", broken)
    results = run_checks(include_determinism=False)
    crashed = verify.CheckResult("7-oracle-equivalence", False, "raised ValueError('broke')")
    expected = [crashed if r.name == crashed.name else r for r in quick_results]
    assert results == expected
    assert sum(not r.passed and not r.informational for r in results) == 2


def test_check_8_tests_the_trace_of_each_joint(monkeypatch, quick_results):
    # the solver tests the joints' Hermiticity, and check 8 their traces
    real = verify.trace_lifted

    def scaled(encoding, inertial, isometries, discards):
        reductions = real(encoding, inertial, isometries, discards)
        reductions[0][0][3] *= 1.5
        return reductions

    monkeypatch.setattr(verify, "trace_lifted", scaled)
    results = run_checks(include_determinism=False)
    for result, expected in zip(results, quick_results, strict=True):
        if result.name == "8-purity-and-invariants":
            assert not result.passed
            assert result.detail.startswith("raised NormalizationError('trace is ")
        else:
            assert result == expected


@pytest.mark.parametrize(
    "spectrum, bounds",
    [
        ([1.0 + 2 * PSD_TOL, -2 * PSD_TOL], "[-2.0e-08, 1+2.0e-08] and sum to 1 within 0.0e+00"),
        ([1.0 + 2e-10, 0.0], "[-2.0e-10, 1+2.0e-10] and sum to 1 within 2.0e-10"),
    ],
    ids=["psd", "sum"],
)
def test_check_8_fails_joint_spectra_beyond_its_bounds(monkeypatch, spectrum, bounds):
    # every joint of the grid gets the spectrum, padded with zeros: the
    # lowest eigenvalue -2 PSD_TOL, or a sum of 1 + 2e-10
    def spectra(joints):
        return np.array([spectrum + [0.0] * (joints.shape[1] - 2)] * len(joints))

    monkeypatch.setattr(verify, "eigvals_hermitian_batch", spectra)
    passed, detail = verify._check_state_invariants(verify._SeriesTables())
    assert not passed
    assert f"joint spectra lie in {bounds}; " in detail


def test_crashed_sweep_fails_every_row_that_reads_it(monkeypatch):
    # check 9 sweeps through the figure-set writer, the other rows in verify
    monkeypatch.setattr(verify, "run_sweep", broken)
    monkeypatch.setattr(output, "run_sweep", broken)
    results = run_checks(include_determinism=True)
    assert [r.name for r in results] == QUICK_NAMES[:8] + [
        "9-figure-determinism",
        QUICK_NAMES[8],
    ]
    for result in results:
        if result.name == "7-oracle-equivalence":
            assert result.passed is True
        else:
            assert (result.passed, result.detail) == (False, "raised ValueError('broke')")
            assert not result.informational


def test_crashed_oracle_batch_fails_under_its_own_name(monkeypatch, quick_results):
    monkeypatch.setattr(verify, "_evaluate_family", broken)
    results = run_checks(include_determinism=False)
    crashed = verify.CheckResult("7-oracle-equivalence", False, "raised ValueError('broke')")
    assert results == [crashed if r.name == crashed.name else r for r in quick_results]


class TestOracleCheck:
    """Check 7 sends each family's seeded channels through the sweep's batch path."""

    def test_batch_records_equal_the_single_point_route(self):
        # so the oracle's verdict also covers `unruh-lab point`
        regions = tuple(BobRegion)
        for family, points in verify._oracle_samples().items():
            evaluated = sweep._evaluate_batch(family, regions, points, math.pi / 4, False)
            for region, records in zip(regions, evaluated):
                assert records == [
                    evaluate_point(family, region, gamma, q_r, f=f) for gamma, q_r, f in points
                ]

    def test_one_batch_per_family(self, monkeypatch):
        # five families, each one isometry build and six batched stacks:
        # wedge by wedge, its states, Alice's marginal and its modes
        calls = count_calls(
            monkeypatch,
            (sweep, "bob_isometries"),
            (measures, "eigvals_hermitian"),
            (measures, "eigvals_hermitian_batch"),
        )
        passed, _ = verify._check_oracle_equivalence(verify._SeriesTables())
        assert passed
        assert calls == {
            "bob_isometries": 5,
            "eigvals_hermitian": 0,
            "eigvals_hermitian_batch": 30,
        }

    def test_failing_channel_is_named(self, monkeypatch, quick_results):
        gamma, q_r, f = verify._oracle_samples()[ChannelFamily.WERNER][3]
        double_wedge_at(monkeypatch, {(BobRegion.II, gamma)})
        results = run_checks(include_determinism=False)
        named = (
            f"raised SweepPointError('sweep aborted at family=werner region=bob-ii "
            f"gamma={gamma!r} q_r={q_r!r} f={f!r}: "
        )
        assert [r.name for r in results] == QUICK_NAMES
        for result, expected in zip(results, quick_results):
            if result.name == "7-oracle-equivalence":
                assert not result.passed
                assert result.detail.startswith(named)
                assert "trace is" in result.detail
            else:
                assert result == expected

"""The check table behind ``unruh-lab verify``: order, names and crashes."""

import math

import pytest

from unruh_lab import (
    BobRegion,
    ChannelFamily,
    crosscheck,
    evaluate_point,
    measures,
    output,
    sweep,
    verify,
)
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


def test_crashed_oracle_fails_under_its_own_name(monkeypatch, quick_results):
    # the table holds the check functions, so patch what check 7 calls
    monkeypatch.setattr(crosscheck, "brute_subsystem_entropies", broken)
    results = run_checks(include_determinism=False)
    crashed = verify.CheckResult("7-oracle-equivalence", False, "raised ValueError('broke')")
    expected = [crashed if r.name == crashed.name else r for r in quick_results]
    assert results == expected
    assert sum(not r.passed and not r.informational for r in results) == 2


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

"""The check table behind ``unruh-lab verify``: order, names and crashes."""

import pytest

from unruh_lab import crosscheck, verify
from unruh_lab.verify import run_checks

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
    monkeypatch.setattr(verify, "run_sweep", broken)
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

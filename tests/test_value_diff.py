"""``ci/value_diff.py``'s comparison, on records built in this process (no git)."""

import importlib.util
import math

import pytest

from unruh_lab import BobRegion, ChannelFamily, SweepSpec, run_sweep

from helpers import ROOT

_spec = importlib.util.spec_from_file_location("value_diff", ROOT / "ci" / "value_diff.py")
value_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(value_diff)


@pytest.fixture(scope="module")
def records():
    # fixed values where the perturbations land, so their texts do not hang on rounding
    spec = SweepSpec(
        (ChannelFamily.QUANTUM_SINGLE_RAIL, ChannelFamily.WERNER),
        (0.0, 0.3, 0.6),
        (1.0, 0.5),
        f_grid=(0.5,),
    )
    found = run_sweep(spec)
    found[1] = found[1]._replace(s_ab=0.125)
    found[-1] = found[-1]._replace(cond_entropy=0.5)
    return found


def changed(changes):
    """The (preset, measure) entries where a value moved or a text changed."""
    return {key: c for key, c in changes.items() if c.moved or any(c.text)}


def test_same_records_move_nothing(records):
    changes, unmatched = value_diff.compare({"fig3": records}, {"fig3": list(records)})
    assert unmatched == [] and changed(changes) == {}
    assert [change.rows for change in changes.values()] == [len(records)] * 6
    assert not value_diff.text_changed(changes, unmatched)


def test_one_ulp_and_one_twelve_decimal_change(records):
    perturbed = list(records)
    perturbed[1] = records[1]._replace(s_ab=math.nextafter(0.125, 1.0))
    perturbed[-1] = records[-1]._replace(cond_entropy=0.5 + 1e-9)
    changes, unmatched = value_diff.compare({"fig3": records}, {"fig3": perturbed})
    rows = len(records)
    assert unmatched == []
    assert changed(changes) == {
        # 1 ulp of 0.125 shows only in the 17th decimal
        ("fig3", "s_ab"): (rows, 1, math.ulp(0.125), (0, 0, 1)),
        ("fig3", "cond_entropy"): (rows, 1, (0.5 + 1e-9) - 0.5, (0, 1, 1)),
    }
    assert value_diff.text_changed(changes, unmatched)
    # the ulp alone changes no golden row
    perturbed[-1] = records[-1]
    assert not value_diff.text_changed(*value_diff.compare({"fig3": records}, {"fig3": perturbed}))


def test_a_key_on_one_side_only_is_a_change(records):
    changes, unmatched = value_diff.compare({"fig3": records}, {"fig3": records[1:]})
    first = records[0]
    assert unmatched == [("fig3", first.family, first.region, first.gamma, first.q_r, first.f)]
    assert changed(changes) == {}
    assert value_diff.text_changed(changes, unmatched)
    assert "only on one side: ('fig3', <ChannelFamily.QUANTUM_SINGLE_RAIL" in value_diff.report(
        changes, unmatched
    )


def test_a_sign_of_zero_moves_bits_but_no_text():
    record = run_sweep(
        SweepSpec((ChannelFamily.QUANTUM_SINGLE_RAIL,), (0.0,), (1.0,), regions=(BobRegion.II,))
    )[0]
    zero, negative_zero = record._replace(s_a=0.0), record._replace(s_a=-0.0)
    changes, _ = value_diff.compare({"fig1": [zero]}, {"fig1": [negative_zero]})
    assert changed(changes) == {("fig1", "s_a"): (1, 1, 0.0, (0, 0, 0))}

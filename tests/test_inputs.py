"""Every public entry point names the parameter of a bad input.

Each draw makes one parameter bad, from one class: a bool, a string, None,
a complex number, an array, NaN, an infinity, a number out of range, and
for a sweep grid also something that is not a sequence.  The other
parameters stay valid, and the entry point must raise :class:`DomainError`
whose ``param`` is the bad parameter.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_lab import (
    BELL_ALPHA,
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    DomainError,
    SweepSpec,
    evaluate_point,
    gamma_from_acceleration,
)

GAMMA = (0.0, math.pi / 4)
UNIT = (0.0, 1.0)
ALPHA = (0.0, math.pi)
FEW = settings(max_examples=15, deadline=None, database=None)


def outside(low, high):
    """Numbers below ``low`` or above ``high``, as Python and numpy ints and floats, and
    ints beyond the floats.  ``high`` None means the range is (low, inf), open at ``low``."""
    floats = st.floats(max_value=low, exclude_max=high is not None)
    ints = st.integers(max_value=math.ceil(low) - (high is not None)) | st.just(-(10**400))
    if high is not None:
        floats |= st.floats(min_value=high, exclude_min=True)
        ints |= st.integers(min_value=math.floor(high) + 1) | st.just(10**400)
    int64 = ints.filter(lambda i: abs(i) < 2**63).map(np.int64)
    return floats | floats.map(np.float64) | ints | int64


def bad_values(low, high):
    """A bad value for a real parameter in [low, high], from one of the classes above."""
    middle = 1.0 if high is None else (low + high) / 2
    return st.one_of(
        st.sampled_from([True, False, np.True_, np.False_]),
        st.text(max_size=4) | st.just(str(middle)),
        st.none(),
        st.complex_numbers(max_magnitude=2.0) | st.just(np.complex128(middle)),
        st.sampled_from([np.array(middle), np.array([middle])]),
        st.sampled_from([math.nan, np.float64("nan"), np.float32("nan")]),
        st.sampled_from([math.inf, -math.inf, np.float64("inf"), np.float32("-inf")]),
        outside(low, high),
    )


def not_sequences(middle):
    """Grids that are not a sequence of numbers: a bare number, a string, a set..."""
    makers = [
        lambda: middle,
        lambda: int(middle),
        lambda: np.float64(middle),
        lambda: np.array(middle),
        lambda: str(middle),
        lambda: bytes([0]),  # a sequence of ints, but a string of bytes
        lambda: None,
        lambda: {middle},
        lambda: {middle: middle},
        lambda: (value for value in [middle]),
    ]
    return st.sampled_from(makers).map(lambda make: make())


def bad_grids(low, high):
    """A grid with one bad value among valid ones, or a grid that is not a sequence."""
    valid = st.lists(st.floats(low, high), max_size=2)
    holding = st.tuples(valid, bad_values(low, high), valid).map(
        lambda parts: parts[0] + [parts[1]] + parts[2]
    )
    return holding | holding.map(tuple) | not_sequences((low + high) / 2)


def assert_names(param, call, *args, **kwargs):
    with pytest.raises(DomainError) as excinfo:
        call(*args, **kwargs)
    assert excinfo.value.param == param


@FEW
@given(data=st.data())
@pytest.mark.parametrize("param, bounds", [("gamma", GAMMA), ("q_r", UNIT)])
def test_acceleration_params(param, bounds, data):
    fields = dict(gamma=0.3, q_r=0.8)
    fields[param] = data.draw(bad_values(*bounds))
    assert_names(param, AccelerationParams, **fields)


@FEW
@given(data=st.data())
@pytest.mark.parametrize("param", ["alpha", "f"])
def test_channel_spec(param, data):
    accel = AccelerationParams(0.3, 0.8)
    if param == "alpha":
        family = data.draw(st.sampled_from(ChannelFamily))
        f = 0.5 if family is ChannelFamily.WERNER else None
        alpha = data.draw(bad_values(*ALPHA))
    else:
        family, alpha, f = ChannelFamily.WERNER, BELL_ALPHA, data.draw(bad_values(*UNIT))
    assert_names(param, ChannelSpec, family, accel, alpha, f)


@FEW
@given(data=st.data())
@pytest.mark.parametrize(
    "param, bounds", [("gamma", GAMMA), ("q_r", UNIT), ("alpha", ALPHA), ("f", UNIT)]
)
def test_evaluate_point(param, bounds, data):
    family = ChannelFamily.WERNER
    if param != "f":
        family = data.draw(st.sampled_from(ChannelFamily))
    werner = family is ChannelFamily.WERNER
    point = dict(gamma=0.3, q_r=0.8, alpha=BELL_ALPHA if werner else 0.5)
    point["f"] = 0.5 if werner else None
    point[param] = data.draw(bad_values(*bounds))
    region = data.draw(st.sampled_from(BobRegion))
    assert_names(param, evaluate_point, family, region, **point)


@FEW
@given(data=st.data())
@pytest.mark.parametrize(
    "param, bounds",
    [("gamma_grid", GAMMA), ("q_r_grid", UNIT), ("f_grid", UNIT), ("alpha", ALPHA)],
)
def test_sweep_spec(param, bounds, data):
    fields = dict(
        families=(ChannelFamily.QUANTUM_DUAL_RAIL, ChannelFamily.WERNER),
        gamma_grid=(0.0, 0.3),
        q_r_grid=(1.0, 0.5),
        f_grid=(0.5,),
        alpha=BELL_ALPHA,
    )
    fields[param] = data.draw(bad_values(*bounds) if param == "alpha" else bad_grids(*bounds))
    assert_names(param, SweepSpec, **fields)


@FEW
@given(data=st.data())
@pytest.mark.parametrize("param", ["omega", "acceleration", "light_speed"])
def test_gamma_from_acceleration(param, data):
    args = dict(omega=1.0, acceleration=2.0, light_speed=1.0)
    args[param] = data.draw(bad_values(0.0, None))
    assert_names(param, gamma_from_acceleration, **args)

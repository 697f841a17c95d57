import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecodyn.errors import DomainError, InvariantViolation, NumericalFailure
from ecodyn.oracles import (
    DiffSpec,
    IntegrationSpec,
    central_diff_first,
    central_diff_second,
    grid_argmax,
    rk4_integrate,
)
from ecodyn.value_feedback import _ode_slope, ode_rhs


def test_rk4_exponential():
    spec = IntegrationSpec(0.0, 1.0, 1000, lambda x, y: y)
    assert rk4_integrate(spec, 1.0) == pytest.approx(math.e, rel=1e-11)


def test_rk4_nonlinear():
    # y' = -2xy^2, y(0) = 1 has solution 1/(1 + x^2)
    spec = IntegrationSpec(0.0, 2.0, 2000, lambda x, y: -2.0 * x * y * y)
    assert rk4_integrate(spec, 1.0) == pytest.approx(0.2, rel=1e-10)


def test_rk4_hundred_steps_hits_exponential():
    spec = IntegrationSpec(0.0, 1.0, 100, lambda x, y: y)
    assert abs(rk4_integrate(spec, 1.0) - math.e) < 1e-8


def test_rk4_constant_field_is_exact():
    spec = IntegrationSpec(0.0, 3.0, 7, lambda x, y: 0.0)
    assert rk4_integrate(spec, 4.25) == 4.25


def test_rk4_fourth_order_convergence():
    exact = math.e

    def err(steps):
        spec = IntegrationSpec(0.0, 1.0, steps, lambda x, y: y)
        return abs(rk4_integrate(spec, 1.0) - exact)

    ratio = err(50) / err(100)
    # halving the step should cut the error by about 2^4
    assert 14.0 <= ratio < 20.0


def test_rk4_blowup_reports_failure():
    # y' = y^2 from y(0)=1 leaves the representable range before x=2
    spec = IntegrationSpec(0.0, 2.0, 100, lambda x, y: y * y)
    with pytest.raises(NumericalFailure):
        rk4_integrate(spec, 1.0)


@given(
    st.floats(-5.0, 5.0).filter(lambda b: b != 1.0),
    st.lists(st.floats(0.1, 10.0), min_size=2, max_size=12, unique=True),
    st.integers(1, 50),
)
def test_rk4_lanes_equal_scalar_calls(exponent, points, steps):
    # the lockstep route must reproduce each per-lane scalar call bit for bit
    anchor, *ends = sorted(points)
    y0 = 1.0 / anchor
    lanes = rk4_integrate(IntegrationSpec(anchor, np.array(ends), steps, partial(_ode_slope, exponent)), y0)
    scalar = [
        rk4_integrate(IntegrationSpec(anchor, end, steps, partial(ode_rhs, exponent)), y0)
        for end in ends
    ]
    assert lanes.tolist() == scalar


def test_rk4_lanes_broadcast_y_start():
    spec = IntegrationSpec(0.0, 1.0, 100, lambda x, y: y)
    got = rk4_integrate(spec, np.array([1.0, -2.0, 0.5]))
    assert got.tolist() == [rk4_integrate(spec, y0) for y0 in (1.0, -2.0, 0.5)]


def test_rk4_failing_lane_is_named(recwarn):
    # the field explodes past x=2.2, which only the lane ending at 3 reaches;
    # its steps start at 0, 0.75, 1.5 and 2.25, the other lanes' below 2
    def rhs(x, y):
        return y * np.where(x > 2.2, 1e300, 1.0)

    spec = IntegrationSpec(0.0, np.array([1.0, 3.0, 2.0]), 4, rhs)
    with pytest.raises(NumericalFailure, match=r"non-finite RK4 state after step 3 at x=2\.25$"):
        rk4_integrate(spec, 1.0)
    assert len(recwarn) == 0  # overflow inside the lanes is not reported twice


@pytest.mark.parametrize(
    "x_start, ends, message",
    [
        (0.0, [1.0, math.nan], "x_end must be finite, got nan"),
        (0.0, [math.inf, 1.0], "x_end must be finite, got inf"),
        (1.0, [2.0, 1.0], r"x_start must be < x_end, got \[1.0, 1.0\]"),
        (1.0, [0.5, 2.0], r"x_start must be < x_end, got \[1.0, 0.5\]"),
    ],
)
def test_integration_spec_rejects_bad_array_ends(x_start, ends, message):
    with pytest.raises(InvariantViolation, match=message):
        IntegrationSpec(x_start, np.array(ends), 10, lambda x, y: y)


def test_array_spec_survives_replace():
    spec = IntegrationSpec(0.0, np.array([1.0, 2.0]), 10, lambda x, y: y)
    calls = []

    def counted(x, y):
        calls.append(1)
        return y

    replaced = dataclasses.replace(spec, rhs=counted)
    assert replaced.x_end is spec.x_end
    assert rk4_integrate(replaced, 1.0).tolist() == rk4_integrate(spec, 1.0).tolist()
    assert len(calls) == 4 * 10


def test_integration_spec_validation():
    with pytest.raises(InvariantViolation):
        IntegrationSpec(0.0, 1.0, 0, lambda x, y: y)
    with pytest.raises(InvariantViolation):
        IntegrationSpec(1.0, 1.0, 10, lambda x, y: y)
    with pytest.raises(InvariantViolation):
        IntegrationSpec(2.0, 1.0, 10, lambda x, y: y)


@pytest.mark.parametrize("ends", [(0.0, math.inf), (-math.inf, 1.0)])
def test_integration_spec_rejects_non_finite_ends(ends):
    with pytest.raises(InvariantViolation, match="must be finite"):
        IntegrationSpec(*ends, 10, lambda x, y: y)


def test_diff_spec_validation():
    with pytest.raises(InvariantViolation):
        DiffSpec(h=0.0)
    with pytest.raises(InvariantViolation):
        DiffSpec(h=-1e-5)


def test_central_first_derivative():
    got = central_diff_first(math.sin, 0.7)
    assert got == pytest.approx(math.cos(0.7), abs=1e-9)
    assert central_diff_first(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-9)


def test_central_second_derivative():
    # the default step sits below the rounding floor for second
    # differences, so this check uses a wider one
    got = central_diff_second(lambda x: x * x, 3.0, DiffSpec(h=1e-3))
    assert got == pytest.approx(2.0, abs=1e-6)


def test_central_difference_on_wage_curve():
    from ecodyn.wage_profit import CostStructure, net_profit

    # margin 7 with labor weight 0.7: NP'(2) = -7/4
    cs = CostStructure(10.0, 0.7, ((0.3, 10.0),))
    got = central_diff_first(lambda w: net_profit(cs, w), 2.0)
    assert got == pytest.approx(-1.75, abs=1e-6)


@given(
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.5, 0.25, 0.0625]),
)
def test_affine_functions_differentiate_exactly(a, b, x, h):
    # power-of-two steps keep the difference quotient of a line exact
    # down to a couple of ulps
    got = central_diff_first(lambda t: a * t + b, x, DiffSpec(h=h))
    assert got == pytest.approx(a, abs=1e-12)


def test_grid_argmax_basic():
    grid = [0.0, 1.0, 2.0, 3.0]
    x, v = grid_argmax(lambda t: -(t - 1.9) ** 2, grid)
    assert x == 2.0
    assert v == -(2.0 - 1.9) ** 2


def test_grid_argmax_fine_parabola():
    grid = [i * 0.01 for i in range(401)]  # [0, 4] in steps of 0.01
    x, _ = grid_argmax(lambda t: -((t - 2.0) ** 2), grid)
    assert x == pytest.approx(2.0, abs=1e-9)


def test_grid_argmax_leftmost_tie():
    x, v = grid_argmax(lambda t: 0.0, [1.0, 2.0, 3.0])
    assert x == 1.0
    assert v == 0.0


def test_grid_argmax_empty():
    with pytest.raises(DomainError):
        grid_argmax(lambda t: t, [])


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=40))
def test_grid_argmax_finds_first_maximum(values):
    grid = [float(i) for i in range(len(values))]
    x, v = grid_argmax(lambda t: values[int(t)], grid)
    assert v == max(values)
    assert int(x) == values.index(max(values))

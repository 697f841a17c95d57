import math
from fractions import Fraction

import pytest
from exact import correctly_rounded
from hypothesis import assume, example, given, strategies as st

from ecodyn.errors import DomainError, InvariantViolation, NonpositiveMargin, NumericalFailure
from ecodyn.oracles import DiffSpec, central_diff_first, central_diff_second
from ecodyn.wage_profit import (
    CostStructure,
    ProfitPoint,
    UnboundedProfit,
    WageBound,
    gross_margin,
    net_profit,
    optimal_wage,
    profit_curve,
    profit_derivatives,
)

CS = CostStructure(10.0, 0.5, ((0.5, 4.0),))


@st.composite
def cost_structures(draw):
    labor = draw(st.floats(0.05, 0.95))
    z = draw(st.floats(0.0, 10.0))
    margin = draw(st.floats(0.1, 50.0))
    rest = 1.0 - labor
    return CostStructure(rest * z + margin, labor, ((rest, z),))


def test_gross_margin():
    assert gross_margin(CS) == 8.0


def test_net_profit_value():
    assert net_profit(CS, 2.0) == 3.5


def test_net_profit_rejects_nonpositive_wage():
    with pytest.raises(DomainError):
        net_profit(CS, 0.0)
    with pytest.raises(DomainError):
        net_profit(CS, -2.0)


def test_nonpositive_margin():
    squeezed = CostStructure(2.0, 0.5, ((0.5, 4.0),))
    with pytest.raises(NonpositiveMargin):
        gross_margin(squeezed)
    with pytest.raises(NonpositiveMargin):
        net_profit(squeezed, 1.0)


@given(
    st.floats(0.05, 0.95),
    st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 100.0)), min_size=1, max_size=3),
    st.integers(-4, 4),
)
# subnormal costs: an exact margin that rounds to 0.0, a float margin a
# whole subnormal ulp off, and a price stepped down to 0.0
@example(0.25, [(1.0, 5e-324)], 0)
@example(0.5, [(0.5, 2.2250738585e-313)] * 2, 2)
@example(0.25, [(1.0, 5e-324)], -1)
def test_margin_near_break_even_has_the_exact_sign(labor, factors, ulps):
    total = sum(w for w, _ in factors)
    factors = tuple((w * (1.0 - labor) / total, z) for w, z in factors)
    # prices within 4 ulps of the float cost, where the float margin can
    # carry the wrong sign
    price = sum(w * z for w, z in factors)
    for _ in range(abs(ulps)):
        price = math.nextafter(price, math.copysign(math.inf, ulps))
    assume(price > 0.0)
    cs = CostStructure(price, labor, factors)
    exact = Fraction(price) - sum(Fraction(w) * Fraction(z) for w, z in factors)
    if exact <= 0:
        with pytest.raises(NonpositiveMargin):
            gross_margin(cs)
    else:
        margin = gross_margin(cs)
        assert margin > 0.0
        if float(exact) == 0.0:  # the least subnormal keeps the sign
            assert margin == 2.0**-1074
        else:
            assert correctly_rounded(margin, exact)


def test_weights_must_sum_to_one():
    with pytest.raises(InvariantViolation):
        CostStructure(10.0, 0.5, ((0.4, 4.0),))
    # no silent renormalization: off by more than the tolerance fails
    with pytest.raises(InvariantViolation):
        CostStructure(10.0, 0.5, ((0.5 - 1e-9, 4.0),))
    # within tolerance is accepted unchanged
    cs = CostStructure(10.0, 0.5, ((0.5 - 1e-13, 4.0),))
    assert cs.labor_weight == 0.5


def test_weight_bounds():
    with pytest.raises(InvariantViolation):
        CostStructure(10.0, 1.5, ((-0.5, 4.0),))
    with pytest.raises(InvariantViolation):
        CostStructure(10.0, 0.5, ((0.5, -1.0),))
    with pytest.raises(InvariantViolation):
        CostStructure(0.0, 1.0)


def test_derivatives_closed_form():
    d1, d2 = profit_derivatives(CS, 2.0)
    assert d1 == -8.0 / 4.0
    assert d2 == 2.0 * 8.0 / 8.0


def test_derivatives_match_central_differences():
    w = 1.7
    d1, d2 = profit_derivatives(CS, w)
    f = lambda x: net_profit(CS, x)
    fd1 = central_diff_first(f, w, DiffSpec(h=1e-4 * w))
    fd2 = central_diff_second(f, w, DiffSpec(h=5e-4 * w))
    assert fd1 == pytest.approx(d1, rel=1e-6)
    assert fd2 == pytest.approx(d2, rel=1e-6)


def test_derivatives_past_the_float_range_name_the_derivative():
    for wage, message in (
        (1e-200, "first_derivative overflows the float range"),  # wage**2 underflows
        (1e-110, "second_derivative overflows the float range"),  # only wage**3 does
        (1e-103, "second_derivative is not finite: inf"),
        (1e200, "first_derivative overflows the float range"),  # wage**2 overflows
    ):
        with pytest.raises(NumericalFailure) as failure:
            profit_derivatives(CS, wage)
        assert str(failure.value) == message


def test_optimal_wage_at_floor():
    best = optimal_wage(CS, WageBound(1.0))
    assert isinstance(best, ProfitPoint)
    assert best.wage == 1.0
    assert best.net_profit == 8.0 / 1.0 - 0.5


def test_zero_floor_is_unbounded():
    assert isinstance(optimal_wage(CS, WageBound(0.0)), UnboundedProfit)


def test_wage_bound_validation():
    with pytest.raises(InvariantViolation):
        WageBound(-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_are_rejected(bad):
    with pytest.raises(InvariantViolation):
        WageBound(bad)
    with pytest.raises(InvariantViolation):
        CostStructure(10.0, 0.5, ((0.5, bad),))
    with pytest.raises(InvariantViolation):
        CostStructure(bad, 1.0)


def test_profit_curve_grid_checks():
    points = profit_curve(CS, [1.0, 2.0, 4.0])
    assert [p.wage for p in points] == [1.0, 2.0, 4.0]
    assert points[1].net_profit == 3.5
    with pytest.raises(DomainError):
        profit_curve(CS, [0.0, 1.0])
    with pytest.raises(InvariantViolation):
        profit_curve(CS, [1.0, 1.0, 2.0])
    with pytest.raises(InvariantViolation):
        profit_curve(CS, [2.0, 1.0])


def test_profit_curve_empty_grid():
    assert profit_curve(CS, []) == []


def test_profit_curve_round_numbers():
    # margin 10 and unit labor weight: NP(w) = 10/w - 1
    plain = CostStructure(10.0, 1.0)
    points = profit_curve(plain, [1.0, 2.0, 5.0])
    assert [p.net_profit for p in points] == [9.0, 4.0, 1.0]


def test_tails_of_the_curve():
    # tiny wages blow profit up; huge wages pin it to minus the labor weight
    plain = CostStructure(10.0, 1.0)
    assert net_profit(plain, 1e-8) > 1e8
    assert net_profit(plain, 1e8) == pytest.approx(-1.0, abs=1e-6)


def test_derivatives_match_differences_at_corners():
    # the corners of the wage/margin box the derivative claim covers
    for w in (0.5, 100.0):
        for margin in (1.0, 100.0):
            cs = CostStructure(margin + 2.0, 0.5, ((0.5, 4.0),))
            d1, d2 = profit_derivatives(cs, w)
            f = lambda x: net_profit(cs, x)
            fd1 = central_diff_first(f, w, DiffSpec(h=1e-4 * w))
            fd2 = central_diff_second(f, w, DiffSpec(h=5e-4 * w))
            assert fd1 == pytest.approx(d1, rel=1e-6)
            assert fd2 == pytest.approx(d2, rel=1e-6)


@given(cost_structures(), st.floats(0.01, 100.0), st.floats(1.5, 10.0))
def test_profit_strictly_decreases(cs, w, factor):
    assert net_profit(cs, w) > net_profit(cs, w * factor)


@given(cost_structures(), st.floats(0.1, 50.0), st.floats(1.5, 10.0))
def test_profit_is_convex(cs, a, factor):
    b = a * factor
    mid = 0.5 * (a + b)
    chord = 0.5 * (net_profit(cs, a) + net_profit(cs, b))
    assert net_profit(cs, mid) <= chord + 1e-12 * abs(chord)


@given(cost_structures(), st.floats(0.01, 50.0), st.floats(1.0, 20.0))
def test_floor_dominates_everything_above_it(cs, floor, factor):
    best = optimal_wage(cs, WageBound(floor))
    assert isinstance(best, ProfitPoint)
    assert best.net_profit >= net_profit(cs, floor * factor)


@given(cost_structures(), st.floats(0.05, 20.0))
def test_first_derivative_negative_second_positive(cs, w):
    d1, d2 = profit_derivatives(cs, w)
    assert d1 < 0.0
    assert d2 > 0.0

import math
from fractions import Fraction

import pytest
from exact import correctly_rounded
from hypothesis import given, strategies as st

from ecodyn.errors import DomainError, InvariantViolation, NumericalFailure, SingularExponent
from ecodyn.oracles import central_diff_first
from ecodyn.value_feedback import (
    BalancedFeedback,
    FeedbackGains,
    MarketValueSolution,
    _default_coeff,
    _power_law,
    analytic_market_value,
    closed_form_slope,
    exponent_from_gains,
    gap_from_gains,
    limit_probe,
    market_gap,
    ode_rhs,
    singular_market_value,
)


def test_exponent_from_gains():
    assert exponent_from_gains(FeedbackGains(0.9, 0.4)) == 2.0
    assert exponent_from_gains(FeedbackGains(0.4, 0.9)) == -2.0


@given(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e-15)), st.integers(-4, 4))
def test_exponent_from_gains_is_the_correctly_rounded_reciprocal(deflation, ulps):
    # a gain difference within a few ulps of 1, where rounding the difference
    # before its reciprocal can land on the singular exponent 1.0
    inflation = deflation + 1.0
    for _ in range(abs(ulps)):
        inflation = math.nextafter(inflation, math.copysign(math.inf, ulps))
    exact = 1 / (Fraction(inflation) - Fraction(deflation))
    assert correctly_rounded(exponent_from_gains(FeedbackGains(inflation, deflation)), exact)


def test_a_gain_difference_whose_reciprocal_overflows_gives_an_infinity():
    assert exponent_from_gains(FeedbackGains(5e-324, 0.0)) == math.inf
    assert exponent_from_gains(FeedbackGains(0.0, 5e-324)) == -math.inf


def test_balanced_gains_have_no_exponent():
    assert isinstance(exponent_from_gains(FeedbackGains(0.4, 0.4)), BalancedFeedback)


def test_gain_validation():
    with pytest.raises(InvariantViolation):
        FeedbackGains(-0.1, 0.4)
    with pytest.raises(InvariantViolation):
        FeedbackGains(0.4, float("nan"))


def test_exponent_one_is_singular():
    with pytest.raises(SingularExponent):
        MarketValueSolution(1.0, 2.0)
    with pytest.raises(SingularExponent):
        MarketValueSolution.with_default_coeff(1.0)
    with pytest.raises(SingularExponent):
        market_gap(1.0, 2.0)


@pytest.mark.parametrize("fields", [(math.nan, 1.0), (-2.0, math.nan), (-2.0, math.inf)])
def test_solution_rejects_non_finite_fields(fields):
    with pytest.raises(InvariantViolation, match="must be finite"):
        MarketValueSolution(*fields)


def test_default_coefficient():
    sol = MarketValueSolution.with_default_coeff(-2.0)
    assert sol.homog_coeff == 1.0 / (-3.0)


def test_closed_form_helpers_are_exact_on_fractions():
    # the expressions the scalar and column routes run give exact values
    b, x = Fraction(-2), Fraction(3, 2)
    coeff = _default_coeff(b)
    assert coeff == Fraction(-1, 3)
    value = _power_law(coeff, b, x**b, x)
    assert type(value) is Fraction and value == Fraction(23, 27)


def test_known_point():
    # exponent -2 with the default constant: y(2) = (1/-3)*2^-2 + (2/3)*2
    sol = MarketValueSolution.with_default_coeff(-2.0)
    assert analytic_market_value(sol, 2.0) == 1.25
    assert closed_form_slope(sol, 2.0) == 0.75


def test_more_hand_points():
    # rhs at (x, y) = (3, 15) with exponent 2: 2*(15/3) - 2 = 8
    assert ode_rhs(2.0, 3.0, 15.0) == 8.0
    # exponent 2 with unit constant: 1*3^2 + 2*3 = 15
    assert analytic_market_value(MarketValueSolution(2.0, 1.0), 3.0) == 15.0
    # slope of the default exponent -2 member at x = 1:
    # (-1/3)*(-2)*1 + (-2/-3) = 2/3 + 2/3
    sol = MarketValueSolution.with_default_coeff(-2.0)
    assert closed_form_slope(sol, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_ray_along_the_diagonal_is_stationary():
    # y = x zeroes the rhs for every exponent: b*(x/x) - b is exactly 0
    for b in (-1000.0, -2.0, -0.5, 1.0, 2.0, 17.0):
        for x in (0.1, 1.0, 3.7, 100.0):
            assert ode_rhs(b, x, x) == 0.0


def test_domain_checks():
    sol = MarketValueSolution.with_default_coeff(-2.0)
    for fn in (
        lambda: analytic_market_value(sol, 0.0),
        lambda: closed_form_slope(sol, -1.0),
        lambda: ode_rhs(-2.0, 0.0, 1.0),
        lambda: market_gap(-2.0, 0.0),
        lambda: singular_market_value(1.0, 0.0),
        lambda: limit_probe(0.0, [-10.0]),
    ):
        with pytest.raises(DomainError):
            fn()


def test_slope_satisfies_equation():
    for b in (-5.0, -2.0, -0.5, 2.0, 3.0):
        sol = MarketValueSolution.with_default_coeff(b)
        for x in (0.5, 1.0, 2.7, 5.0):
            lhs = closed_form_slope(sol, x)
            rhs = ode_rhs(b, x, analytic_market_value(sol, x))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_singular_closed_form():
    # K*x - x*ln(x): at x = e with K = 1 the two terms cancel
    assert singular_market_value(1.0, math.e) == pytest.approx(0.0, abs=1e-15)
    # ln(1) = 0 leaves just the homogeneous term
    assert singular_market_value(2.0, 1.0) == 2.0
    # its numerical slope is the equation's right-hand side, for any constant
    for coeff in (0.7, 2.0):
        for x in (0.5, 1.0, 2.3, 5.0):
            numeric = central_diff_first(lambda t: singular_market_value(coeff, t), x)
            rhs = ode_rhs(1.0, x, singular_market_value(coeff, x))
            assert numeric == pytest.approx(rhs, abs=1e-9)


def test_market_gap_matches_solution():
    for b in (-10.0, -2.0, 3.0):
        sol = MarketValueSolution.with_default_coeff(b)
        for x in (0.5, 2.0, 4.0):
            direct = analytic_market_value(sol, x) - x
            assert market_gap(b, x) == pytest.approx(direct, rel=1e-12)


def test_gap_from_gains():
    # cost difference -0.001 puts the exponent at -1000, deep in the limit
    nearly_balanced = FeedbackGains(0.999, 1.0)
    assert gap_from_gains(nearly_balanced, 2.0) == pytest.approx(
        -0.0019980, abs=1e-6
    )
    # difference 0.5 gives exponent 2; gap at x = 3 is (9 + 3)/(2 - 1)
    assert gap_from_gains(FeedbackGains(1.5, 1.0), 3.0) == 12.0
    # equal costs: the market tracks the true value, gap identically zero
    assert gap_from_gains(FeedbackGains(0.7, 0.7), 3.0) == 0.0
    with pytest.raises(DomainError):
        gap_from_gains(FeedbackGains(0.7, 0.7), 0.0)
    with pytest.raises(SingularExponent):
        gap_from_gains(FeedbackGains(2.0, 1.0), 3.0)
    # consistent with the exponent-first route
    assert gap_from_gains(FeedbackGains(0.4, 0.9), 2.0) == market_gap(-2.0, 2.0)


def test_limit_probe_values():
    probe = limit_probe(2.0, [-10.0, -100.0, -1000.0])
    gaps = [g for _, g in probe.points]
    assert gaps[0] == pytest.approx(-0.181907, abs=1e-5)
    assert gaps[1] == pytest.approx(-0.019802, abs=1e-5)
    assert gaps[2] == pytest.approx(-0.001998, abs=1e-5)
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
    assert not probe.divergent


def test_limit_probe_regimes():
    assert limit_probe(0.5, [-10.0]).divergent
    assert not limit_probe(1.0, [-10.0]).divergent
    # below 1 the gap magnitude grows as the exponent sinks
    diverging = limit_probe(0.5, [-10.0, -100.0])
    gaps = [abs(g) for _, g in diverging.points]
    assert gaps[1] > gaps[0]


def test_limit_probe_rejects_non_finite_gaps():
    with pytest.raises(NumericalFailure, match="gap overflows the float range"):
        limit_probe(0.5, [-2000.0])
    with pytest.raises(NumericalFailure, match="gap is not finite: nan"):
        limit_probe(2.0, [math.nan, -2.0])


@given(
    st.one_of(st.sampled_from([0.0, 1.0, -3.7]), st.floats(-4.0, 4.0)),
    st.floats(-5.0, 5.0).filter(lambda b: abs(b - 1.0) > 0.05),
    st.floats(0.3, 5.0),
)
def test_whole_family_solves_the_equation(coeff, b, x):
    # the free constant drops out of the equation, so every member passes
    sol = MarketValueSolution(b, coeff)
    lhs = closed_form_slope(sol, x)
    rhs = ode_rhs(b, x, analytic_market_value(sol, x))
    assert lhs == pytest.approx(rhs, abs=1e-9)

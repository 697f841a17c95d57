"""Market value tracking true value under a feedback pricing rule.

Price adjustments cost more in one direction than the other, and the
reciprocal of that cost asymmetry becomes the exponent of a first-order
linear equation linking market value to true value. The closed-form
solution is a power law plus a linear term; the solution family, its
slope, the premium of market over true value, and the large-exponent
limit behavior all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import DomainError, SingularExponent, finite
from .schema import FINITE, NONNEG, bounded, check_fields


@dataclass(frozen=True)
class FeedbackGains:
    """Unit costs of pushing the market price up versus letting it fall."""

    inflation_gain: float = bounded(NONNEG)
    deflation_gain: float = bounded(NONNEG)

    __post_init__ = check_fields


class BalancedFeedback:
    """Marker: the two adjustment costs cancel exactly, the exponent is
    undefined, and market value simply equals true value."""


@dataclass(frozen=True)
class MarketValueSolution:
    """One member of the closed-form solution family.

    market_value(x) = homog_coeff * x**exponent + (exponent/(exponent-1)) * x

    ``homog_coeff`` is the free constant of the homogeneous part; any
    value yields a valid solution of the same equation.
    """

    exponent: float = bounded(FINITE)
    homog_coeff: float = bounded(FINITE)

    def __post_init__(self) -> None:
        check_fields(self)
        _check_exponent(self.exponent)

    @classmethod
    def with_default_coeff(cls, exponent: float) -> "MarketValueSolution":
        """Pick the conventional constant 1/(exponent - 1).

        With this choice the solution passes through a simple reference
        form used by the limit analysis: the gap to true value becomes
        (x**exponent + x)/(exponent - 1).
        """
        _check_exponent(exponent)
        return cls(exponent, _default_coeff(exponent))


class LimitProbeResult(NamedTuple):
    """Gap samples along a sequence of exponents, plus the regime flag.

    ``divergent`` is True when the true value sits strictly below 1, where
    the power term blows up instead of washing out as the exponent goes to
    negative infinity.
    """

    points: tuple[tuple[float, float], ...]
    divergent: bool


_SINGULAR_NOTE = "exponent 1 has a logarithmic solution, see singular_market_value"
_TRUE_VALUE_NOTE = "true value must be > 0, got {}"


def _check_exponent(exponent: float) -> None:
    if exponent == 1:
        raise SingularExponent(_SINGULAR_NOTE)


def _check_true_value(x: float) -> None:
    if x <= 0:
        raise DomainError(_TRUE_VALUE_NOTE.format(x))


# The closed-form arithmetic, written once. The helpers take floats, numpy
# arrays or Fractions (they hold no float literal, so Fractions stay
# exact), and the sweep engine's and the lockstep RK4 route's values
# equal the scalar calls bit for bit.


def _default_coeff(exponent):
    return 1 / (exponent - 1)


def _power_law(homog_coeff, exponent, power, x):
    """homog_coeff * x**exponent + exponent/(exponent-1) * x, given power = x**exponent."""
    return homog_coeff * power + (exponent / (exponent - 1)) * x


def _ode_slope(exponent, x, y):
    """exponent * (y/x - 1), the governing equation's right-hand side, for x > 0.
    On numpy columns, the in-place operators write into y / x alone, a new
    array, and skip two allocations; on floats they rebind."""
    slope = y / x
    slope *= exponent
    slope -= exponent
    return slope


def exponent_from_gains(gains: FeedbackGains) -> float | BalancedFeedback:
    """Reciprocal of the net adjustment cost; the equation's exponent,
    rounded once from the exact difference, so never to 1 by accident.

    Equal costs make the exponent undefined, returned as an explicit
    :class:`BalancedFeedback` marker rather than an infinity.
    """
    from fractions import Fraction  # not at module top: no sweep or audit run needs it

    diff = Fraction(gains.inflation_gain) - Fraction(gains.deflation_gain)
    if diff == 0:
        return BalancedFeedback()
    try:
        return float(1 / diff)
    except OverflowError:  # past the float range
        return math.copysign(math.inf, diff)


def ode_rhs(exponent: float, x: float, y: float) -> float:
    """Right-hand side of the governing equation: exponent * (y/x - 1)."""
    _check_true_value(x)
    return _ode_slope(exponent, x, y)


def analytic_market_value(sol: MarketValueSolution, x: float) -> float:
    """Evaluate the closed-form market value at true value ``x``."""
    _check_true_value(x)
    return _power_law(sol.homog_coeff, sol.exponent, x**sol.exponent, x)


def closed_form_slope(sol: MarketValueSolution, x: float) -> float:
    """Derivative of the closed form with respect to true value.

    Differentiating term by term gives
    homog_coeff * exponent * x**(exponent-1) + exponent/(exponent-1);
    this is the form consistent with the equation itself.
    """
    _check_true_value(x)
    b = sol.exponent
    return sol.homog_coeff * b * x ** (b - 1.0) + b / (b - 1.0)


def singular_market_value(homog_coeff: float, x: float) -> float:
    """Closed form for the exponent-1 case: K*x - x*ln(x)."""
    _check_true_value(x)
    return homog_coeff * x - x * math.log(x)


def market_gap(exponent: float, true_value: float) -> float:
    """Market minus true value for the default-constant solution.

    Equals (x**exponent + x)/(exponent - 1) at true value x.
    """
    _check_exponent(exponent)
    _check_true_value(true_value)
    return (true_value**exponent + true_value) / (exponent - 1.0)


def gap_from_gains(gains: FeedbackGains, true_value: float) -> float:
    """Market minus true value, starting from the gain pair.

    Balanced gains mean the market tracks the true value exactly, so the
    gap is zero by definition rather than by a limit computation.
    """
    exponent = exponent_from_gains(gains)
    if isinstance(exponent, BalancedFeedback):
        _check_true_value(true_value)
        return 0.0
    return market_gap(exponent, true_value)


def limit_probe(true_value: float, exponents: list[float]) -> LimitProbeResult:
    """Sample the market-to-true gap along a sequence of exponents.

    For true values above 1 the gap shrinks toward zero as the exponent
    heads to negative infinity; below 1 the power term takes over and the
    gap grows instead, which the ``divergent`` flag reports. A gap that
    overflows or is not finite raises NumericalFailure.
    """
    _check_true_value(true_value)
    points = tuple((b, finite("gap", partial(market_gap, b, true_value))) for b in exponents)
    return LimitProbeResult(points, divergent=true_value < 1.0)

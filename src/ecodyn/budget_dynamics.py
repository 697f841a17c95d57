"""Yearly wage pool dynamics driven by taxation, spending, and investment.

The yearly change in the wage pool splits into a government flow balance
(tax revenue net of re-spent outlays) and an investment inflow. Both are
linear in the current wage level, so the year-over-year map is a
first-order linear recurrence. Everything else here is consequences:
the closed-form trajectory, the pole that decides stability, the interval
of tax rates that keeps the pole inside the unit circle, and adjustments
for collection and spending inefficiencies.

Two recurrence conventions are supported. In "direct" mode next year's
pool is the yearly change itself; in "incremental" mode the change is
added onto the current pool, which shifts the pole by exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, NamedTuple

import numpy as np

from .errors import InvariantViolation
from .schema import MODES, NONNEG, POSITIVE, UNIT, bounded, check_fields, integer, string


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvariantViolation(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _check_run(mode: str, n: int) -> None:
    _check_mode(mode)
    if n < 0:
        raise InvariantViolation(f"year count must be >= 0, got {n}")


def read_mode(section: Mapping[str, Any], key: str = "mode") -> str:
    """section[key] as a recurrence mode, "direct" when absent."""
    return _check_mode(string(section, key, "direct"))


def read_horizon(section: Mapping[str, Any], key: str = "horizon", most: float = math.inf) -> int:
    """section[key] as a year count up to most, 10 when absent."""
    return integer(section, key, 10, least=0, most=most)


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the wage pool recurrence.

    tax_rate: fraction of wages collected as tax.
    spending_split: share of government outlays paid straight back out
        as public wages; the rest returns through the private loop.
    private_fraction: share of after-tax wages kept out of domestic
        consumption (saved or spent abroad).
    invest_share: fraction of the wage pool channeled into investment.
    foreign_multiplier: relative boost on investment from external demand.
    gov_spending: fixed yearly government outlay level.
    initial_wages: wage pool at year zero, must be positive.
    """

    tax_rate: float = bounded(UNIT)
    spending_split: float = bounded(UNIT)
    private_fraction: float = bounded(UNIT)
    invest_share: float = bounded(NONNEG)
    foreign_multiplier: float = bounded(NONNEG)
    gov_spending: float = bounded(NONNEG)
    initial_wages: float = bounded(POSITIVE)

    __post_init__ = check_fields


class RecurrenceCoefficients(NamedTuple):
    """Linear map of one budget year: next = pole * current + constant_flow.

    balance_gain multiplies the wage pool inside the government flow
    balance, invest_gain inside the investment inflow; constant_flow is
    the wage-independent part (government outlays paid as public wages,
    entering with a minus sign on the balance side).
    """

    balance_gain: float
    invest_gain: float
    constant_flow: float

    @property
    def pole(self) -> float:
        """Multiplier of the direct-mode recurrence."""
        return self.balance_gain + self.invest_gain

    def pole_in_mode(self, mode: str) -> float:
        """Recurrence multiplier; incremental mode shifts it by one."""
        _check_mode(mode)
        if mode == "incremental":
            return 1 + self.pole
        return self.pole


# not a NamedTuple: tax_in_stable_range tells it from a (lo, hi) tuple by isinstance
@dataclass(frozen=True)
class DegenerateRange:
    """Marker: leverage at or below -1 flips the interval algebra, so no
    open interval of tax rates in (0, 1) can be reported."""

    leverage: float


class DivergentFixedPoint:
    """Marker: the pole sits exactly at 1 with a nonzero constant flow,
    so the trajectory drifts linearly and no fixed point exists."""


@dataclass(frozen=True)
class DeficiencyFactors:
    """Fractional losses applied to the ideal model, each in [0, 1].

    tax_collection: share of owed tax never collected.
    work_effort: share of potential wages lost to underemployment.
    spending_efficiency: share of planned outlays that evaporates.

    A factor of exactly 1 is a total loss: the corresponding adjusted
    quantity is zero.
    """

    tax_collection: float = bounded(UNIT, 0.0)
    work_effort: float = bounded(UNIT, 0.0)
    spending_efficiency: float = bounded(UNIT, 0.0)

    __post_init__ = check_fields


class StabilityReport(NamedTuple):
    """Everything the stability analysis of one parameter set produces.

    ``stable`` means the pole magnitude is at most 1: responses stay
    bounded, with the tie at exactly 1 marginal rather than growing.
    A marginal pole with nonzero constant flow still drifts linearly,
    which the ``fixed_point`` field reports separately.
    """

    mode: str
    coefficients: RecurrenceCoefficients
    pole: float
    stable: bool
    fixed_point: float | DivergentFixedPoint
    leverage: float
    stable_tax_range: tuple[float, float] | DegenerateRange | None
    tax_rate: float
    shrinking: bool

    @property
    def tax_in_stable_range(self) -> bool | None:
        """Whether the configured tax rate falls in the stable interval.

        Boundary ties count as inside, mirroring the pole-magnitude tie
        in the ``stable`` flag. None when no interval exists (degenerate
        leverage or an empty incremental-mode intersection).
        """
        if not isinstance(self.stable_tax_range, tuple):
            return None
        lo, hi = self.stable_tax_range
        return lo <= self.tax_rate <= hi


def apply_deficiencies(params: BudgetParams, factors: DeficiencyFactors) -> BudgetParams:
    """The parameters a lossy economy actually realizes.

    Collection losses scale the tax rate, effort losses the wage pool,
    spending losses the outlay level. The result is validated on
    construction, so a total work loss, which zeroes the wage pool,
    raises InvariantViolation.
    """
    return replace(
        params,
        tax_rate=params.tax_rate * (1.0 - factors.tax_collection),
        initial_wages=params.initial_wages * (1.0 - factors.work_effort),
        gov_spending=params.gov_spending * (1.0 - factors.spending_efficiency),
    )


def flow_balance(params: BudgetParams) -> float:
    """Government flow balance for the starting year.

    Tax revenue on the wage pool, minus the after-tax consumption that
    returns through the private loop, minus outlays paid as public wages.
    """
    w = params.initial_wages
    recirculated = (
        (1.0 - params.spending_split)
        * (1.0 - params.tax_rate)
        * (1.0 - params.private_fraction)
        * w
    )
    return w * params.tax_rate - recirculated - params.gov_spending * params.spending_split


def investments(params: BudgetParams) -> float:
    """Investment inflow for the starting year."""
    return (
        params.invest_share
        * params.initial_wages
        * (1.0 - params.tax_rate)
        * (1.0 + params.foreign_multiplier)
    )


def annual_change(params: BudgetParams) -> float:
    """Yearly change of the wage pool: flow balance plus investments."""
    return flow_balance(params) + investments(params)


# The recurrence arithmetic, written once. The helpers take floats, numpy
# arrays or Fractions (they hold no float literal, so Fractions stay exact),
# and the sweep's cells equal the scalar calls bit for bit.


def _coefficients(
    tax_rate, spending_split, private_fraction, invest_share, foreign_multiplier, gov_spending
) -> RecurrenceCoefficients:
    balance_gain = tax_rate - (1 - spending_split) * (1 - tax_rate) * (1 - private_fraction)
    invest_gain = invest_share * (1 - tax_rate) * (1 + foreign_multiplier)
    return RecurrenceCoefficients(balance_gain, invest_gain, -gov_spending * spending_split)


def _is_stable(pole):
    return abs(pole) <= 1.0


def _leverage(spending_split, private_fraction, invest_share, foreign_multiplier):
    return (1 - spending_split) * (1 - private_fraction) - invest_share * (1 + foreign_multiplier)


def _stable_interval(leverage, mode):
    """Ends (lo, hi) of the stable tax interval, for leverage above -1.

    The interval is empty where lo < hi fails. Floats or arrays in, numpy
    values out; each np.where picks what Python's max(0.0, x) or
    min(1.0, x) would, signed zeros and NaN included.
    """
    denom = 1.0 + leverage
    if mode == "direct":
        lo = (leverage - 1.0) / denom
        return np.where(lo > 0.0, lo, 0.0), 1.0
    lo, hi = (leverage - 2.0) / denom, leverage / denom
    return np.where(lo > 0.0, lo, 0.0), np.where(hi < 1.0, hi, 1.0)


def _geometric_level(power, pole, initial_wages, constant_flow):
    """pole**n * (W_0 - b) + b with b the fixed point, given power = pole**n."""
    base = constant_flow / (1 - pole)
    return power * (initial_wages - base) + base


def _unit_pole_level(initial_wages, n, constant_flow):
    """W_0 + n * constant_flow, the level after n years at a pole of exactly 1."""
    return initial_wages + n * constant_flow


def coefficients(params: BudgetParams) -> RecurrenceCoefficients:
    """Collect the wage-linear gains and the constant flow term.

    In exact arithmetic annual_change(params) equals
    (balance_gain + invest_gain) * initial_wages + constant_flow. In floats
    the two group their terms differently, so they can differ in the last
    bits, as they do on about half of uniform draws: for the README's
    budget annual_change is 229.0, while this sum, which iterate's first
    direct-mode step computes, is 228.99999999999994.
    """
    return _coefficients(
        params.tax_rate,
        params.spending_split,
        params.private_fraction,
        params.invest_share,
        params.foreign_multiplier,
        params.gov_spending,
    )


def iterate(params: BudgetParams, n: int, mode: str = "direct") -> list[float]:
    """Roll the recurrence forward n years; returns n + 1 pool levels.

    The first entry is the initial pool, so iterate(p, 0) is [W0].
    """
    _check_run(mode, n)
    coeffs = coefficients(params)
    pole = coeffs.pole_in_mode(mode)
    levels = [params.initial_wages]
    for _ in range(n):
        levels.append(pole * levels[-1] + coeffs.constant_flow)
    return levels


def fixed_point(
    params: BudgetParams, mode: str = "direct"
) -> float | DivergentFixedPoint:
    """Stationary pool level of the recurrence, when one exists.

    A pole of exactly 1 makes every level stationary if the constant flow
    vanishes (the initial pool is reported) and none otherwise.
    """
    coeffs = coefficients(params)
    pole = coeffs.pole_in_mode(mode)
    if pole == 1.0:
        if coeffs.constant_flow == 0.0:
            return params.initial_wages
        return DivergentFixedPoint()
    return coeffs.constant_flow / (1.0 - pole)


def closed_form(params: BudgetParams, n: int, mode: str = "direct") -> float:
    """Pool level after n years, evaluated without iterating.

    W_n = pole**n * (W_0 - b) + b with b the fixed point; at a pole of
    exactly 1 the limit form W_0 + n * constant_flow applies.
    """
    _check_run(mode, n)
    coeffs = coefficients(params)
    pole = coeffs.pole_in_mode(mode)
    if pole == 1.0:
        return _unit_pole_level(params.initial_wages, n, coeffs.constant_flow)
    return _geometric_level(pole**n, pole, params.initial_wages, coeffs.constant_flow)


def impulse_response(params: BudgetParams, n: int, mode: str = "direct") -> float:
    """Response at year n to a unit-impulse outlay pattern.

    Starting the recurrence from an empty pool, one round of constant
    flow injected at year zero echoes as constant_flow * pole**n.
    """
    _check_run(mode, n)
    coeffs = coefficients(params)
    return coeffs.constant_flow * coeffs.pole_in_mode(mode) ** n


def tax_leverage(params: BudgetParams) -> float:
    """Sensitivity of the pole to the tax rate, minus one.

    The pole regroups as tax_rate * (1 + leverage) - leverage, so this
    single number fixes which tax rates keep the system stable.
    """
    return _leverage(
        params.spending_split,
        params.private_fraction,
        params.invest_share,
        params.foreign_multiplier,
    )


def taxation_range(
    params: BudgetParams, mode: str = "direct"
) -> tuple[float, float] | DegenerateRange | None:
    """Open interval of tax rates with the pole inside the unit circle.

    Derived by solving |pole| < 1 for the tax rate using the regrouped
    form pole = t * (1 + leverage) - leverage, then intersecting with
    the admissible [0, 1]. Leverage at or below -1 flips the direction
    of both inequalities and is reported as DegenerateRange. In
    incremental mode the unit-circle condition lands on a different
    interval, which can be empty (None).
    """
    _check_mode(mode)
    lev = tax_leverage(params)
    if 1.0 + lev <= 0.0:
        return DegenerateRange(lev)
    lo, hi = map(float, _stable_interval(lev, mode))
    if not lo < hi:
        return None
    return (lo, hi)


def shrink_condition(params: BudgetParams) -> bool:
    """Formal predicate for a pole below -1 at a zero tax rate.

    Requires leverage above 1, which the admissible parameter box can
    never reach (the product of two numbers in [0, 1] caps the positive
    part at 1 and the investment term only subtracts). Exposed so the
    unreachability can be scanned and documented rather than assumed.
    """
    return tax_leverage(params) > 1.0


def stability_report(params: BudgetParams, mode: str = "direct") -> StabilityReport:
    """Full stability analysis of one parameter set in one mode."""
    coeffs = coefficients(params)
    pole = coeffs.pole_in_mode(mode)
    return StabilityReport(
        mode=mode,
        coefficients=coeffs,
        pole=pole,
        stable=_is_stable(pole),
        fixed_point=fixed_point(params, mode),
        leverage=tax_leverage(params),
        stable_tax_range=taxation_range(params, mode),
        tax_rate=params.tax_rate,
        shrinking=shrink_condition(params),
    )

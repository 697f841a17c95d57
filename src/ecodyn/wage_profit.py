"""Net profit per production unit as a function of total labor cost.

The unit cost is a convex weighted sum of cost factors with labor singled
out; net profit per sold unit is the margin against the maximum market
price, normalized by labor cost. The resulting profit curve is strictly
decreasing and convex in the wage, so a legislated wage floor is the one
and only constrained optimum, and with no floor at all the profit ratio
diverges as the wage goes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .errors import DomainError, InvariantViolation, NonpositiveMargin, finite
from .schema import NONNEG, POSITIVE, UNIT, bounded, check_fields, factor_pairs, read

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CostStructure:
    """Market price ceiling plus convex cost-factor weights.

    ``other_factors`` holds (weight, unit value) pairs for every non-labor
    cost factor. Weights, labor included, must sum to 1; inputs are never
    renormalized silently.
    """

    max_market_price: float = bounded(POSITIVE)
    labor_weight: float = bounded(UNIT)
    other_factors: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "other_factors",
            tuple((float(w), float(z)) for w, z in self.other_factors),
        )
        check_fields(self)
        for w, z in self.other_factors:
            UNIT.check("factor weight", w)
            NONNEG.check("factor value", z)
        total = sum((w for w, _ in self.other_factors), self.labor_weight)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvariantViolation(
                f"cost weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
            )


def cost_structure(params: Mapping[str, Any]) -> CostStructure:
    """The cost structure from a parameter or config mapping."""
    return read(CostStructure, params, other_factors=factor_pairs)


@dataclass(frozen=True)
class WageBound:
    """Minimum allowable total labor cost (the legislated floor)."""

    floor: float = bounded(NONNEG)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ProfitPoint:
    """A wage and the net profit ratio attained there."""

    wage: float = bounded(POSITIVE)
    net_profit: float

    __post_init__ = check_fields


class UnboundedProfit:
    """Marker: with a zero wage floor the profit ratio has no maximum;
    it grows without bound as the wage approaches zero."""


def gross_margin(cs: CostStructure) -> float:
    """Selling-price margin left after all non-labor cost, per unit.

    This is the constant numerator of the profit curve. A nonpositive
    margin means the configuration can never turn a profit at any wage,
    which downstream monotonicity arguments rely on excluding.

    The float margin is kept wherever its error bound vouches for its
    sign. Near break-even, where rounding could flip the sign, and at a
    subnormal price, where the bound's relative term underflows, the
    margin is the correctly rounded exact one, from Fraction, or 2**-1074
    where that rounds a positive margin to 0.0.
    """
    cost = sum(w * z for w, z in cs.other_factors)
    margin = cs.max_market_price - cost
    # k products, k - 1 sums and one difference: |error| <= gamma_(k+1) *
    # (price + cost), plus half the least subnormal for each product that
    # underflows (Higham ch. 3); the band is twice that
    k = len(cs.other_factors)
    band = (k + 1) * 2.0**-52 * (cs.max_market_price + cost) + k * 2.0**-1074
    if abs(margin) < band or cs.max_market_price < 2.0**-1022:
        from fractions import Fraction  # here, not at the top: only a margin in the band needs it

        exact = Fraction(cs.max_market_price) - sum(
            Fraction(w) * Fraction(z) for w, z in cs.other_factors
        )
        margin = float(exact) if exact <= 0 else max(float(exact), 2.0**-1074)
    if margin <= 0:
        raise NonpositiveMargin(
            f"non-labor cost absorbs the whole selling price (margin {margin!r})"
        )
    return margin


_WAGE_NOTE = "wage must be > 0, got {}"


def _check_wage(wage: float) -> None:
    if wage <= 0:
        raise DomainError(_WAGE_NOTE.format(wage))


def _profit_ratio(margin, wage, labor_weight):
    """Net profit ratio; takes floats or numpy arrays, so the sweep engine
    evaluates whole wage grids with exactly this expression."""
    return margin / wage - labor_weight


def net_profit(cs: CostStructure, wage: float) -> float:
    """Net profit ratio per sold unit: margin over wage, minus the labor weight."""
    _check_wage(wage)
    return _profit_ratio(gross_margin(cs), wage, cs.labor_weight)


def profit_derivatives(cs: CostStructure, wage: float) -> tuple[float, float]:
    """First and second derivatives of the profit curve at ``wage``.

    The first is -margin/wage^2 (never positive) and the second is
    2*margin/wage^3 (never negative), which is what pins the optimum to
    the wage floor. A derivative past the float range (a power of the wage
    that under- or overflows included) is a NumericalFailure naming it.
    """
    _check_wage(wage)
    return _derivatives(gross_margin(cs), wage)


def _derivatives(margin: float, wage: float) -> tuple[float, float]:
    """profit_derivatives from the margin, for a wage already checked."""
    first = finite("first_derivative", lambda: -margin / wage**2)
    return first, finite("second_derivative", lambda: 2 * margin / wage**3)


def optimal_wage(cs: CostStructure, bound: WageBound) -> ProfitPoint | UnboundedProfit:
    """Constrained profit optimum over wages at or above the floor.

    The curve decreases strictly, so the floor itself is the maximizer.
    A zero floor is returned as an explicit :class:`UnboundedProfit`
    marker instead of an infinite float, so callers must handle the
    degenerate no-floor policy deliberately.
    """
    margin = gross_margin(cs)
    if bound.floor == 0:
        return UnboundedProfit()
    return ProfitPoint(bound.floor, _profit_ratio(margin, bound.floor, cs.labor_weight))


def profit_curve(cs: CostStructure, wages: list[float]) -> list[ProfitPoint]:
    """Pointwise net profit over a strictly increasing wage grid, from one margin."""
    for w in wages:
        if w <= 0:
            raise DomainError(f"wage grid must be positive, got {w}")
    for a, b in zip(wages, wages[1:]):
        if not a < b:
            raise InvariantViolation("wage grid must be strictly increasing")
    if not wages:
        return []
    margin = gross_margin(cs)
    return [ProfitPoint(w, _profit_ratio(margin, w, cs.labor_weight)) for w in wages]

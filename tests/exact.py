"""Exact references for the closed forms' float results, in fractions.Fraction."""

import math
from fractions import Fraction


def correctly_rounded(value: float, exact: Fraction) -> bool:
    """True when neither float neighbour of value lies closer to exact."""
    error = abs(Fraction(value) - exact)
    neighbours = (math.nextafter(value, -math.inf), math.nextafter(value, math.inf))
    return all(abs(Fraction(n) - exact) >= error for n in neighbours)


def ulps(value: float, exact: Fraction) -> float:
    """Distance of value from exact, in units of value's ulp."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(value)))

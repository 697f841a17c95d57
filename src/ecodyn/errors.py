"""Exception types shared across the model modules."""

import math
from typing import Callable


class EcodynError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(EcodynError, ValueError):
    """A domain type was constructed with fields outside its invariants."""


class DomainError(EcodynError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class NonpositiveMargin(EcodynError, ValueError):
    """Selling price does not cover non-labor cost; the profit model has no
    positive region and its monotonicity guarantees do not hold."""


class SingularExponent(EcodynError, ValueError):
    """The general closed form divides by (exponent - 1); exponent 1 needs
    the dedicated logarithmic solution."""


class NumericalFailure(EcodynError, ArithmeticError):
    """A numerical routine produced non-finite intermediate values."""


# the texts of finite's two failures, formatted with the value's name
OVERFLOW_NOTE = "{} overflows the float range"
NOT_FINITE_NOTE = "{} is not finite: {!r}"


def finite(name: str, compute: Callable[[], float]) -> float:
    """Run compute, turning overflow (a division by an underflowed zero
    included) or a non-finite result into a NumericalFailure."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        raise NumericalFailure(OVERFLOW_NOTE.format(name)) from None
    if not math.isfinite(value):
        raise NumericalFailure(NOT_FINITE_NOTE.format(name, value))
    return value

"""Independent numerical machinery used to cross-check every closed form.

Nothing in here knows about the economic models. The integrator, the
differentiators and the grid search are deliberately plain so that a
failed cross-check points at the closed form, not at the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, InvariantViolation, NumericalFailure
from .schema import FINITE, POSITIVE, bounded, check_fields

Rhs = Callable[[float, float], float]
Scalar = Callable[[float], float]

DEFAULT_DIFF_STEP = 1e-5


@dataclass(frozen=True)
class IntegrationSpec:
    """Fixed-step initial value problem on [x_start, x_end]."""

    x_start: float = bounded(FINITE)
    x_end: float = bounded(FINITE)
    steps: int
    rhs: Rhs

    def __post_init__(self) -> None:
        check_fields(self)
        if self.steps < 1:
            raise InvariantViolation(f"steps must be >= 1, got {self.steps}")
        if not self.x_start < self.x_end:
            raise InvariantViolation(
                f"x_start must be < x_end, got [{self.x_start}, {self.x_end}]"
            )


@dataclass(frozen=True)
class DiffSpec:
    """Central-difference settings. The default step is balanced for
    truncation vs rounding on O(1) argument scales; callers working on
    other scales should pass their own h."""

    h: float = bounded(POSITIVE, DEFAULT_DIFF_STEP)

    __post_init__ = check_fields


def rk4_integrate(spec: IntegrationSpec, y_start: float) -> float:
    """Classical fourth-order Runge-Kutta estimate of y(x_end).

    Global error is O((dx)^4) for smooth right-hand sides. Raises
    NumericalFailure as soon as any stage or state stops being finite,
    rather than silently propagating inf/nan to the result.
    """
    f = spec.rhs
    h = (spec.x_end - spec.x_start) / spec.steps
    x = spec.x_start
    y = y_start
    for i in range(spec.steps):
        k1 = f(x, y)
        k2 = f(x + h / 2, y + h * k1 / 2)
        k3 = f(x + h / 2, y + h * k2 / 2)
        k4 = f(x + h, y + h * k3)
        if not (math.isfinite(k1) and math.isfinite(k2)
                and math.isfinite(k3) and math.isfinite(k4)):
            raise NumericalFailure(f"non-finite RK4 stage at x={x}")
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(y):
            raise NumericalFailure(f"non-finite state after step {i} at x={x}")
        # recompute x from the index so rounding does not drift the grid
        x = spec.x_start + (i + 1) * h
    return y


def central_diff_first(f: Scalar, x: float, spec: DiffSpec = DiffSpec()) -> float:
    """Second-order central estimate of f'(x)."""
    h = spec.h
    return (f(x + h) - f(x - h)) / (2 * h)


def central_diff_second(f: Scalar, x: float, spec: DiffSpec = DiffSpec()) -> float:
    """Second-order central estimate of f''(x).

    The rounding floor is about 4*eps*|f(x)|/h^2, so tight tolerances
    need a larger h than the first-derivative stencil does.
    """
    h = spec.h
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def grid_argmax(f: Scalar, grid: list[float]) -> tuple[float, float]:
    """Brute-force maximizer of f over an ordered grid.

    Ties break to the leftmost grid point under exact comparison, so the
    result is deterministic for any strictly ordered input.
    """
    if len(grid) == 0:
        raise DomainError("grid_argmax needs a nonempty grid")
    best_x = grid[0]
    best_val = f(best_x)
    for x in grid[1:]:
        val = f(x)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val

"""Independent numerical machinery used to cross-check every closed form.

Nothing in here knows about the economic models. The integrator, the
differentiators and the grid search are deliberately plain so that a
failed cross-check points at the closed form, not at the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvariantViolation, NumericalFailure
from .schema import FINITE, POSITIVE, bounded, check_fields

Rhs = Callable[[float, float], float]
Scalar = Callable[[float], float]

DEFAULT_DIFF_STEP = 1e-5


@dataclass(frozen=True)
class IntegrationSpec:
    """Fixed-step initial value problem on [x_start, x_end].

    ``x_end`` is a float, or a 1-D float array of end points that share
    x_start, one lane each (see :func:`rk4_integrate`).
    """

    x_start: float = bounded(FINITE)
    x_end: float | np.ndarray
    steps: int
    rhs: Rhs

    def __post_init__(self) -> None:
        check_fields(self)
        if self.steps < 1:
            raise InvariantViolation(f"steps must be >= 1, got {self.steps}")
        for x_end in np.atleast_1d(self.x_end).tolist():
            FINITE.check("x_end", x_end)
            if not self.x_start < x_end:
                raise InvariantViolation(
                    f"x_start must be < x_end, got [{self.x_start}, {x_end}]"
                )


@dataclass(frozen=True)
class DiffSpec:
    """Central-difference settings. The default step is balanced for
    truncation vs rounding on O(1) argument scales; callers working on
    other scales should pass their own h."""

    h: float = bounded(POSITIVE, DEFAULT_DIFF_STEP)

    __post_init__ = check_fields


def rk4_integrate(spec: IntegrationSpec, y_start: float | np.ndarray) -> float | np.ndarray:
    """Classical fourth-order Runge-Kutta estimate of y(x_end).

    ``spec.x_end`` and ``y_start`` are each a float or a 1-D float array,
    and they broadcast: every element is one lane, and a call with no
    array is a single lane. All lanes share x_start and the step count and
    advance in lockstep, lane j with its own step (x_end[j] - x_start) /
    steps. Each lane goes through the same float operations, in the same
    order, as a scalar call for that lane alone, so the two agree bit for
    bit. With arrays, the right-hand side receives arrays (x stays a
    float until the first step is done) and must compute element-wise.

    Global error is O((dx)^4) for smooth right-hand sides. After each
    step the new state is tested for finiteness once: the step width is
    positive, so a non-finite stage always leaves a non-finite state.
    The first failure raises NumericalFailure naming the x at which the
    step of the first failing lane began, rather than silently
    propagating inf/nan to the result.
    """
    f = spec.rhs
    h = (spec.x_end - spec.x_start) / spec.steps
    # math.isfinite costs a fraction of np.isfinite on a float
    all_finite = _all_finite if np.ndim(h) or np.ndim(y_start) else math.isfinite
    # h / 2 and h / 6 are the same values whether hoisted or not
    half, sixth = h / 2, h / 6
    x = spec.x_start
    y = y_start
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(spec.steps):
            k1 = f(x, y)
            k2 = f(x + half, y + h * k1 / 2)
            k3 = f(x + half, y + h * k2 / 2)
            k4 = f(x + h, y + h * k3)
            y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            if not all_finite(y):
                raise NumericalFailure(
                    f"non-finite RK4 state after step {i} at x={_failing_x(x, y)}"
                )
            # recompute x from the index so rounding does not drift the grid
            x = spec.x_start + (i + 1) * h
    return y


def _all_finite(y: np.ndarray) -> bool:
    return bool(np.isfinite(y).all())


def _failing_x(x: float | np.ndarray, y: float | np.ndarray) -> float:
    """x of the first lane whose state y is not finite."""
    if np.ndim(y) == 0:
        return x
    lane = np.argmin(np.isfinite(y))
    return np.broadcast_to(x, np.shape(y))[lane].item()


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

"""Independent numerical machinery used to cross-check every closed form.

Nothing in here knows about the economic models. The integrator, the
differentiators and the grid search are deliberately plain so that a
failed cross-check points at the closed form, not at the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError, InvariantViolation, NumericalFailure
from .schema import FINITE, POSITIVE, bounded, check_fields

Rhs = Callable[[float, float], float]
Scalar = Callable[[float], float]
Columnar = Callable[[np.ndarray], np.ndarray]

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

    ``spec.x_end`` and ``y_start`` are each a float or a 1-D float64
    array, and they broadcast: every element is one lane, and a call with no
    array is a single lane, which computes in Python floats throughout.
    All lanes share x_start and the step count and advance in lockstep,
    lane j with its own step (x_end[j] - x_start) / steps. Each lane takes
    its steps through the same code as a scalar call for that lane alone,
    so the two agree bit for bit. With arrays, the
    right-hand side receives arrays (x is x_start itself in the first
    step, a row of abscissae after it) and must compute element-wise; it
    may return its input, so no array it is given is written in place.

    Global error is O((dx)^4) for smooth right-hand sides. The step width
    is positive, so a non-finite stage always leaves a non-finite state,
    and every later step keeps it non-finite. The first failure raises
    NumericalFailure naming the step and the x at which the step of the
    first failing lane began, rather than silently propagating inf/nan
    to the result.
    """
    h = (spec.x_end - spec.x_start) / spec.steps
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ndim(h) or np.ndim(y_start):
            y = _rk4_lanes(spec, h, y_start)
            if y is not None:
                return y
        return _rk4_run(spec, h, y_start)


# A lane call takes its steps a block at a time, a block holding at most
# this many abscissae per array (or one step's, past this many lanes), so
# its memory stays that of a few states however many steps it takes.
_BLOCK_ELEMENTS = 2**12


def _rk4_lanes(spec: IntegrationSpec, h: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """rk4_integrate on lanes, or None at the first block that ends
    non-finite or raises. A block's abscissae x_start + i*h come from one
    broadcast, the same values a step computes alone, and its states are
    tested once, at the block's end. Division by zero raises inside a
    block. On None, rk4_integrate runs the whole call again from step 0
    by _rk4_run, which names the failing step, warns as a lone step does,
    and raises again what the right-hand side raised."""
    f, x_start = spec.rhs, spec.x_start
    half, sixth = h / 2, h / 6
    block = max(1, _BLOCK_ELEMENTS // max(1, np.size(h)))
    for start in range(0, spec.steps, block):
        stop = min(start + block, spec.steps)
        at = x_start + np.multiply.outer(np.arange(start, stop), h)
        try:
            with np.errstate(divide="raise"):
                for i, x, x_half, x_full in zip(range(start, stop), at, at + half, at + h):
                    y = _rk4_step(f, h, sixth, x if i else x_start, x_half, x_full, y)
        except Exception:  # the run from step 0 raises it again, or fails before it
            return None
        if not _all_finite(y):
            return None
    return y


def _rk4_run(
    spec: IntegrationSpec, h: float | np.ndarray, y: float | np.ndarray
) -> float | np.ndarray:
    """Every step from state y by _rk4_step, each new state tested alone:
    the scalar route, and the lane route's rerun from step 0."""
    f, x_start = spec.rhs, spec.x_start
    half, sixth = h / 2, h / 6
    # math.isfinite costs a fraction of np.isfinite on a float
    all_finite = _all_finite if np.ndim(h) or np.ndim(y) else math.isfinite
    for i in range(spec.steps):
        # recompute x from the index so rounding does not drift the grid
        x = x_start + i * h if i else x_start
        y = _rk4_step(f, h, sixth, x, x + half, x + h, y)
        if not all_finite(y):
            raise NumericalFailure(
                f"non-finite RK4 state after step {i} at x={_failing_x(x, y)}"
            )
    return y


def _rk4_step(f: Rhs, h: Any, sixth: Any, x: Any, x_half: Any, x_full: Any, y: Any) -> Any:
    """One RK4 step from state y at x, with x_half = x + h/2, x_full =
    x + h and sixth = h/6: k1 = f(x, y), k2 = f(x_half, y + h*k1/2),
    k3 = f(x_half, y + h*k2/2), k4 = f(x_full, y + h*k3), and the new
    state y + sixth*(k1 + 2*k2 + 2*k3 + k4). Both routes step here, so a
    lane equals a scalar call for it bit for bit. On floats the in-place
    operators rebind; on arrays they skip an allocation and write only
    into arrays made here, never into one the right-hand side is given
    or returns (an element-wise right-hand side gives each k the shape
    of its stage, so each in-place result keeps its shape).
    """
    k1 = f(x, y)
    stage = h * k1
    stage *= 0.5
    stage += y
    k2 = f(x_half, stage)
    stage = h * k2
    stage *= 0.5
    stage += y
    k3 = f(x_half, stage)
    stage = h * k3
    stage += y
    k4 = f(x_full, stage)
    total = k2 + k2
    total += k1
    total += k3 + k3
    total += k4
    total *= sixth
    total += y
    return total


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


def grid_argmax(f: Columnar, grid: np.ndarray | list[float]) -> tuple[float, float]:
    """Brute-force maximizer of f over an ordered grid.

    f maps the 1-D grid array to an array of values of the same length,
    and is evaluated once, so it must compute element-wise. Ties break to
    the leftmost grid point under exact comparison (np.argmax returns the
    first maximum), so the result is deterministic for any strictly
    ordered input. A NaN value raises NumericalFailure rather than being
    skipped, and a value array of the wrong length raises DomainError.
    The maximizer and its value come back as Python floats.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise DomainError("grid_argmax needs a nonempty 1-D grid")
    values = np.asarray(f(xs), dtype=float)
    if values.shape != xs.shape:
        raise DomainError(
            f"grid_argmax needs one value per grid point, got shape {values.shape} "
            f"for {len(xs)} points"
        )
    nan = np.isnan(values)
    if nan.any():
        raise NumericalFailure(f"grid_argmax: f is NaN at x={xs[nan.argmax()].item()}")
    best = values.argmax()
    return xs[best].item(), values[best].item()

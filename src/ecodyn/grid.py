"""Parameter grids: evenly sampled axes and their row-major product.

The single-run subcommands sample their ``grid`` sections with
:class:`Axis`, and sweeps run over a :class:`ParamGrid`; neither needs a
model, so this module imports none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolation

# The most points an axis, and the most cells a grid, may have: 11 times
# the 300 x 300 benchmark region, so no run allocates per-cell columns past
# a few hundred MB (README, "Work bounds").
MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class Axis:
    """One swept parameter: an inclusive range sampled at evenly spaced points."""

    name: str
    lower: float
    upper: float
    points: int

    def __post_init__(self) -> None:
        if not self.name:
            raise InvariantViolation("axis name must be non-empty")
        if self.points < 1:
            raise InvariantViolation(f"axis needs at least 1 point, got {self.points}")
        if self.points > MAX_CELLS:
            raise InvariantViolation(
                f"axis {self.name!r} may have at most {MAX_CELLS} points, got {self.points}"
            )
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvariantViolation("axis bounds must be finite")
        if not math.isfinite(self.upper - self.lower):
            raise InvariantViolation(f"axis {self.name!r} spans past the float range")
        if self.points > 1 and not self.lower < self.upper:
            raise InvariantViolation(
                f"axis {self.name!r} needs lower < upper, got "
                f"[{self.lower}, {self.upper}]"
            )

    def grid(self) -> list[float]:
        # near the float range the last point's step product overflows; it is
        # set to upper, and no other point can overflow
        with np.errstate(over="ignore"):
            return np.linspace(self.lower, self.upper, self.points).tolist()


@dataclass(frozen=True)
class ParamGrid:
    """Cartesian product of one or more axes, row-major."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise InvariantViolation("a sweep needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise InvariantViolation(f"duplicate axis names: {names}")
        if self.cells > MAX_CELLS:
            raise InvariantViolation(f"a grid may have at most {MAX_CELLS} cells, got {self.cells}")

    @property
    def cells(self) -> int:
        n = 1
        for a in self.axes:
            n *= a.points
        return n

    @cached_property
    def indices(self) -> dict[str, np.ndarray]:
        """Per axis, the position in its grid of each cell's coordinate, row-major.

        Built once per grid and read-only, so a sweep's coordinate columns
        and the writers' coordinate text share the same arrays. Each holds
        the smallest unsigned integer type its axis needs."""
        indices = {}
        inner, outer = self.cells, 1
        for a in self.axes:
            inner //= a.points
            positions = np.arange(a.points, dtype=np.min_scalar_type(a.points - 1))
            index = np.tile(np.repeat(positions, inner), outer)
            index.flags.writeable = False
            indices[a.name] = index
            outer *= a.points
        return indices

    def columns(self) -> dict[str, np.ndarray]:
        """One coordinate column per axis, one entry per cell, row-major."""
        indices = self.indices.values()
        return {a.name: np.array(a.grid())[index] for a, index in zip(self.axes, indices)}

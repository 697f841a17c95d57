"""Parameter sweeps over the three models, on one or more axes.

A sweep takes a base parameter set, replaces one or more named parameters
with grid values, evaluates the model at every grid cell in row-major
order (last axis fastest), and collects the outputs into columns.
Cells where the model rejects the parameter combination, or where an
output overflows or is not finite, are kept in place but flagged, so
grids stay rectangular.

Each model binding evaluates whole numpy columns with the arithmetic
helpers and the checks of the scalar model functions, in their order, so
every clean cell equals the scalar call bit for bit and every flagged
cell's note is the text that call raises. No cell is evaluated alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Any, Callable, Mapping

import numpy as np

from . import budget_dynamics as bd
from . import value_feedback as vf
from . import wage_profit as wp
from .errors import NOT_FINITE_NOTE, OVERFLOW_NOTE, EcodynError, InvariantViolation, finite
from .schema import BOUND_NOTE, declared, factor_pairs, first_failing, number, read


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


@dataclass(frozen=True)
class SweepResult:
    """Sweep results as columns, one entry per cell in row-major order.

    ``outputs[name]`` is a float64 numpy column (bool for ``stable``),
    NaN (False) where the bool column ``flagged`` is set; ``notes[k]``
    says why cell k was rejected and is empty for clean cells. The cells'
    coordinates are the swept grid's ``columns()``.
    """

    outputs: dict[str, np.ndarray]
    flagged: np.ndarray
    notes: list[str]
    metadata: dict[str, Any]


Evaluated = tuple[dict[str, np.ndarray], np.ndarray]  # see ModelBinding.evaluate_columns


@dataclass(frozen=True)
class ModelBinding:
    """Hooks one model into the sweep engine.

    allowed_axes lists the parameter names a sweep may vary; required
    lists the numeric keys that must be present in the base parameters or
    as an axis; optional maps the other keys the model reads to the config
    reader that checks them (their type, and a budget mode's or horizon's
    value); outputs fixes the full column set a sweep can report.

    evaluate_columns(params, cells, outputs), the one evaluator, gets
    every axis as a numpy column in params and returns at least the
    requested output columns and one note per cell, "" for a clean cell;
    noted cells may hold anything, and a column may be missing if all are;
    the sweep fills both with NaN (False in a bool column).
    """

    model: str
    allowed_axes: tuple[str, ...]
    required: tuple[str, ...]
    optional: dict[str, Callable[[Mapping[str, Any], str], Any]]
    outputs: tuple[str, ...]
    evaluate_columns: Callable[[dict[str, Any], int, tuple[str, ...]], Evaluated]


class _Notes:
    """One note per cell, added check by check in the order the scalar
    model call makes them: a cell keeps the text of the first check it
    fails, and a clean cell keeps ""."""

    def __init__(self, cells: int) -> None:
        self.texts = np.full(cells, "", dtype=object)
        self.open = np.ones(cells, dtype=bool)

    def add(self, failed: Any, text: Any, value: Any = None) -> np.ndarray:
        """Note text on the open cells in failed (a mask, or True for all)
        and return the notes; with a value (a column, or one value for every
        cell) text is a function of one cell's value."""
        cells = np.flatnonzero(failed & self.open)
        if value is not None:
            text = list(map(text, np.broadcast_to(value, self.open.shape)[cells].tolist()))
        self.texts[cells] = text
        self.open[cells] = False
        return self.texts

    def fields(self, cls: type, given: list[Any]) -> list[np.ndarray]:
        """Note the first bounded field of cls outside its bound, quoting
        the values as given, and return the fields as float columns."""
        columns = _float_columns(given, self.open.size)
        first = first_failing(cls, columns)
        for index, (name, _, _, text) in enumerate(declared(cls)):
            self.add(first == index, partial(BOUND_NOTE.format, name, text), given[index])
        return columns

    def not_finite(self, name: str, column: np.ndarray) -> None:
        self.add(~np.isfinite(column), partial(NOT_FINITE_NOTE.format, name), column)


def _float_columns(values: list[Any], cells: int) -> list[np.ndarray]:
    """Parameter values as float columns; axes already are columns, and
    check_binding has let only numbers within the float range through."""
    return [v if isinstance(v, np.ndarray) else np.full(cells, float(v)) for v in values]


def _power(base: np.ndarray, exponent: Any, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """base**exponent per element with Python's float pow, and the mask of
    cells where pow raised OverflowError; skipped cells compute 1.0**exponent.

    numpy's vectorised power can differ from Python's in the last ulp,
    which would break bit equality with the scalar model functions.
    """
    bases = np.where(skip, 1.0, base).tolist()
    exponents = np.broadcast_to(exponent, base.shape).tolist()
    powers, overflow = np.ones(base.shape), np.zeros(base.shape, dtype=bool)
    for k, (b, e) in enumerate(zip(bases, exponents)):
        try:
            powers[k] = b**e
        except OverflowError:
            overflow[k] = True
    return powers, overflow


def cost_structure(params: Mapping[str, Any]) -> wp.CostStructure:
    """The wage model's cost structure from a parameter or config mapping."""
    return read(wp.CostStructure, params, other_factors=factor_pairs(params, "other_factors"))


def _wage_columns(params: dict[str, Any], cells: int, outputs: tuple[str, ...]) -> Evaluated:
    notes = _Notes(cells)
    wage = params["wage"]  # the model's only axis
    try:
        cs = cost_structure(params)
        notes.add(wage <= 0.0, wp._WAGE_NOTE.format, wage)
        margin = wp.gross_margin(cs)
    except EcodynError as exc:
        return {}, notes.add(True, str(exc))
    net_profit = wp._profit_ratio(margin, wage, cs.labor_weight)
    notes.not_finite("net_profit", net_profit)
    return {"net_profit": net_profit}, notes.texts


def _value_columns(params: dict[str, Any], cells: int, outputs: tuple[str, ...]) -> Evaluated:
    notes = _Notes(cells)
    exponent, x = _float_columns([params["exponent"], params["true_value"]], cells)
    singular = exponent == 1.0
    if "homog_coeff" not in params:  # with_default_coeff checks the exponent first
        notes.add(singular, vf._SINGULAR_NOTE)
    given = [params["exponent"], params.get("homog_coeff", vf._default_coeff(exponent))]
    _, coeff = notes.fields(vf.MarketValueSolution, given)
    notes.add(singular, vf._SINGULAR_NOTE)
    notes.add(x <= 0.0, vf._TRUE_VALUE_NOTE.format, params["true_value"])
    power, overflow = _power(x, exponent, ~notes.open)
    notes.add(overflow, OVERFLOW_NOTE.format("market_value"))
    market = vf._power_law(coeff, exponent, power, x)
    gap = market - x
    notes.not_finite("market_value", market)
    notes.not_finite("gap", gap)
    return {"market_value": market, "gap": gap}, notes.texts


BUDGET_PARAMS = tuple(field.name for field in fields(bd.BudgetParams))


def _budget_columns(params: dict[str, Any], cells: int, outputs: tuple[str, ...]) -> Evaluated:
    notes = _Notes(cells)
    operands = notes.fields(bd.BudgetParams, [params[name] for name in BUDGET_PARAMS])
    mode = params.get("mode", "direct")  # check_binding has read mode and horizon
    coeffs = bd._coefficients(*operands[:6])
    pole = coeffs.pole_in_mode(mode)
    notes.not_finite("pole", pole)
    columns = {"pole": pole, "stable": bd._is_stable(pole)}
    if "final_pool" not in outputs:
        return columns, notes.texts
    try:
        # closed_form overflows in every cell on a horizon past the float range
        years = finite("final_pool", lambda: float(params.get("horizon", 10)))
    except EcodynError as exc:
        return columns, notes.add(True, str(exc))
    power, overflow = _power(pole, years, ~notes.open)
    notes.add(overflow, OVERFLOW_NOTE.format("final_pool"))
    w0, flow = operands[6], coeffs.constant_flow
    level = bd._geometric_level(power, pole, w0, flow)
    final = np.where(pole == 1.0, bd._unit_pole_level(w0, years, flow), level)
    notes.not_finite("final_pool", final)
    return {**columns, "final_pool": final}, notes.texts


BINDINGS: dict[str, ModelBinding] = {
    "wage": ModelBinding(
        model="wage",
        allowed_axes=("wage",),
        required=("max_market_price", "labor_weight", "wage"),
        optional={"other_factors": factor_pairs},
        outputs=("net_profit",),
        evaluate_columns=_wage_columns,
    ),
    "value": ModelBinding(
        model="value",
        allowed_axes=("true_value", "exponent"),
        required=("exponent", "true_value"),
        optional={"homog_coeff": number},
        outputs=("market_value", "gap"),
        evaluate_columns=_value_columns,
    ),
    "budget": ModelBinding(
        model="budget",
        allowed_axes=BUDGET_PARAMS,
        required=BUDGET_PARAMS,
        optional={"horizon": bd.read_horizon, "mode": bd.read_mode},
        outputs=("pole", "stable", "final_pool"),
        evaluate_columns=_budget_columns,
    ),
}


def check_binding(
    binding: ModelBinding, base: Mapping[str, Any], grid: ParamGrid
) -> None:
    """Reject bad sweep setups before any cell is evaluated.

    Axes must be ones the model can sweep, every required parameter must
    be in base or on an axis, and base values must be what the single-run
    subcommands read: the type, and a budget mode's or horizon's value. Values
    are not converted, and other values out of range are left for the cells.
    """
    for axis in grid.axes:
        if axis.name not in binding.allowed_axes:
            raise InvariantViolation(
                f"model {binding.model!r} cannot sweep {axis.name!r}; "
                f"allowed axes: {binding.allowed_axes}"
            )
    axis_names = {a.name for a in grid.axes}
    missing = [k for k in binding.required if k not in base and k not in axis_names]
    if missing:
        raise InvariantViolation(
            f"model {binding.model!r} is missing parameters {missing}"
        )
    readers = {**dict.fromkeys(binding.required, number), **binding.optional}
    for key, read_value in readers.items():
        if key in base:
            read_value(base, key)


def sweep(
    binding: ModelBinding,
    base: dict[str, Any],
    grid: ParamGrid,
    outputs: tuple[str, ...] | None = None,
) -> SweepResult:
    """Evaluate the model over the whole grid.

    outputs picks a subset of the binding's outputs, all by default.
    Per-cell rejections become flagged cells, never exceptions.
    """
    check_binding(binding, base, grid)
    if outputs is None:
        outputs = binding.outputs
    unknown = [name for name in outputs if name not in binding.outputs]
    if unknown:
        raise InvariantViolation(
            f"model {binding.model!r} has no outputs {unknown}; "
            f"available: {binding.outputs}"
        )
    cells = grid.cells
    with np.errstate(all="ignore"):
        columns, notes = binding.evaluate_columns({**base, **grid.columns()}, cells, outputs)
    flagged = notes != ""
    values = {}
    for name in outputs:
        column = columns[name] if name in columns else np.full(cells, math.nan)
        values[name] = np.where(flagged, False if column.dtype == bool else math.nan, column)
    metadata = {
        "model": binding.model,
        "kind": "sweep",
        "axes": [
            {"name": a.name, "min": a.lower, "max": a.upper, "points": a.points}
            for a in grid.axes
        ],
        "cells": cells,
        "flagged": int(flagged.sum()),
    }
    return SweepResult(values, flagged, notes.tolist(), metadata)


def stability_region(
    base: dict[str, Any], grid: ParamGrid, mode: str = "direct"
) -> SweepResult:
    """Two-axis budget sweep reporting only the pole and the stable mask."""
    if len(grid.axes) != 2:
        raise InvariantViolation(
            f"a stability region needs exactly 2 axes, got {len(grid.axes)}"
        )
    result = sweep(BINDINGS["budget"], {**base, "mode": mode}, grid, ("pole", "stable"))
    result.metadata["kind"] = "stability_region"
    result.metadata["mode"] = mode
    return result

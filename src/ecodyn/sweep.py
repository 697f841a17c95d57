"""Parameter sweeps over the three models, on one or more axes.

A sweep takes a base parameter set, replaces one or more named parameters
with grid values, evaluates the model at every grid cell in row-major
order (last axis fastest), and collects the outputs into columns. The
cells are evaluated a block at a time, so only the kept columns grow with
the grid.
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
from dataclasses import fields
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from . import budget_dynamics as bd
from .errors import NOT_FINITE_NOTE, OVERFLOW_NOTE, EcodynError, InvariantViolation, finite
from .grid import Axis, ParamGrid  # Axis is re-exported with ParamGrid
from .schema import BOUND_NOTE, declared, factor_pairs, number, read_section


class SweepResult(NamedTuple):
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


Evaluated = tuple[dict[str, Any], "_Notes"]  # see ModelBinding.evaluate_columns


class ModelBinding(NamedTuple):
    """Hooks one model into the sweep engine.

    allowed_axes lists the parameter names a sweep may vary; required
    lists the numeric keys that must be present in the base parameters or
    as an axis; optional maps the other keys the model reads to the config
    reader that checks them (their type, and a budget mode's or horizon's
    value) and passes them when absent; outputs fixes the columns a sweep reports.

    evaluate_columns(params, cells), the one evaluator, gets a block of
    cells, each axis as a numpy column of their coordinates in params, and
    returns the outputs and its _Notes. An output may be one value or, if
    every cell is noted, missing; the sweep broadcasts it and puts NaN
    (False if bool) in noted cells, whatever they held. An output is bool
    in every block or in none.
    """

    model: str
    allowed_axes: tuple[str, ...]
    required: tuple[str, ...]
    optional: dict[str, Callable[[Mapping[str, Any], str], Any]]
    outputs: tuple[str, ...]
    evaluate_columns: Callable[[dict[str, Any], int], Evaluated]


class _Notes:
    """One note per cell, added check by check in the order the scalar
    model call makes them: a cell keeps the text of the first check it
    fails, and a clean cell keeps ""."""

    def __init__(self, cells: int) -> None:
        self.texts = np.full(cells, "", dtype=object)
        self.open = np.ones(cells, dtype=bool)

    def add(self, failed: Any, text: Any, value: Any = None) -> _Notes:
        """Note text on the open cells in failed (a mask, or True for all)
        and return self; with a value (a column, or one value for every
        cell) text is a function of one cell's value.

        text runs once per distinct value, found by its bits: 0.0 == -0.0,
        but repr tells them apart."""
        cells = np.flatnonzero(failed & self.open)
        if isinstance(value, np.ndarray):
            column = value[cells]
            distinct, where = np.unique(column.view(np.uint64), return_inverse=True)
            text = np.array(list(map(text, distinct.view(column.dtype).tolist())), dtype=object)[where]
        elif value is not None:
            text = text(value)
        self.texts[cells] = text
        self.open[cells] = False
        return self

    def fields(self, cls: type, given: list[Any]) -> list[Any]:
        """Note the first bounded field of cls outside its bound, quoting
        the values as given, and return the fields as _float_columns does."""
        columns = _float_columns(given)
        for (name, bound), column, value in zip(declared(cls), columns, given):
            self.add(~bound.admits(column), partial(BOUND_NOTE.format, name, bound.text), value)
        return columns

    def not_finite(self, name: str, column: Any) -> None:
        """Note where column is not finite, quoting numpy floats as Python floats."""
        self.add(~np.isfinite(column), lambda v: NOT_FINITE_NOTE.format(name, float(v)), column)


def _float_columns(values: list[Any]) -> list[Any]:
    """Axes as their columns and base values as numpy floats, which divide
    by zero as columns do; check_binding let only numbers in float range through."""
    return [v if isinstance(v, np.ndarray) else np.float64(v) for v in values]


def _pow(base: float, exponent: float) -> float:
    """Python's float pow, with inf where it raises OverflowError."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


# _pow as a ufunc: no Python-level loop, the same C pow per element
_POW = np.frompyfunc(_pow, 2, 1)


def _power(base: Any, exponent: Any, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """base**exponent per element with Python's float pow, and the mask of
    cells where pow overflowed, which hold inf; skipped cells compute
    1.0**exponent.

    numpy's vectorised power can differ from Python's in the last ulp,
    which would break bit equality with the scalar model functions. Every
    operand is finite (skipped cells get base 1.0, and axes, base values
    and a budget's years are finite), and pow of finite floats is inf only
    where it overflows, so inf marks exactly the cells that overflowed.
    """
    powers = _POW(np.where(skip, 1.0, base), exponent).astype(float)
    return powers, np.isinf(powers)


def _wage_columns(params: dict[str, Any], cells: int) -> Evaluated:
    from . import wage_profit as wp  # here, not at the top: a budget sweep loads no other model

    notes = _Notes(cells)
    wage = params["wage"]  # the model's only axis
    try:
        cs = wp.cost_structure(params)
        notes.add(wage <= 0.0, wp._WAGE_NOTE.format, wage)
        margin = wp.gross_margin(cs)
    except EcodynError as exc:
        return {}, notes.add(True, str(exc))
    net_profit = wp._profit_ratio(margin, wage, cs.labor_weight)
    notes.not_finite("net_profit", net_profit)
    return {"net_profit": net_profit}, notes


def _value_columns(params: dict[str, Any], cells: int) -> Evaluated:
    from . import value_feedback as vf

    notes = _Notes(cells)
    exponent, x = _float_columns([params["exponent"], params["true_value"]])
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
    return {"market_value": market, "gap": gap}, notes


BUDGET_PARAMS = tuple(field.name for field in fields(bd.BudgetParams))


def _budget_columns(params: dict[str, Any], cells: int, final_pool: bool = True) -> Evaluated:
    """The budget columns; without final_pool, those of a region: the pole
    and the stable mask."""
    notes = _Notes(cells)
    operands = notes.fields(bd.BudgetParams, [params[name] for name in BUDGET_PARAMS])
    mode = bd.read_mode(params)
    coeffs = bd._coefficients(*operands[:6])
    pole = coeffs.pole_in_mode(mode)
    notes.not_finite("pole", pole)
    columns = {"pole": pole, "stable": bd._is_stable(pole)}
    if not final_pool:
        return columns, notes
    horizon = bd.read_horizon(params)
    try:
        # closed_form overflows in every cell on a horizon past the float range
        years = finite("final_pool", lambda: float(horizon))
    except EcodynError as exc:
        return columns, notes.add(True, str(exc))
    power, overflow = _power(pole, years, ~notes.open)
    notes.add(overflow, OVERFLOW_NOTE.format("final_pool"))
    w0, flow = operands[6], coeffs.constant_flow
    level = bd._geometric_level(power, pole, w0, flow)
    final = np.where(pole == 1.0, bd._unit_pole_level(w0, years, flow), level)
    notes.not_finite("final_pool", final)
    return {**columns, "final_pool": final}, notes


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
        optional={"homog_coeff": partial(number, default=None)},
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

# what stability_region() runs: the budget model without a horizon
REGION = BINDINGS["budget"]._replace(
    optional={"mode": bd.read_mode},
    outputs=("pole", "stable"),
    evaluate_columns=partial(_budget_columns, final_pool=False),
)


def check_binding(
    binding: ModelBinding, base: Mapping[str, Any], grid: ParamGrid
) -> None:
    """Reject bad sweep setups before any cell is evaluated.

    Axes must be ones the model can sweep, base may hold only keys the
    model reads, base values must be what the single-run subcommands
    read (the type, and a budget mode's or horizon's value), and every
    required parameter must be in base or on an axis. Values are not
    converted, and other values out of range are left for the cells.
    """
    for axis in grid.axes:
        if axis.name not in binding.allowed_axes:
            raise InvariantViolation(
                f"model {binding.model!r} cannot sweep {axis.name!r}; "
                f"allowed axes: {binding.allowed_axes}"
            )
    required = dict.fromkeys(binding.required, partial(number, default=None))
    read_section(base, f"model {binding.model!r}", {**required, **binding.optional})
    axis_names = {a.name for a in grid.axes}
    missing = [k for k in binding.required if k not in base and k not in axis_names]
    if missing:
        raise InvariantViolation(
            f"model {binding.model!r} is missing parameters {missing}"
        )


# A sweep evaluates this many cells at a time: the evaluator's columns stay
# a few hundred KB whatever the grid's size (README, "Work bounds").
_BLOCK_CELLS = 8192


def sweep(binding: ModelBinding, base: dict[str, Any], grid: ParamGrid) -> SweepResult:
    """Evaluate the model over the whole grid into the binding's outputs.

    Per-cell rejections become flagged cells, never exceptions. Each block
    of _BLOCK_CELLS cells gathers its coordinates from the grid's indices
    and is one evaluate_columns call; every step is per cell, so a cell's
    values and note do not depend on its block.
    """
    check_binding(binding, base, grid)
    cells = grid.cells
    points = {a.name: np.array(a.grid()) for a in grid.axes}
    flagged = np.empty(cells, dtype=bool)
    values: dict[str, np.ndarray] = {}
    notes: list[str] = []
    for start in range(0, cells, _BLOCK_CELLS):
        block = slice(start, min(start + _BLOCK_CELLS, cells))
        coordinates = {name: points[name][index[block]] for name, index in grid.indices.items()}
        with np.errstate(all="ignore"):
            columns, block_notes = binding.evaluate_columns(
                {**base, **coordinates}, block.stop - block.start
            )
        noted = ~block_notes.open
        flagged[block] = noted
        notes += block_notes.texts.tolist()
        for name in binding.outputs:
            column = np.asarray(columns.get(name, math.nan))
            is_bool = column.dtype == bool
            if name not in values:
                values[name] = np.empty(cells, dtype=bool if is_bool else float)
            elif is_bool != (values[name].dtype == bool):
                raise TypeError(f"output {name!r} is bool in some blocks of {binding.model!r} only")
            target = values[name][block]
            target[...] = column
            target[noted] = False if is_bool else math.nan
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
    return SweepResult(values, flagged, notes, metadata)


def stability_region(base: dict[str, Any], grid: ParamGrid) -> SweepResult:
    """Two-axis REGION sweep: the pole and the stable mask in base's mode
    (direct when absent) as any budget sweep; the metadata records the mode."""
    if len(grid.axes) != 2:
        raise InvariantViolation(
            f"a stability region needs exactly 2 axes, got {len(grid.axes)}"
        )
    result = sweep(REGION, base, grid)
    result.metadata["kind"] = "stability_region"
    result.metadata["mode"] = bd.read_mode(base)
    return result

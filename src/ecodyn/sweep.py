"""Parameter sweeps over the three models, on one or two axes.

A sweep takes a base parameter set, replaces one or two named parameters
with grid values, evaluates the model at every grid cell in row-major
order (last axis fastest), and collects the outputs into columns.
Cells where the model rejects the parameter combination, or where an
output overflows or is not finite, are kept in place but flagged, so
grids stay rectangular.

Each model binding evaluates whole numpy columns through the same
arithmetic helpers as the scalar model functions, so every clean cell
equals the scalar call bit for bit. Only the cells the columns cannot
vouch for are evaluated again one at a time by the scalar model code,
which either clears them or raises the exact rejection note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

import numpy as np

from . import budget_dynamics as bd
from . import value_feedback as vf
from . import wage_profit as wp
from .errors import EcodynError, InvariantViolation, finite
from .schema import admitted, factor_pairs, integer, number, read


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

    def columns(self) -> dict[str, np.ndarray]:
        """One coordinate column per axis, one entry per cell, row-major."""
        columns = {}
        inner, outer = self.cells, 1
        for a in self.axes:
            inner //= a.points
            columns[a.name] = np.tile(np.repeat(a.grid(), inner), outer)
            outer *= a.points
        return columns


@dataclass(frozen=True)
class SweepResult:
    """Sweep results as columns, one entry per cell in row-major order.

    ``outputs[name][k]`` is None where ``flagged[k]``; ``notes[k]`` says
    why the cell was rejected and is empty for clean cells.
    """

    coords: dict[str, list[float]]
    outputs: dict[str, list[Any]]
    flagged: list[bool]
    notes: list[str]
    metadata: dict[str, Any]


# Output columns of a binding, plus the mask of cells the columns cannot
# vouch for; masked entries may hold anything.
EvaluatedColumns = tuple[dict[str, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelBinding:
    """Hooks one model into the sweep engine.

    allowed_axes lists the parameter names a sweep may vary; required
    lists the numeric keys that must be present in the base parameters or
    as an axis; optional maps the other keys the model reads to the config
    reader that checks their type; outputs fixes the full column set a
    sweep can report.

    evaluate_columns(params, cells, outputs) gets every axis as a numpy
    column in params and returns at least the requested output columns,
    plus a mask of cells to evaluate again one at a time. evaluate(params,
    outputs) is that scalar evaluation of one cell: it returns at least
    the requested outputs or raises the model's rejection.
    """

    model: str
    allowed_axes: tuple[str, ...]
    required: tuple[str, ...]
    optional: dict[str, Callable[[Mapping[str, Any], str], Any]]
    outputs: tuple[str, ...]
    evaluate: Callable[[dict[str, Any], tuple[str, ...]], dict[str, Any]]
    evaluate_columns: Callable[[dict[str, Any], int, tuple[str, ...]], EvaluatedColumns]


def _float_columns(values: list[Any], cells: int) -> list[np.ndarray]:
    """Parameter values as float columns; axes already are columns, and
    check_binding has let only numbers within the float range through."""
    return [v if isinstance(v, np.ndarray) else np.full(cells, float(v)) for v in values]


def _unevaluated(cells: int, outputs: tuple[str, ...]) -> EvaluatedColumns:
    """Send every cell down the scalar path."""
    return {name: np.zeros(cells) for name in outputs}, np.ones(cells, dtype=bool)


def _power(base: np.ndarray, exponent: Any, skip: np.ndarray) -> np.ndarray:
    """base**exponent per element, with Python's float pow.

    numpy's vectorised power can differ from Python's in the last ulp,
    which would break bit equality with the scalar model functions.
    Skipped cells compute 1.0**exponent instead; an overflowing cell
    becomes inf, for the caller's finiteness mask to catch.
    """
    bases = np.where(skip, 1.0, base).tolist()
    exponents = np.broadcast_to(exponent, base.shape).tolist()
    try:
        return np.array(list(map(pow, bases, exponents)))
    except OverflowError:
        return np.array([_pow_or_inf(b, e) for b, e in zip(bases, exponents)])


def _pow_or_inf(base: float, exponent: float) -> float:
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def cost_structure(params: Mapping[str, Any]) -> wp.CostStructure:
    """The wage model's cost structure from a parameter or config mapping."""
    return read(wp.CostStructure, params, other_factors=factor_pairs(params, "other_factors"))


def _eval_wage(params: dict[str, Any], outputs: tuple[str, ...]) -> dict[str, Any]:
    cs = cost_structure(params)
    return {"net_profit": finite("net_profit", lambda: wp.net_profit(cs, params["wage"]))}


def _wage_columns(
    params: dict[str, Any], cells: int, outputs: tuple[str, ...]
) -> EvaluatedColumns:
    try:
        cs = cost_structure(params)
        margin = wp.gross_margin(cs)
    except EcodynError:
        return _unevaluated(cells, outputs)
    margin, wage, labor_weight = _float_columns([margin, params["wage"], cs.labor_weight], cells)
    net_profit = wp._profit_ratio(margin, wage, labor_weight)
    redo = ~(wage > 0) | ~np.isfinite(net_profit)
    return {"net_profit": net_profit}, redo


def _eval_value(params: dict[str, Any], outputs: tuple[str, ...]) -> dict[str, Any]:
    sol = vf._solution(params["exponent"], params.get("homog_coeff"))
    x = params["true_value"]
    market = finite("market_value", lambda: vf.analytic_market_value(sol, x))
    return {"market_value": market, "gap": finite("gap", lambda: market - x)}


def _value_columns(
    params: dict[str, Any], cells: int, outputs: tuple[str, ...]
) -> EvaluatedColumns:
    names = ("exponent", "true_value", "homog_coeff")
    operands = _float_columns([params[n] for n in names if n in params], cells)
    exponent, x = operands[:2]
    coeff = operands[2] if len(operands) == 3 else vf._default_coeff(exponent)
    redo = (exponent == 1.0) | ~(x > 0.0)
    market = vf._power_law(coeff, exponent, _power(x, exponent, redo), x)
    gap = market - x
    redo |= ~np.isfinite(market) | ~np.isfinite(gap)
    return {"market_value": market, "gap": gap}, redo


BUDGET_PARAMS = tuple(field.name for field in fields(bd.BudgetParams))


def _horizon(params: dict[str, Any]) -> int:
    return params.get("horizon", 10)


def _eval_budget(params: dict[str, Any], outputs: tuple[str, ...]) -> dict[str, Any]:
    mode = params.get("mode", "direct")
    horizon = _horizon(params) if "final_pool" in outputs else None
    budget = bd.BudgetParams(**{name: params[name] for name in BUDGET_PARAMS})
    report = bd.stability_report(budget, mode)
    values = {"pole": finite("pole", lambda: report.pole), "stable": report.stable}
    if horizon is not None:
        values["final_pool"] = finite(
            "final_pool", lambda: bd.closed_form(budget, horizon, mode)
        )
    return values


def _budget_columns(
    params: dict[str, Any], cells: int, outputs: tuple[str, ...]
) -> EvaluatedColumns:
    mode = params.get("mode", "direct")
    if mode not in bd.MODES:
        return _unevaluated(cells, outputs)
    operands = _float_columns([params[name] for name in BUDGET_PARAMS], cells)
    t, s, p, i, f, g, w0 = operands
    coeffs = bd._coefficients(t, s, p, i, f, g)
    pole = coeffs.pole_in_mode(mode)
    # cells BudgetParams would reject, or whose pole is not finite
    redo = ~(np.isfinite(pole) & admitted(bd.BudgetParams, operands))
    values = {"pole": pole, "stable": bd._is_stable(pole)}
    if "final_pool" in outputs:
        horizon = _horizon(params)
        if horizon < 0:
            return _unevaluated(cells, outputs)
        power = _power(pole, horizon, redo)
        final = bd._geometric_level(power, pole, w0, coeffs.constant_flow)
        # this is never finite at a pole of exactly 1, so those cells take
        # the scalar closed form's limit branch
        redo |= ~np.isfinite(final)
        values["final_pool"] = final
    return values, redo


BINDINGS: dict[str, ModelBinding] = {
    "wage": ModelBinding(
        model="wage",
        allowed_axes=("wage",),
        required=("max_market_price", "labor_weight", "wage"),
        optional={"other_factors": factor_pairs},
        outputs=("net_profit",),
        evaluate=_eval_wage,
        evaluate_columns=_wage_columns,
    ),
    "value": ModelBinding(
        model="value",
        allowed_axes=("true_value", "exponent"),
        required=("exponent", "true_value"),
        optional={"homog_coeff": number},
        outputs=("market_value", "gap"),
        evaluate=_eval_value,
        evaluate_columns=_value_columns,
    ),
    "budget": ModelBinding(
        model="budget",
        allowed_axes=BUDGET_PARAMS,
        required=BUDGET_PARAMS,
        optional={"horizon": integer},
        outputs=("pole", "stable", "final_pool"),
        evaluate=_eval_budget,
        evaluate_columns=_budget_columns,
    ),
}


def check_binding(
    binding: ModelBinding, base: Mapping[str, Any], grid: ParamGrid
) -> None:
    """Reject bad sweep setups before any cell is evaluated.

    Axes must be ones the model can sweep, every required parameter must
    be in base or on an axis, and base values must have the type the
    single-run subcommands read. Values are not converted, and values out
    of range are left for the cells to flag.
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
    coord_columns = grid.columns()
    with np.errstate(all="ignore"):
        columns, redo = binding.evaluate_columns({**base, **coord_columns}, cells, outputs)
    coords = {name: col.tolist() for name, col in coord_columns.items()}
    values = {name: columns[name].tolist() for name in outputs}
    flagged = [False] * cells
    notes = [""] * cells
    for k in np.flatnonzero(redo).tolist():
        cell = {name: col[k] for name, col in coords.items()}
        try:
            cell_values = binding.evaluate({**base, **cell}, outputs)
        except EcodynError as exc:
            flagged[k] = True
            notes[k] = str(exc)
            cell_values = dict.fromkeys(outputs)
        for name in outputs:
            values[name][k] = cell_values[name]

    metadata = {
        "model": binding.model,
        "kind": "sweep",
        "axes": [
            {"name": a.name, "min": a.lower, "max": a.upper, "points": a.points}
            for a in grid.axes
        ],
        "cells": cells,
        "flagged": sum(flagged),
    }
    return SweepResult(coords, values, flagged, notes, metadata)


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

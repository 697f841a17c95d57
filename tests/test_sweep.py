import math
import re
import sys
import tracemalloc
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from ecodyn import budget_dynamics as bd
from ecodyn.budget_dynamics import BudgetParams, closed_form, stability_report
from ecodyn.errors import EcodynError, InvariantViolation, NumericalFailure, finite
from ecodyn.schema import FINITE, NONNEG, POSITIVE, UNIT, read
from ecodyn.sweep import (
    BINDINGS,
    BUDGET_PARAMS,
    REGION,
    Axis,
    ParamGrid,
    _Notes,
    _power,
    check_binding,
    stability_region,
    sweep,
)
from ecodyn.value_feedback import MarketValueSolution, analytic_market_value
from ecodyn.wage_profit import CostStructure, net_profit

BUDGET_BASE = {
    "tax_rate": 0.3,
    "spending_split": 0.5,
    "private_fraction": 0.7,
    "invest_share": 0.1,
    "foreign_multiplier": 0.2,
    "gov_spending": 100.0,
    "initial_wages": 1000.0,
}


def test_axis_grid_hits_endpoints():
    grid = Axis("wage", 1.0, 10.0, 10).grid()
    assert grid[0] == 1.0
    assert grid[-1] == 10.0
    assert len(grid) == 10
    assert Axis("wage", 2.0, 2.0, 1).grid() == [2.0]
    # up to the largest double: linspace's last step overflows before it
    # sets the last point to max, and the suite fails on the overflow warning
    top = Axis("wage", 1.0, np.finfo(float).max, 10).grid()
    assert top[-1] == np.finfo(float).max and all(map(math.isfinite, top))


def test_axis_validation():
    with pytest.raises(InvariantViolation):
        Axis("", 0.0, 1.0, 5)
    with pytest.raises(InvariantViolation):
        Axis("x", 0.0, 1.0, 0)
    with pytest.raises(InvariantViolation):
        Axis("x", 1.0, 0.0, 5)
    with pytest.raises(InvariantViolation):
        Axis("x", 0.0, float("inf"), 5)
    with pytest.raises(InvariantViolation, match="spans past the float range"):
        Axis("x", -1.7e308, 1.7e308, 3)


def test_grid_is_row_major():
    grid = ParamGrid((Axis("a", 0.0, 1.0, 2), Axis("b", 0.0, 2.0, 3)))
    assert grid.cells == 6
    columns = grid.columns()
    assert list(columns) == ["a", "b"]
    assert columns["a"].tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert columns["b"].tolist() == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]
    indices = grid.indices
    assert list(indices) == ["a", "b"]
    assert indices["a"].tolist() == [0, 0, 0, 1, 1, 1]
    assert indices["b"].tolist() == [0, 1, 2, 0, 1, 2]


def test_grid_validation():
    with pytest.raises(InvariantViolation):
        ParamGrid(())
    with pytest.raises(InvariantViolation):
        ParamGrid((Axis("a", 0.0, 1.0, 2), Axis("a", 0.0, 1.0, 2)))


def test_wage_sweep_values():
    base = {"max_market_price": 10.0, "labor_weight": 0.5, "other_factors": [[0.5, 4.0]]}
    grid = ParamGrid((Axis("wage", 1.0, 4.0, 4),))
    result = sweep(BINDINGS["wage"], base, grid)
    assert {name: column.tolist() for name, column in grid.columns().items()} == {
        "wage": [1.0, 2.0, 3.0, 4.0]
    }
    assert result.outputs["net_profit"][0] == 7.5
    assert result.outputs["net_profit"][1] == 3.5
    assert not any(result.flagged)
    # no wall-clock or scheduling fields: the same sweep gives the same metadata
    assert result.metadata == {
        "model": "wage",
        "kind": "sweep",
        "axes": [{"name": "wage", "min": 1.0, "max": 4.0, "points": 4}],
        "cells": 4,
        "flagged": 0,
    }


def test_wage_sweep_is_strictly_decreasing():
    base = {"max_market_price": 10.0, "labor_weight": 1.0}
    grid = ParamGrid((Axis("wage", 1.0, 10.0, 10),))
    result = sweep(BINDINGS["wage"], base, grid)
    profits = result.outputs["net_profit"]
    assert all(a > b for a, b in zip(profits, profits[1:]))
    assert profits[0] == 9.0  # 10/1 - 1
    assert profits[-1] == 0.0  # 10/10 - 1


def test_budget_pole_is_affine_in_tax_rate():
    grid = ParamGrid((Axis("tax_rate", 0.0, 1.0, 11),))
    result = sweep(BINDINGS["budget"], BUDGET_BASE, grid)
    poles = result.outputs["pole"]
    # pole(t) = t*(1 + leverage) - leverage with leverage 0.03 here
    assert poles[0] == pytest.approx(-0.03, abs=1e-12)
    assert poles[5] == pytest.approx(0.485, abs=1e-12)
    assert poles[-1] == 1.0
    assert all(a < b for a, b in zip(poles, poles[1:]))


def test_single_point_sweep_equals_direct_call():
    from ecodyn.budget_dynamics import BudgetParams, coefficients

    grid = ParamGrid((Axis("tax_rate", 0.3, 0.3, 1),))
    result = sweep(BINDINGS["budget"], BUDGET_BASE, grid)
    assert len(result.flagged) == 1
    direct = coefficients(BudgetParams(**BUDGET_BASE))
    assert result.outputs["pole"][0] == direct.pole


def test_value_sweep_flags_singular_cell():
    grid = ParamGrid((Axis("exponent", 0.0, 2.0, 3),))
    result = sweep(BINDINGS["value"], {"true_value": 2.0}, grid)
    assert result.flagged.tolist() == [False, True, False]
    assert all(math.isnan(column[1]) for column in result.outputs.values())
    assert result.notes[1] != ""
    assert result.metadata["flagged"] == 1


def test_budget_sweep_flags_invalid_params():
    grid = ParamGrid((Axis("invest_share", -0.5, 0.5, 3),))
    result = sweep(BINDINGS["budget"], BUDGET_BASE, grid)
    assert result.flagged.tolist() == [True, False, False]
    assert result.outputs["pole"][1] == pytest.approx(0.195, abs=1e-12)
    # the columns keep their types: a flagged cell's floats are NaN and
    # its stable flag is False
    assert {name: column.dtype for name, column in result.outputs.items()} == {
        "pole": np.float64,
        "stable": bool,
        "final_pool": np.float64,
    }
    pole, stable, final_pool = (column.tolist() for column in result.outputs.values())
    assert math.isnan(pole[0]) and math.isnan(final_pool[0]) and stable[0] is False
    assert stable[1:] == [True, True] and all(map(math.isfinite, pole[1:] + final_pool[1:]))


def test_binding_rejects_unknown_axis():
    grid = ParamGrid((Axis("margin", 1.0, 2.0, 2),))
    with pytest.raises(InvariantViolation):
        check_binding(BINDINGS["wage"], {"max_market_price": 10.0, "labor_weight": 1.0}, grid)


def test_binding_reports_missing_params():
    grid = ParamGrid((Axis("wage", 1.0, 2.0, 2),))
    with pytest.raises(InvariantViolation) as err:
        sweep(BINDINGS["wage"], {"labor_weight": 1.0}, grid)
    assert "max_market_price" in str(err.value)


def test_sweep_type_checks_its_base():
    # mistyped base values are rejected before any cell runs, as in the CLI;
    # out-of-range values of the right type stay flagged cells
    grid = ParamGrid((Axis("tax_rate", 0.0, 1.0, 3),))
    for value in ("high", True):
        base = {**BUDGET_BASE, "private_fraction": value}
        with pytest.raises(InvariantViolation, match="'private_fraction' must be a number"):
            sweep(BINDINGS["budget"], base, grid)
    grid = ParamGrid((*grid.axes, Axis("invest_share", 0.0, 1.0, 2)))
    with pytest.raises(InvariantViolation, match="must be a number"):
        stability_region({**BUDGET_BASE, "gov_spending": "100"}, grid)
    result = sweep(BINDINGS["budget"], {**BUDGET_BASE, "private_fraction": 2.0}, grid)
    assert all(result.flagged)


def test_stability_region():
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, 3), Axis("invest_share", 0.0, 2.0, 3))
    )
    result = stability_region(BUDGET_BASE, grid)
    assert result.metadata["kind"] == "stability_region"
    assert result.metadata["mode"] == "direct"
    pole, stable = result.outputs["pole"].tolist(), result.outputs["stable"].tolist()
    # tax_rate 0, invest_share 0: only the private loop drains the pool
    assert pole[0] == pytest.approx(-0.15, abs=1e-12)
    assert stable[0] is True
    assert {name: column[-1] for name, column in grid.columns().items()} == {
        "tax_rate": 1.0,
        "invest_share": 2.0,
    }
    # full taxation pins the pole exactly onto the unit circle: marginal,
    # which the stable mask counts as inside
    assert pole[-1] == 1.0
    assert stable[-1] is True
    # heavy investment with no taxation pushes the pole above 1
    assert {name: column[2] for name, column in grid.columns().items()} == {
        "tax_rate": 0.0,
        "invest_share": 2.0,
    }
    assert pole[2] == pytest.approx(2.25, abs=1e-12)
    assert stable[2] is False
    assert set(result.outputs) == {"pole", "stable"}


def test_stability_region_reads_the_mode_from_its_base():
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, 3), Axis("invest_share", 0.0, 2.0, 3))
    )
    direct = stability_region(BUDGET_BASE, grid)
    result = stability_region({**BUDGET_BASE, "mode": "incremental"}, grid)
    assert result.metadata["mode"] == "incremental"
    pole = result.outputs["pole"].tolist()
    assert pole == (1.0 + direct.outputs["pole"]).tolist()
    # the direct poles -0.15, 1.0 and 2.25 of test_stability_region, shifted by one
    assert pole[0] == pytest.approx(0.85, abs=1e-12)
    assert pole[-1] == 2.0
    assert result.outputs["stable"].tolist()[:2] == [True, False]


def test_a_region_result_retains_no_coordinates():
    # the cells' coordinates stay in the grid; the result keeps two numpy
    # output columns, the flags and the notes, about 2 MB for 90,000 cells
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, 300), Axis("invest_share", 0.0, 2.0, 300))
    )
    tracemalloc.start()
    try:
        result = stability_region(BUDGET_BASE, grid)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.flagged) == 90_000
    assert retained < 3_000_000


# sweeps with noted cells on both sides of a boundary of 7-cell blocks:
# their notes quote the cell's value, and the last one overflows in some cells
BLOCKED_SWEEPS = {
    "wage": (
        partial(sweep, BINDINGS["wage"], {"max_market_price": 10.0, "labor_weight": 1.0}),
        ParamGrid((Axis("wage", -2.0, 4.0, 31),)),
    ),
    "value": (
        partial(sweep, BINDINGS["value"], {}),
        ParamGrid((Axis("exponent", -1.0, 3.0, 9), Axis("true_value", -1.0, 2.0, 8))),
    ),
    "budget": (
        partial(sweep, BINDINGS["budget"], {**BUDGET_BASE, "horizon": 25}),
        ParamGrid((Axis("spending_split", 0.5, 1.5, 11), Axis("tax_rate", 0.0, 1.0, 11))),
    ),
    "region": (
        partial(stability_region, BUDGET_BASE),
        ParamGrid((Axis("spending_split", 0.5, 1.5, 11), Axis("tax_rate", 0.0, 1.0, 11))),
    ),
    "overflow": (
        partial(sweep, BINDINGS["budget"], {**BUDGET_BASE, "mode": "incremental", "horizon": 1000}),
        ParamGrid((Axis("invest_share", 0.0, 50.0, 11), Axis("tax_rate", 0.0, 1.0, 3))),
    ),
}


@pytest.mark.parametrize("name", BLOCKED_SWEEPS)
def test_a_blocked_sweep_equals_a_one_block_sweep_bit_for_bit(monkeypatch, name):
    run, grid = BLOCKED_SWEEPS[name]
    blocks = []  # every evaluator call makes one _Notes for its block
    notes_of = _Notes.__init__
    monkeypatch.setattr(_Notes, "__init__", lambda notes, cells: notes_of(notes, cells) or blocks.append(cells))
    monkeypatch.setattr("ecodyn.sweep._BLOCK_CELLS", grid.cells)
    whole = run(grid)
    assert blocks == [grid.cells]
    blocks.clear()
    monkeypatch.setattr("ecodyn.sweep._BLOCK_CELLS", 7)  # divides no axis
    blocked = run(grid)
    assert blocks == [7] * (grid.cells // 7) + [grid.cells % 7]
    assert blocked.notes == whole.notes and blocked.metadata == whole.metadata
    assert np.array_equal(blocked.flagged, whole.flagged)
    assert list(blocked.outputs) == list(whole.outputs)
    for column, reference in zip(blocked.outputs.values(), whole.outputs.values()):
        assert column.dtype == reference.dtype and column.tobytes() == reference.tobytes()
    notes = blocked.notes
    assert 0 < blocked.metadata["flagged"] < grid.cells
    # noted cells meet at block boundaries, with two different notes, or
    # with the overflow note
    met = [k for k in range(7, grid.cells, 7) if notes[k - 1] and notes[k]]
    if name == "overflow":
        assert met and notes[met[0]] == "final_pool overflows the float range"
    else:
        assert any(notes[k - 1] != notes[k] for k in met)


@pytest.mark.parametrize("bool_first", [True, False], ids=["bool-first", "float-first"])
def test_an_output_is_bool_in_every_block_or_in_none(monkeypatch, bool_first):
    # an evaluator that leaves stable out of a block whose every cell it
    # notes gives a float NaN there; the sweep never writes one kind of
    # column into the other
    def evaluate(params, cells):
        notes = _Notes(cells)
        split = params["spending_split"]
        if (split[0] < 1.0) == bool_first:
            return {"pole": split, "stable": split < 1.0}, notes
        return {"pole": split}, notes.add(True, "left out")

    binding = REGION._replace(evaluate_columns=evaluate)
    grid = ParamGrid((Axis("spending_split", 0.0, 1.5, 4),))
    monkeypatch.setattr("ecodyn.sweep._BLOCK_CELLS", 2)
    with pytest.raises(TypeError, match="output 'stable' is bool in some blocks of 'budget' only"):
        sweep(binding, BUDGET_BASE, grid)


def test_stability_region_reads_no_horizon():
    # a region never runs the recurrence forward, so a horizon in its base
    # is an unread key, as a misspelt one is, and not a value it checks
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, 3), Axis("invest_share", 0.0, 2.0, 3))
    )
    for horizon in (50, -5):
        with pytest.raises(InvariantViolation, match=r"does not read \['horizon'\]"):
            stability_region({**BUDGET_BASE, "horizon": horizon}, grid)


def test_stability_region_needs_two_axes():
    with pytest.raises(InvariantViolation):
        stability_region(BUDGET_BASE, ParamGrid((Axis("tax_rate", 0.0, 1.0, 3),)))


def test_example_base_region_is_fully_stable():
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, 21), Axis("private_fraction", 0.0, 1.0, 21))
    )
    result = stability_region(BUDGET_BASE, grid)
    assert len(result.flagged) == 441
    assert all(result.outputs["stable"])
    assert all(abs(pole) <= 1.0 for pole in result.outputs["pole"])


def test_untaxed_investment_destabilizes_upward():
    # with no tax take the pole equals invest_share*(1+multiplier) minus
    # the private recirculation, so it leaves the unit circle through +1,
    # never through -1
    base = {**BUDGET_BASE, "tax_rate": 0.0}
    grid = ParamGrid((Axis("invest_share", 0.0, 5.0, 11),))
    result = sweep(BINDINGS["budget"], base, grid)
    poles = result.outputs["pole"]
    flags = result.outputs["stable"]
    threshold = 1.15 / 1.2  # pole(share) = 1.2*share - 0.15 crosses 1 here
    for share, pole, stable in zip(grid.columns()["invest_share"].tolist(), poles, flags):
        assert pole == pytest.approx(1.2 * share - 0.15, abs=1e-12)
        assert stable == (share <= threshold)
    assert min(poles) > -1.0
    assert not all(flags) and any(flags)


def _stable_flag_flips(base, points=41):
    grid = ParamGrid(
        (Axis("tax_rate", 0.0, 1.0, points), Axis("private_fraction", 0.7, 0.7, 1))
    )
    result = stability_region(base, grid)
    flags = result.outputs["stable"]
    ts = grid.columns()["tax_rate"].tolist()
    return [
        (ts[i], ts[i + 1]) for i in range(len(flags) - 1) if flags[i] != flags[i + 1]
    ]


def test_stability_boundary_sits_at_the_analytic_bound():
    # the pole is affine in the tax rate and equals 1 exactly at t=1, so
    # any flip of the stable mask along the t-axis must bracket either
    # t=1 or the lower analytic bound (leverage-1)/(1+leverage)
    from ecodyn.budget_dynamics import BudgetParams, tax_leverage

    for overrides in ({}, {"invest_share": 2.0}, {"invest_share": 2.0, "foreign_multiplier": 2.0}):
        base = {**BUDGET_BASE, **overrides}
        lev = tax_leverage(BudgetParams(**base))
        bounds = [1.0]
        if 1.0 + lev > 0:
            bounds.append((lev - 1.0) / (1.0 + lev))
        for lo, hi in _stable_flag_flips(base):
            assert any(lo - 1e-12 <= b <= hi + 1e-12 for b in bounds)


# -- columnar engine against the scalar model calls -------------------------
#
# The reference evaluates one cell at a time through the public model
# functions, with errors.finite around each output as the sweep documents.
# Clean cells must match it exactly (== and repr, so types and signed zeros
# count too), and a flagged cell's note must be the text of the exception
# the reference raises there.


def _budget_reference(params, outputs):
    mode = params.get("mode", "direct")
    budget = BudgetParams(**{f.name: params[f.name] for f in fields(BudgetParams)})
    report = stability_report(budget, mode)
    values = {"pole": finite("pole", lambda: report.pole), "stable": report.stable}
    if "final_pool" in outputs:
        horizon = params.get("horizon", 10)
        values["final_pool"] = finite("final_pool", lambda: closed_form(budget, horizon, mode))
    return values


def _value_reference(params, outputs):
    if "homog_coeff" in params:
        sol = MarketValueSolution(params["exponent"], params["homog_coeff"])
    else:
        sol = MarketValueSolution.with_default_coeff(params["exponent"])
    x = params["true_value"]
    market = finite("market_value", lambda: analytic_market_value(sol, x))
    return {"market_value": market, "gap": finite("gap", lambda: market - x)}


def _wage_reference(params, outputs):
    cs = CostStructure(
        params["max_market_price"],
        params["labor_weight"],
        tuple(tuple(pair) for pair in params.get("other_factors", ())),
    )
    return {"net_profit": finite("net_profit", lambda: net_profit(cs, params["wage"]))}


REFERENCES = {"budget": _budget_reference, "value": _value_reference, "wage": _wage_reference}


def assert_matches_scalar(model, base, grid, binding=None):
    """Check every cell of a sweep through binding, the model's own by
    default, against the reference; return the kinds of cell seen.

    A clean cell is "pole 1" when its final_pool comes from closed_form's
    limit branch, and a flagged cell is "non-finite" when the reference
    raises NumericalFailure there.
    """
    binding = binding or BINDINGS[model]
    result = sweep(binding, base, grid)
    outputs = binding.outputs
    columns = {name: column.tolist() for name, column in grid.columns().items()}
    results = {name: column.tolist() for name, column in result.outputs.items()}
    kinds = set()
    for k, (flagged, note) in enumerate(zip(result.flagged.tolist(), result.notes)):
        coords = {name: column[k] for name, column in columns.items()}
        cell_outputs = {name: column[k] for name, column in results.items()}
        try:
            values = REFERENCES[model]({**base, **coords}, outputs)
        except EcodynError as exc:
            assert flagged and note == str(exc)
            assert all(
                v is False if name == "stable" else math.isnan(v)
                for name, v in cell_outputs.items()
            )
            kinds.add("non-finite" if isinstance(exc, NumericalFailure) else "rejected")
            continue
        expected = {name: values[name] for name in outputs}
        assert not flagged and note == ""
        assert cell_outputs == expected
        if "final_pool" in outputs and expected["pole"] == 1.0:
            # sweep columns are floats; closed_form's limit keeps integer inputs' type
            expected["final_pool"] = float(expected["final_pool"])
            kinds.add("pole 1")
        else:
            kinds.add("clean")
        assert repr(cell_outputs) == repr(expected)
    assert result.metadata["flagged"] == result.flagged.sum()
    return kinds


def _notes(model, base, grid):
    return set(sweep(BINDINGS[model], base, grid).notes)


def test_columnar_budget_sweep_matches_scalar_model():
    # spending_split crosses 1 and tax_rate reaches 1, where the direct pole
    # is exactly 1 and the columns take closed_form's limit W0 + n * flow
    grid = ParamGrid(
        (Axis("spending_split", 0.5, 1.5, 11), Axis("tax_rate", 0.0, 1.0, 11))
    )
    for horizon in (0, 1, 25):
        base = {**BUDGET_BASE, "horizon": horizon}
        kinds = assert_matches_scalar("budget", base, grid)
        assert kinds == {"clean", "pole 1", "rejected"}
    assert assert_matches_scalar("budget", BUDGET_BASE, grid, REGION) == {"clean", "rejected"}
    # invest_share crosses 0 in incremental mode
    grid = ParamGrid(
        (Axis("invest_share", -0.5, 0.5, 11), Axis("private_fraction", 0.0, 1.0, 7))
    )
    base = {**BUDGET_BASE, "mode": "incremental", "horizon": 50}
    assert assert_matches_scalar("budget", base, grid) == {"clean", "rejected"}
    # integer inputs at pole exactly 1: the closed form returns an int, the
    # sweep the equal float
    grid = ParamGrid((Axis("tax_rate", 0.0, 1.0, 3),))
    ints = {**dict.fromkeys(BUDGET_BASE, 0), "spending_split": 1}
    ints.update(gov_spending=100, initial_wages=1000)
    assert assert_matches_scalar("budget", ints, grid) == {"clean", "pole 1"}
    final_pool = sweep(BINDINGS["budget"], {**ints, "horizon": 5}, grid).outputs["final_pool"]
    assert repr(final_pool.tolist()) == "[-100.0, -162.5, 500.0]"
    # a pole of exactly 1 from base values alone: they divide by zero as
    # columns do, where Python floats would raise ZeroDivisionError
    wages = ParamGrid((Axis("initial_wages", 1.0, 3.0, 3),))
    assert assert_matches_scalar("budget", {**BUDGET_BASE, "tax_rate": 1.0}, wages) == {"pole 1"}
    # an out-of-range integer base value is quoted as given
    two = {**ints, "spending_split": 2}
    assert assert_matches_scalar("budget", two, grid) == {"rejected"}
    assert _notes("budget", two, grid) == {"spending_split must lie in [0, 1], got 2"}
    # initial_wages and gov_spending cross 0, the open and the closed end of
    # their declared bounds
    edges = ParamGrid(
        (Axis("initial_wages", -500.0, 500.0, 11), Axis("gov_spending", -100.0, 100.0, 5))
    )
    assert assert_matches_scalar("budget", BUDGET_BASE, edges) == {"clean", "rejected"}
    result = sweep(BINDINGS["budget"], BUDGET_BASE, edges)
    columns = edges.columns()
    rejected = [
        (wages, spending)
        for wages, spending, flagged in zip(
            columns["initial_wages"].tolist(), columns["gov_spending"].tolist(), result.flagged
        )
        if flagged
    ]
    assert {wages for wages, spending in rejected if spending >= 0} == {
        -500.0, -400.0, -300.0, -200.0, -100.0, 0.0
    }
    assert {spending for wages, spending in rejected if wages > 0} == {-100.0, -50.0}
    # a NaN base value rejects every cell, and a horizon past the float
    # range overflows every cell
    nan = {**BUDGET_BASE, "gov_spending": math.nan}
    assert assert_matches_scalar("budget", nan, grid) == {"rejected"}
    huge = {**BUDGET_BASE, "horizon": 10**400}
    assert assert_matches_scalar("budget", huge, grid) == {"non-finite"}
    # a bad mode or a negative horizon is one mistake for every cell: the
    # sweep raises on it before any cell runs, with the text the scalar
    # budget run gives, also where a field would reject some cells
    split = ParamGrid((Axis("spending_split", 0.5, 1.5, 5),))
    for bad, message in (
        ({"mode": "sideways"}, "mode must be one of ('direct', 'incremental'), got 'sideways'"),
        ({"mode": 5}, "key 'mode' must be a string, got 5"),
        ({"horizon": -1}, "'horizon' must be >= 0, got -1"),
    ):
        for cells in (grid, split):
            with pytest.raises(InvariantViolation, match=re.escape(message)):
                sweep(BINDINGS["budget"], {**BUDGET_BASE, **bad}, cells)


def test_columnar_value_sweep_matches_scalar_model():
    # exponent hits 1 and true_value crosses 0
    grid = ParamGrid((Axis("exponent", -1.0, 3.0, 9), Axis("true_value", -1.0, 2.0, 7)))
    for base in ({}, {"homog_coeff": -0.5}):
        assert assert_matches_scalar("value", base, grid) == {"clean", "rejected"}
        # exponent 1 with true_value <= 0: the exponent is checked first
        notes = sweep(BINDINGS["value"], base, grid).notes
        singular = "exponent 1 has a logarithmic solution, see singular_market_value"
        assert notes[4 * 7 : 4 * 7 + 3] == [singular] * 3
    grid = ParamGrid((Axis("exponent", -1.0, 3.0, 9),))
    assert assert_matches_scalar("value", {"true_value": math.nan}, grid) == {
        "non-finite",
        "rejected",
    }
    # an infinite homog_coeff comes before exponent 1 and true_value <= 0
    for x in (2.0, -1.0):
        base = {"true_value": x, "homog_coeff": math.inf}
        assert assert_matches_scalar("value", base, grid) == {"rejected"}
        assert _notes("value", base, grid) == {"homog_coeff must be finite, got inf"}
    # a NaN exponent with the default constant comes before true_value <= 0
    grid = ParamGrid((Axis("true_value", -1.0, 2.0, 4),))
    assert assert_matches_scalar("value", {"exponent": math.nan}, grid) == {"rejected"}
    assert _notes("value", {"exponent": math.nan}, grid) == {"exponent must be finite, got nan"}
    # a base exponent of 1 is noted in every cell, not divided by zero
    for base in ({"exponent": 1.0}, {"exponent": 1, "homog_coeff": 2.0}):
        assert assert_matches_scalar("value", base, grid) == {"rejected"}


def test_columnar_wage_sweep_matches_scalar_model():
    base = {"max_market_price": 10.0, "labor_weight": 0.5, "other_factors": [[0.5, 4.0]]}
    grid = ParamGrid((Axis("wage", -2.0, 4.0, 13),))
    assert assert_matches_scalar("wage", base, grid) == {"clean", "rejected"}
    # integer inputs, and a nonpositive margin, which comes after wage <= 0
    assert assert_matches_scalar("wage", {"max_market_price": 10, "labor_weight": 1}, grid) == {
        "clean",
        "rejected",
    }
    no_margin = {**base, "other_factors": [[0.5, 30.0]]}
    assert assert_matches_scalar("wage", no_margin, grid) == {"rejected"}
    notes = sweep(BINDINGS["wage"], no_margin, grid).notes
    margin = "non-labor cost absorbs the whole selling price (margin -5.0)"
    assert notes[4:6] == ["wage must be > 0, got 0.0", margin]
    # a rejected cost structure rejects every cell, wage <= 0 included
    bad_weights = {**base, "labor_weight": 0.25}
    assert assert_matches_scalar("wage", bad_weights, grid) == {"rejected"}
    assert len(_notes("wage", bad_weights, grid)) == 1


def test_sweep_builds_no_model_object_per_cell(monkeypatch):
    # rejected cells get their notes from the column masks, so a sweep
    # builds the same few model objects however many cells it rejects
    built = []
    for cls in (BudgetParams, MarketValueSolution, CostStructure):

        def counting(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def constructions(points):
        built.clear()
        budget = ParamGrid(
            (Axis("spending_split", 0.0, 1.25, points), Axis("tax_rate", 0.0, 1.0, points))
        )
        flagged = sweep(BINDINGS["budget"], BUDGET_BASE, budget).metadata["flagged"]
        value = ParamGrid((Axis("exponent", -1.0, 3.0, points), Axis("true_value", -1.0, 2.0, 9)))
        flagged += sweep(BINDINGS["value"], {}, value).metadata["flagged"]
        wage = ParamGrid((Axis("wage", -2.0, 4.0, points),))
        wage_base = {"max_market_price": 10.0, "labor_weight": 1.0}
        flagged += sweep(BINDINGS["wage"], wage_base, wage).metadata["flagged"]
        return len(built), flagged

    few, few_flagged = constructions(5)
    many, many_flagged = constructions(200)
    assert many_flagged >= 8000 + few_flagged
    assert many == few <= 1
    # the counter sees the objects a scalar call builds
    _budget_reference(BUDGET_BASE, ("pole",))
    assert built[-1] == "BudgetParams"


def test_base_values_reach_the_model_as_single_floats(monkeypatch):
    # numpy broadcasts a base value over the axes' columns, so the sweep
    # copies none into a per-cell column
    calls = []
    coefficients = bd._coefficients

    def recording(*operands):
        calls.append(operands)
        return coefficients(*operands)

    monkeypatch.setattr(bd, "_coefficients", recording)
    grid = ParamGrid((Axis("tax_rate", 0.0, 1.0, 4), Axis("invest_share", 0.0, 2.0, 5)))
    bases = ((BINDINGS["budget"], {**BUDGET_BASE, "horizon": 3}), (REGION, BUDGET_BASE))
    for binding, base in bases:
        calls.clear()
        result = sweep(binding, base, grid)
        (operands,) = calls
        for name, operand in zip(BUDGET_PARAMS, operands):
            if name in ("tax_rate", "invest_share"):
                assert isinstance(operand, np.ndarray) and operand.shape == (20,)
            else:  # a numpy float is a Python float
                assert isinstance(operand, float) and not isinstance(operand, np.ndarray)
        assert all(column.shape == (20,) for column in result.outputs.values())


def test_integer_base_values_keep_the_signed_zero_of_floats():
    # -gov_spending * spending_split is -0.0 on floats, as closed_form reads
    # the config, but the int 0 on these integers
    base = dict.fromkeys(("tax_rate", "spending_split", "invest_share", "foreign_multiplier"), 0)
    base.update(private_fraction=0.9999999999999999, gov_spending=100, horizon=21)
    grid = ParamGrid((Axis("initial_wages", 1.0, 5.0, 5),))
    final_pool = sweep(BINDINGS["budget"], base, grid).outputs["final_pool"].tolist()
    expected = [
        closed_form(read(BudgetParams, {**base, "initial_wages": w}), 21)
        for w in grid.columns()["initial_wages"].tolist()
    ]
    assert repr(final_pool) == repr(expected) == repr([-0.0] * 5)


def test_overflowing_cells_are_flagged_not_raised():
    base = {**BUDGET_BASE, "mode": "incremental", "horizon": 1000}
    grid = ParamGrid((Axis("invest_share", 0.0, 50.0, 11),))
    result = sweep(BINDINGS["budget"], base, grid)
    flagged_notes = [note for note, flagged in zip(result.notes, result.flagged) if flagged]
    assert flagged_notes and len(flagged_notes) < len(result.flagged)
    assert all(note == "final_pool overflows the float range" for note in flagged_notes)
    clean = [v for v, flagged in zip(result.outputs["final_pool"], result.flagged) if not flagged]
    assert all(map(math.isfinite, clean))
    # a pole that is itself infinite is flagged before final_pool is tried
    base = {**BUDGET_BASE, "foreign_multiplier": 1e300}
    grid = ParamGrid((Axis("invest_share", 0.0, 1e10, 3),))
    notes = sweep(BINDINGS["budget"], base, grid).notes
    assert notes == ["", "pole is not finite: inf", "pole is not finite: inf"]
    # a pole that no axis moves is quoted the same way
    base = {**BUDGET_BASE, "invest_share": 1e308, "foreign_multiplier": 1e308}
    grid = ParamGrid((Axis("gov_spending", 0.0, 200.0, 3),))
    assert _notes("budget", base, grid) == {"pole is not finite: inf"}
    # the value model's power term overflows the same way
    grid = ParamGrid((Axis("exponent", 100.0, 500.0, 4),))
    result = sweep(BINDINGS["value"], {"true_value": 10.0}, grid)
    assert result.flagged.tolist() == [False, False, True, True]
    assert result.notes[-1] == "market_value overflows the float range"


def test_notes_format_each_distinct_value_once():
    calls = []

    def text(value):
        calls.append(value)
        return f"got {value!r}"

    # 8,000 noted cells that quote 40 distinct values, as sweep_json's
    # spending_split notes do
    values = np.random.default_rng(3).permutation(np.repeat(np.linspace(0.0, 1.5, 40), 200))
    texts = _Notes(8000).add(values > -1.0, text, values).texts
    assert len(calls) == 40
    assert texts.tolist() == [f"got {v!r}" for v in values.tolist()]
    # values are told apart by their bits, and reach text as Python floats
    calls.clear()
    texts = _Notes(4).add(True, text, np.array([0.0, -0.0, -0.0, 0.0])).texts
    assert texts.tolist() == ["got 0.0", "got -0.0", "got -0.0", "got 0.0"]
    assert sorted(map(repr, calls)) == ["-0.0", "0.0"]
    # one value for every cell is formatted once, as given
    calls.clear()
    notes = _Notes(3)
    notes.add(np.array([True, False, True]), text, 2)
    assert notes.texts.tolist() == ["got 2", "", "got 2"]
    assert calls == [2]
    # closed cells keep their first note and are not formatted again
    calls.clear()
    notes.add(True, text, np.array([5.0, 6.0, 7.0]))
    assert notes.texts.tolist() == ["got 2", "got 6.0", "got 2"]
    assert calls == [6.0]


def test_power_is_python_pow_per_cell():
    rng = np.random.default_rng(11)
    base = rng.uniform(-3.0, 3.0, 2000)
    exponent = rng.integers(-60, 61, 2000).astype(float)
    skip = rng.random(2000) < 0.1
    with np.errstate(over="ignore"):  # as sweep() calls it
        powers, overflow = _power(base, exponent, skip)
    expected = [1.0**e if s else b**e for b, e, s in zip(base.tolist(), exponent.tolist(), skip)]
    assert np.array_equal(powers.view(np.uint64), np.array(expected).view(np.uint64))
    assert not overflow.any()
    # the one pass marks the cells where pow raises OverflowError, which hold inf
    base[:3] = 1e300
    exponent[:3] = 2.0
    skip[:3] = [False, True, False]
    with np.errstate(over="ignore"):
        powers, overflow = _power(base, exponent, skip)
    assert np.flatnonzero(overflow).tolist() == [0, 2]
    expected[:3] = [math.inf, 1.0, math.inf]  # a skipped cell holds 1.0**2
    assert np.array_equal(powers.view(np.uint64), np.array(expected).view(np.uint64))
    # every cell overflows
    with np.errstate(over="ignore"):
        powers, overflow = _power(np.array([1e300, -1e300, 10.0]), 400.0, np.zeros(3, dtype=bool))
    assert overflow.all() and powers.tolist() == [math.inf] * 3
    # one exponent for every cell
    with np.errstate(over="ignore"):
        powers, overflow = _power(np.array([2.0, 1e300, 0.5]), 50.0, np.zeros(3, dtype=bool))
    assert powers.tolist() == [2.0**50, math.inf, 0.5**50] and overflow.tolist() == [False, True, False]


_EDGES = [0.0, 1.0, sys.float_info.max, math.nextafter(0.0, 1.0)]


@pytest.mark.parametrize("bound", [UNIT, NONNEG, POSITIVE, FINITE], ids=lambda b: b.text)
def test_bound_admits_is_the_closed_interval(bound):
    ends = [bound.lower, bound.upper, *_EDGES]
    near = [math.nextafter(v, d) for v in ends for d in (-math.inf, math.inf)]
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, *ends, *near]
    values += [-v for v in values]
    expected = [bound.lower <= v <= bound.upper for v in values]
    assert [bound.admits(v) for v in values] == expected
    column = bound.admits(np.array(values))
    assert column.dtype == bool and column.tolist() == expected

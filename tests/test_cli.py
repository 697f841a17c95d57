import csv
import io
import json
import math
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecodyn import cli
from ecodyn.cli import main
from ecodyn.errors import NumericalFailure
from ecodyn.sweep import BINDINGS, Axis, ParamGrid, sweep

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_wage_golden(capsys):
    rc, out, err = run(["wage", "--config", str(DATA / "wage_curve.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "wage_curve.csv").read_text()
    assert "gross margin: 8.0" in err
    assert "optimal wage: 1.0, net profit 7.5" in err


def test_wage_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    rc, out, _ = run(
        ["wage", "--config", str(DATA / "wage_curve.json"), "--out", str(target)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    assert target.read_bytes() == (GOLDEN / "wage_curve.csv").read_bytes()


def test_value_golden(capsys):
    rc, out, _ = run(["value", "--config", str(DATA / "value_curve.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "value_curve.csv").read_text()


def test_value_probe_golden(capsys):
    rc, out, err = run(["value", "--config", str(DATA / "value_probe.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "value_probe.csv").read_text()
    assert "convergent" in err


def test_budget_golden(capsys):
    rc, out, err = run(["budget", "--config", str(DATA / "budget_direct.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "budget_direct.csv").read_text()
    assert "pole: 0.27899999999999997 (stable)" in err
    assert "fixed point: -69.34812760055478" in err
    assert "stable tax range: (0.0, 1.0)" in err


def test_budget_deficiencies_golden(capsys):
    rc, out, err = run(["budget", "--config", str(DATA / "budget_deficiencies.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "budget_deficiencies.csv").read_text()
    assert (
        "year 0: flow balance 112.47499999999997, investments 83.21999999999998, "
        "annual change 195.69499999999994 (currency erosion scales the year-0 flow "
        "balance to 101.22749999999998; the trajectory below uses the adjusted "
        "parameters without erosion)"
    ) in err.splitlines()


def test_sweep_region_golden(capsys):
    rc, out, err = run(["sweep", "--config", str(DATA / "sweep_region.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "sweep_region.csv").read_text()
    assert "swept 9 cells" in err


def test_sweep_budget_golden(capsys):
    # flagged rows leave empty CSV cells and drop their output keys in JSON,
    # and the last tax_rate coordinate is -0.0
    argv = ["sweep", "--config", str(DATA / "sweep_budget.json")]
    rc, out, err = run(argv, capsys)
    assert rc == 0
    assert out == (GOLDEN / "sweep_budget.csv").read_text()
    assert "swept 30 cells" in err and "27 flagged" in err
    rc, out, _ = run([*argv, "--format", "json"], capsys)
    assert rc == 0
    assert out == (GOLDEN / "sweep_budget.json").read_text()


def test_stderr_golden(capsys):
    # each tests/data config's exit code and exact stderr, one block a run
    blocks = []
    for path in sorted(DATA.glob("*.json")):
        command = path.name.partition("_")[0]
        rc, _, err = run([command, "--config", str(path)], capsys)
        blocks.append(f"== {command} {path.name}: exit {rc}\n{err}")
    assert "".join(blocks) == (GOLDEN / "stderr.txt").read_text()


def test_budget_json_structure(capsys):
    rc, out, _ = run(
        ["budget", "--config", str(DATA / "budget_direct.json"), "--format", "json"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["command"] == "budget"
    assert doc["metadata"]["mode"] == "direct"
    assert doc["metadata"]["stable"] is True
    assert len(doc["rows"]) == 11
    assert doc["rows"][0] == {
        "step": 0,
        "iterated": 1000.0,
        "closed_form": 1000.0,
        "abs_diff": 0.0,
    }


def test_sweep_json_structure(capsys):
    argv = ["sweep", "--config", str(DATA / "sweep_region.json"), "--format", "json"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    # nothing run-dependent in the file: a rerun gives the same bytes
    assert run(argv, capsys)[1] == out
    doc = json.loads(out)
    meta = doc["metadata"]
    assert meta["kind"] == "stability_region"
    assert meta["cells"] == 9
    assert "timestamp" not in meta and "workers" not in meta
    rows = doc["rows"]
    assert len(rows) == 9
    assert all("note" in r for r in rows)
    assert rows[0]["stable"] is True


def test_mode_flag_overrides_config(capsys):
    rc, out, err = run(
        ["budget", "--config", str(DATA / "budget_direct.json"), "--mode", "incremental"],
        capsys,
    )
    assert rc == 0
    assert "budget mode: incremental" in err
    assert "pole: 1.279 (unstable)" in err
    first_year = out.splitlines()[2].split(",")
    assert first_year[0] == "1"
    assert abs(float(first_year[1]) - 1229.0) < 1e-9


def test_mode_flag_overrides_only_a_valid_config_mode(tmp_path, capsys):
    path = tmp_path / "mode5.json"
    path.write_text(json.dumps({"budget": {**BUDGET, "mode": 5}}))
    rc, out, err = run(["budget", "--config", str(path), "--mode", "direct"], capsys)
    assert rc == 1 and out == ""
    assert err == "error: key 'mode' must be a string, got 5\n"


def test_value_gains_route(tmp_path, capsys):
    cfg = {
        "value": {
            "inflation_gain": 0.4,
            "deflation_gain": 0.9,
            "grid": {"min": 1.0, "max": 3.0, "points": 9},
            "rk4_steps": 1000,
        }
    }
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run(["value", "--config", str(path)], capsys)
    assert rc == 0
    # the gain pair implies exponent -2, so the curve matches the golden
    assert out == (GOLDEN / "value_curve.csv").read_text()


def test_value_balanced_gains(tmp_path, capsys):
    cfg = {
        "value": {
            "inflation_gain": 0.4,
            "deflation_gain": 0.4,
            "grid": {"min": 1.0, "max": 2.0, "points": 3},
        }
    }
    path = tmp_path / "balanced.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["value", "--config", str(path)], capsys)
    assert rc == 0
    assert "balanced feedback" in err
    assert out.splitlines()[1:] == ["1.0,1.0,0.0", "1.5,1.5,0.0", "2.0,2.0,0.0"]


def test_value_singular_exponent(tmp_path, capsys):
    cfg = {"value": {"exponent": 1.0, "grid": {"min": 1.0, "max": 3.0, "points": 3}}}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["value", "--config", str(path)], capsys)
    assert rc == 0
    assert "logarithmic closed form" in err
    # rows still verify against the integrator
    last = out.splitlines()[-1].split(",")
    assert float(last[2]) < 1e-8


def test_wage_report_without_grid(tmp_path, capsys):
    cfg = {
        "wage": {
            "max_market_price": 10.0,
            "labor_weight": 0.7,
            "other_factors": [[0.3, 10.0]],
            "floor": 2.0,
        }
    }
    path = tmp_path / "report_only.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["wage", "--config", str(path)], capsys)
    assert rc == 0
    assert out == ""  # no grid, no data rows
    assert "gross margin: 7.0" in err
    assert "optimal wage: 2.0, net profit 2.8" in err
    assert "derivatives at wage 2.0" in err
    assert "(negative)" in err and "(positive)" in err


def test_wage_zero_floor_reports_unbounded(tmp_path, capsys):
    cfg = {"wage": {"max_market_price": 10.0, "labor_weight": 1.0, "floor": 0.0}}
    path = tmp_path / "no_floor.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["wage", "--config", str(path)], capsys)
    assert rc == 0
    assert "unbounded" in err


def test_budget_divergent_fixed_point(tmp_path, capsys):
    cfg = {
        "budget": {
            "tax_rate": 1.0,
            "spending_split": 0.5,
            "private_fraction": 0.7,
            "invest_share": 0.0,
            "foreign_multiplier": 0.2,
            "gov_spending": 100.0,
            "initial_wages": 1000.0,
            "horizon": 4,
        }
    }
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["budget", "--config", str(path)], capsys)
    assert rc == 0
    assert "pole: 1.0 (marginal)" in err
    assert "fixed point: divergent" in err
    # the trajectory drifts linearly: 1000, 950, ..., 800
    last = out.splitlines()[-1].split(",")
    assert float(last[1]) == 800.0
    assert float(last[2]) == 800.0


def test_budget_reports_max_deviation(capsys):
    rc, _, err = run(["budget", "--config", str(DATA / "budget_direct.json")], capsys)
    assert rc == 0
    line = next(l for l in err.splitlines() if l.startswith("max |iterated"))
    assert float(line.split(":")[1]) < 1e-10


def test_sweep_all_cells_failed(tmp_path, capsys):
    cfg = {
        "sweep": {
            "model": "budget",
            "base": {
                "tax_rate": 0.3,
                "spending_split": 0.5,
                "private_fraction": 0.7,
                "invest_share": 0.1,
                "foreign_multiplier": 0.2,
                "gov_spending": 100.0,
                "initial_wages": 1000.0,
            },
            "axes": [{"name": "invest_share", "min": -5.0, "max": -1.0, "points": 3}],
        }
    }
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["sweep", "--config", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert "all 3 cells were rejected" in err


def test_sweep_overflow_is_flagged_not_fatal(tmp_path, capsys):
    cfg = {
        "sweep": {
            "model": "budget",
            "base": {
                "tax_rate": 0.3,
                "spending_split": 0.5,
                "private_fraction": 0.7,
                "foreign_multiplier": 0.2,
                "gov_spending": 100.0,
                "initial_wages": 1000.0,
                "mode": "incremental",
                "horizon": 1000,
            },
            "axes": [{"name": "invest_share", "min": 0.0, "max": 50.0, "points": 6}],
        }
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["sweep", "--config", str(path), "--format", "json"], capsys)
    assert rc == 0
    assert "Infinity" not in out and "NaN" not in out
    rows = json.loads(out)["rows"]
    assert [r["flagged"] for r in rows] == [False] + [True] * 5
    assert rows[-1]["note"] == "final_pool overflows the float range"
    assert "5 flagged" in err


BUDGET = {
    "tax_rate": 0.3,
    "spending_split": 0.5,
    "private_fraction": 0.7,
    "invest_share": 0.1,
    "foreign_multiplier": 0.2,
    "gov_spending": 100.0,
    "initial_wages": 1000.0,
}
TAX_AXIS = [{"name": "tax_rate", "min": 0.0, "max": 1.0, "points": 3}]
WAGE = {"max_market_price": 10.0, "labor_weight": 0.5, "other_factors": [[0.5, 4.0]]}
VALUE_CURVE = {"exponent": -2.0, "grid": {"min": 1.0, "max": 2.0, "points": 3}}


def _budget_sweep(**base):
    return {"sweep": {"model": "budget", "base": {**BUDGET, **base}, "axes": TAX_AXIS}}


# json.dumps cannot write these literals, so the test writes the config
# with each placeholder string swapped for its literal.
LONG_INT = "<integer of 5001 digits>"
HUGE_FLOAT = "<float literal past the float range>"
LITERALS = {LONG_INT: "1" * 5001, HUGE_FLOAT: "-1e400"}

# Each of these ends in one error line, never a traceback, a silently
# converted value or a non-finite number in the output: mistyped values,
# non-finite number literals and integers beyond the float range are config
# errors (exit 1), overflow and non-finite results are numerical failures
# (exit 2).
BAD_CONFIGS = {
    "sweep-string-value": (_budget_sweep(private_fraction="high"), 1, "must be a number"),
    "sweep-boolean-value": (_budget_sweep(private_fraction=True), 1, "must be a number"),
    "sweep-horizon-string": (_budget_sweep(horizon="abc"), 1, "must be an integer"),
    "sweep-horizon-null": (_budget_sweep(horizon=None), 1, "must be an integer"),
    "sweep-horizon-fraction": (_budget_sweep(horizon=2.5), 1, "must be an integer"),
    # one mistake for every cell, so a config error like the budget run's,
    # not a sweep whose every cell is rejected
    "sweep-horizon-negative": (_budget_sweep(horizon=-1), 1, "'horizon' must be >= 0, got -1"),
    "sweep-mode-integer": (_budget_sweep(mode=5), 1, "key 'mode' must be a string, got 5"),
    "sweep-section-mode-unknown": (
        {"sweep": {"model": "budget", "mode": "sideways", "base": BUDGET, "axes": TAX_AXIS}},
        1,
        "mode must be one of ('direct', 'incremental'), got 'sideways'",
    ),
    "sweep-mode-in-section-and-base": (
        {
            "sweep": {
                "model": "budget",
                "mode": "incremental",
                "base": {**BUDGET, "mode": "incremental"},
                "axes": TAX_AXIS,
            }
        },
        1,
        "give the budget mode in 'sweep' or in 'base', not both",
    ),
    "sweep-axis-name-integer": (
        {
            "sweep": {
                "model": "budget",
                "base": BUDGET,
                "axes": [{"name": 5, "min": 0.0, "max": 1.0, "points": 3}],
            }
        },
        1,
        "key 'name' must be a string, got 5",
    ),
    "sweep-region-bad-mode": (
        {
            "sweep": {
                "model": "budget",
                "kind": "stability_region",
                "mode": "sideways",
                "base": BUDGET,
                "axes": [*TAX_AXIS, {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 3}],
            }
        },
        1,
        "mode must be one of ('direct', 'incremental'), got 'sideways'",
    ),
    # a region reads no horizon, so one in its base is an unread key
    "region-horizon": (
        {
            "sweep": {
                "model": "budget",
                "kind": "stability_region",
                "base": {**BUDGET, "horizon": 50},
                "axes": [*TAX_AXIS, {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 3}],
            }
        },
        1,
        "model 'budget' does not read ['horizon']",
    ),
    "sweep-homog-coeff-string": (
        {
            "sweep": {
                "model": "value",
                "base": {"true_value": 2.0, "homog_coeff": "x"},
                "axes": [{"name": "exponent", "min": -2.0, "max": -1.0, "points": 3}],
            }
        },
        1,
        "must be a number",
    ),
    "wage-short-factor-pair": (
        {"wage": {"max_market_price": 10.0, "labor_weight": 0.5, "other_factors": [[0.5]]}},
        1,
        "'other_factors' must be a list",
    ),
    "sweep-factors-not-a-list": (
        {
            "sweep": {
                "model": "wage",
                "base": {"max_market_price": 10.0, "labor_weight": 0.5, "other_factors": 3},
                "axes": [{"name": "wage", "min": 1.0, "max": 2.0, "points": 3}],
            }
        },
        1,
        "'other_factors' must be a list",
    ),
    "budget-closed-form-overflow": (
        {"budget": {**BUDGET, "invest_share": 5, "horizon": 2000}},
        2,
        "closed_form overflows the float range",
    ),
    "value-power-overflow": (
        {"value": {"exponent": 400, "grid": {"min": 1, "max": 10, "points": 5}}},
        2,
        "market_value overflows the float range",
    ),
    "value-rk4-overflow": (
        {
            "value": {
                "exponent": -1e300,
                "grid": {"min": 1.0, "max": 2.0, "points": 3},
                "rk4_steps": 1,
            }
        },
        2,
        "non-finite RK4",
    ),
    "budget-int-beyond-float-range": (
        {"budget": {**BUDGET, "gov_spending": 10**400}},
        1,
        "'gov_spending' must be a number",
    ),
    "budget-int-too-long-to-parse": (
        {"budget": {**BUDGET, "gov_spending": LONG_INT}},
        1,
        "cannot parse config",
    ),
    "wage-floor-net-profit-overflows": (
        {"wage": {**WAGE, "floor": 1e-310}},
        2,
        "net_profit is not finite: inf",
    ),
    # read with the other keys, before the first report line
    "wage-floor-negative": (
        {"wage": {**WAGE, "floor": -1}},
        1,
        "floor must be finite and >= 0, got -1.0",
    ),
    "wage-factor-beyond-float-range": (
        {"wage": {**WAGE, "other_factors": [[0.5, 10**400]]}},
        1,
        "'other_factors' must be a list",
    ),
    "probe-string-exponent": (
        {"value": {"probe": {"true_value": 2.0, "exponents": ["abc"]}}},
        1,
        "'exponents' list of numbers",
    ),
    "probe-boolean-exponent": (
        {"value": {"probe": {"true_value": 2.0, "exponents": [True]}}},
        1,
        "'exponents' list of numbers",
    ),
    "probe-gap-overflow": (
        {"value": {"probe": {"true_value": 0.5, "exponents": [-2000]}}},
        2,
        "gap overflows the float range",
    ),
    "probe-nan-exponent": (
        {"value": {"probe": {"true_value": 2.0, "exponents": [math.nan, -2]}}},
        1,
        "NaN is not a finite number",
    ),
    "probe-minus-infinity-exponent": (
        {"value": {"probe": {"true_value": 2.0, "exponents": [-10.0, -math.inf]}}},
        1,
        "-Infinity is not a finite number",
    ),
    "probe-exponent-literal-past-float-range": (
        {"value": {"probe": {"true_value": 2.0, "exponents": [-10.0, HUGE_FLOAT]}}},
        1,
        "-1e400 is not a finite number",
    ),
    "wage-grid-squared-wage-underflows": (
        {"wage": {**WAGE, "grid": {"min": 1e-200, "max": 1.0, "points": 3}}},
        2,
        "first_derivative overflows the float range",
    ),
    "wage-grid-cubed-wage-underflows": (
        {"wage": {**WAGE, "grid": {"min": 1e-110, "max": 1.0, "points": 3}}},
        2,
        "second_derivative overflows the float range",
    ),
    "wage-grid-second-derivative-overflows": (
        {"wage": {**WAGE, "grid": {"min": 1e-103, "max": 1.0, "points": 3}}},
        2,
        "second_derivative is not finite: inf",
    ),
    "sweep-axis-span-past-float-range": (
        {
            "sweep": {
                "model": "budget",
                "base": BUDGET,
                "axes": [{"name": "gov_spending", "min": -1.7e308, "max": 1.7e308, "points": 3}],
            }
        },
        1,
        "axis 'gov_spending' spans past the float range",
    ),
    "wage-grid-span-past-float-range": (
        {"wage": {**WAGE, "grid": {"min": -1.7e308, "max": 1.7e308, "points": 3}}},
        1,
        "spans past the float range",
    ),
    "sweep-model-object": (
        {"sweep": {"model": {}, "base": BUDGET, "axes": TAX_AXIS}},
        1,
        "key 'model' must be a string, got {}",
    ),
    "output-path-list": (
        {"budget": BUDGET, "output": {"path": ["rows.csv"]}},
        1,
        "key 'path' must be a string, got ['rows.csv']",
    ),
    # not a file descriptor, which open() would write to and close
    "output-path-integer": (
        {"budget": BUDGET, "output": {"path": 2}},
        1,
        "key 'path' must be a string, got 2",
    ),
    "output-path-in-missing-directory": (
        {"budget": BUDGET, "output": {"path": str(DATA / "no_such_dir" / "rows.csv")}},
        1,
        "cannot write output",
    ),
    "wage-section-not-an-object": (
        {"wage": [WAGE]},
        1,
        "config section 'wage' must be an object",
    ),
    "value-grid-not-an-object": (
        {"value": {"exponent": -2.0, "grid": [1.0, 2.0]}},
        1,
        "section needs a 'grid' object with min/max/points",
    ),
    "output-format-unknown": (
        {"budget": BUDGET, "output": {"format": "xml"}},
        1,
        "output format must be csv or json, got 'xml'",
    ),
    "value-exponent-and-gains": (
        {"value": {**VALUE_CURVE, "inflation_gain": 0.4, "deflation_gain": 0.9}},
        1,
        "give either 'exponent' or the gain pair, not both",
    ),
    "value-probe-and-grid": (
        {"value": {**VALUE_CURVE, "probe": {"true_value": 2.0, "exponents": [-2.0]}}},
        1,
        "give either 'probe' or 'grid', not both",
    ),
    "value-probe-not-an-object": (
        {"value": {"probe": [2.0, -2.0]}},
        1,
        "'probe' must be an object",
    ),
    "value-rk4-steps-zero": (
        {"value": {**VALUE_CURVE, "rk4_steps": 0}},
        1,
        "'rk4_steps' must be >= 1, got 0",
    ),
    "sweep-model-unknown": (
        {"sweep": {"model": "labour", "base": BUDGET, "axes": TAX_AXIS}},
        1,
        "'model' must be one of ['budget', 'value', 'wage'], got 'labour'",
    ),
    "sweep-axes-empty": (
        {"sweep": {"model": "budget", "base": BUDGET, "axes": []}},
        1,
        "'axes' must be a non-empty list",
    ),
    "sweep-axis-not-an-object": (
        {"sweep": {"model": "budget", "base": BUDGET, "axes": ["tax_rate"]}},
        1,
        "each axis needs name/min/max/points",
    ),
    "sweep-region-of-wage-model": (
        {
            "sweep": {
                "model": "wage",
                "kind": "stability_region",
                "base": WAGE,
                "axes": [{"name": "wage", "min": 1.0, "max": 2.0, "points": 3}],
            }
        },
        1,
        "a stability region requires the budget model",
    ),
    "sweep-kind-unknown": (
        {"sweep": {"model": "budget", "kind": "grid", "base": BUDGET, "axes": TAX_AXIS}},
        1,
        "'kind' must be sweep or stability_region, got 'grid'",
    ),
    "budget-missing-tax-rate": (
        {"budget": {k: v for k, v in BUDGET.items() if k != "tax_rate"}},
        1,
        "missing numeric key 'tax_rate'",
    ),
    "wage-grid-without-points": (
        {"wage": {**WAGE, "grid": {"min": 1.0, "max": 2.0}}},
        1,
        "missing integer key 'points'",
    ),
    # a base key the model does not read, as a misspelt or another model's
    # key, is an error rather than a sweep that runs without it
    "sweep-wage-unread-keys": (
        {
            "sweep": {
                "model": "wage",
                "mode": "sideways",
                "base": {"max_market_price": 10.0, "labor_weight": 1.0, "horizon": "abc", "florr": 2},
                "axes": [{"name": "wage", "min": 1.0, "max": 2.0, "points": 3}],
            }
        },
        1,
        "model 'wage' does not read ['horizon', 'florr', 'mode']",
    ),
    "sweep-budget-unread-keys": (
        _budget_sweep(deficiencies={"tax_collection": 0.5}, horizn=3),
        1,
        "model 'budget' does not read ['deficiencies', 'horizn']",
    ),
    "budget-deficiencies-not-an-object": (
        {"budget": {**BUDGET, "deficiencies": 0.1}},
        1,
        "config section 'deficiencies' must be an object",
    ),
    # so is a key no object of a subcommand's run reads, in every object
    # kind; the run would go on without it
    "wage-unread-key": (
        {"wage": {**WAGE, "flor": 1.0}},
        1,
        "section 'wage' does not read ['flor']; it reads ['max_market_price', "
        "'labor_weight', 'other_factors', 'floor', 'grid']",
    ),
    "wage-grid-unread-key": (
        {"wage": {**WAGE, "grid": {"min": 1.0, "max": 2.0, "points": 3, "step": 0.5}}},
        1,
        "section 'grid' does not read ['step']; it reads ['min', 'max', 'points']",
    ),
    "value-unread-key": (
        {"value": {**VALUE_CURVE, "rk4_step": 10}},
        1,
        "section 'value' does not read ['rk4_step']; it reads ['inflation_gain', "
        "'deflation_gain', 'exponent', 'homog_coeff', 'grid', 'rk4_steps', 'probe']",
    ),
    "probe-unread-key": (
        {"value": {"probe": {"true_value": 2.0, "exponents": [-2.0], "exponent": -3.0}}},
        1,
        "section 'probe' does not read ['exponent']; it reads ['true_value', 'exponents']",
    ),
    # a probe reads only its own object, never the curve's keys
    **{
        f"probe-with-{name}": (
            {"value": {**extra, "probe": {"true_value": 2.0, "exponents": [-10.0]}}},
            1,
            f"section 'value' does not read {list(extra)}; it reads ['probe']",
        )
        for name, extra in (
            ("exponent", {"exponent": -2.0}),
            ("gains", {"inflation_gain": 0.4, "deflation_gain": 0.9}),
            ("homog-coeff", {"homog_coeff": 3.0}),
            ("rk4-steps", {"rk4_steps": 5}),
        )
    },
    "budget-unread-keys": (
        {"budget": {**BUDGET, "horizn": 3, "tax_rte": 0.9}},
        1,
        "section 'budget' does not read ['horizn', 'tax_rte']; it reads ['tax_rate', "
        "'spending_split', 'private_fraction', 'invest_share', 'foreign_multiplier', "
        "'gov_spending', 'initial_wages', 'horizon', 'mode', 'deficiencies']",
    ),
    "budget-deficiencies-unread-key": (
        {"budget": {**BUDGET, "deficiencies": {"tax_colection": 0.5}}},
        1,
        "section 'deficiencies' does not read ['tax_colection']; it reads ['tax_collection', "
        "'work_effort', 'spending_efficiency', 'currency_value']",
    ),
    # the output object is read before the subcommand's section is checked
    "output-format-and-section-unread-key": (
        {"budget": {**BUDGET, "bogus": 1}, "output": {"format": "xml"}},
        1,
        "output format must be csv or json, got 'xml'",
    ),
    "output-unread-key": (
        {"budget": BUDGET, "output": {"fromat": "json"}},
        1,
        "section 'output' does not read ['fromat']; it reads ['format', 'path']",
    ),
    "sweep-section-unread-key": (
        {"sweep": {"model": "budget", "knd": "stability_region", "base": BUDGET, "axes": TAX_AXIS}},
        1,
        "section 'sweep' does not read ['knd']; it reads ['model', 'kind', 'mode', 'base', 'axes']",
    ),
    "sweep-axis-unread-key": (
        {"sweep": {"model": "budget", "base": BUDGET, "axes": [{**TAX_AXIS[0], "step": 0.5}]}},
        1,
        "a sweep axis does not read ['step']; it reads ['name', 'min', 'max', 'points']",
    ),
}


def _run_bad_config(name, tmp_path, capsys):
    cfg = BAD_CONFIGS[name][0]
    path = tmp_path / "bad.json"
    text = json.dumps(cfg)
    for placeholder, literal in LITERALS.items():
        text = text.replace(json.dumps(placeholder), literal)
    path.write_text(text)
    return run([next(iter(cfg)), "--config", str(path)], capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_bad_configs_exit_with_one_error_line(tmp_path, capsys, name):
    _, code, message = BAD_CONFIGS[name]
    rc, out, err = _run_bad_config(name, tmp_path, capsys)
    assert rc == code
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


# A config error stops a run before its first report line. An --out that
# cannot be opened is the exception: the file is opened after the report,
# so a run that fails earlier never truncates it.
CONFIG_ERRORS = [
    name
    for name, (_, code, _) in BAD_CONFIGS.items()
    if code == 1 and name != "output-path-in-missing-directory"
]


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_a_config_error_prints_only_its_error_line(tmp_path, capsys, name):
    rc, _, err = _run_bad_config(name, tmp_path, capsys)
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_config_may_hold_other_subcommands_sections(tmp_path, capsys):
    # only the objects a subcommand reads are checked for unread keys
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"budget": BUDGET, "wage": WAGE, "verification": {}, "notes": 1}))
    assert run(["budget", "--config", str(path)], capsys)[0] == 0
    assert run(["wage", "--config", str(path)], capsys)[0] == 0
    assert run(["verify", "--config", str(path)], capsys)[0] == 0


def test_a_config_that_is_not_an_object_exits_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    rc, out, err = run(["budget", "--config", str(path)], capsys)
    assert rc == 1 and out == ""
    assert err == f"error: config {str(path)!r} must hold a JSON object\n"


# -- writers against the csv.writer / json.dump route they replace ----------


def _reference_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _reference_csv(columns, rows):
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_reference_cell(row.get(c)) for c in columns])
    return stream.getvalue()


def _reference_json(rows, metadata):
    stream = io.StringIO()
    json.dump({"metadata": metadata, "rows": rows}, stream, indent=2)
    stream.write("\n")
    return stream.getvalue()


def _written(writer, *args):
    stream = io.StringIO()
    writer(*args, stream)
    return stream.getvalue()


WRITER_EDGE_COLUMNS = {
    "first": [0.5, -2.0, 1e-300, 4.0, 2.5],
    "mid": [0, 1, 2, 3, 4],
    "last": np.array(["n0", 'n"1', "", "n3", "caf\u00e9"], dtype=object),
}
WRITER_EDGE_HOLES = [True, False, True, True, False]
# (_BLOCK_ROWS, columns, sparse)
WRITER_EDGE_CASES = [
    (2, WRITER_EDGE_COLUMNS, ("first",)),
    (2, WRITER_EDGE_COLUMNS, ("mid", "last")),
    (1, WRITER_EDGE_COLUMNS, ("first", "last")),
    (
        2,
        {"%d \\ caf\u00e9 %s" if k == "mid" else k: c for k, c in WRITER_EDGE_COLUMNS.items()},
        ("last",),
    ),
]


def test_writers_match_the_reference_route(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)  # rows span two write blocks
    columns = {
        "step": [0, 1, 2, 3],
        "x": [0.1, -0.0, 1e300 * 10, math.nan],
        "ok": [True, False, True, False],
        'label {0}, "q"': np.array(
            ["plain", 'quote " and, comma', "line\nbreak", "caf\u00e9 {0}"], dtype=object
        ),
        "gap": [-1e-5, 2.5, -math.inf, 1e-320],
    }
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    metadata = {"command": "test", "exponent": None, "pole": math.inf, "rows": 4}
    assert _written(cli._write_csv, columns) == _reference_csv(list(columns), rows)
    # JSON cells must be finite (see test_json_writer_rejects_non_finite_cells)
    columns["x"][2:] = [1e300, -1e-300]
    columns["gap"][2] = -1e300
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert _written(cli._write_json, columns, metadata) == _reference_json(rows, metadata)
    empty = {"a": [], "b": []}
    assert _written(cli._write_csv, empty) == _reference_csv(["a", "b"], [])
    assert _written(cli._write_json, empty, metadata) == _reference_json([], metadata)

    # the ends of a row: a sparse set holding the first or the last column,
    # blocks of one row, and a key holding %, a backslash and a non-ASCII
    # character; holes in the first row, in both rows of the second block
    # and not in the last row, which makes a block of its own
    for block_rows, columns, sparse in WRITER_EDGE_CASES:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        values = {name: list(column) for name, column in columns.items()}
        holes = np.array(WRITER_EDGE_HOLES)
        rows = [
            {name: None if hole and name in sparse else values[name][j] for name in columns}
            for j, hole in enumerate(WRITER_EDGE_HOLES)
        ]
        written = io.StringIO()
        cli._write_csv(columns, written, holes, sparse)
        assert written.getvalue() == _reference_csv(list(columns), rows)
        json_rows = [
            {name: v for name, v in row.items() if not (hole and name in sparse)}
            for row, hole in zip(rows, WRITER_EDGE_HOLES)
        ]
        written = io.StringIO()
        cli._write_json(columns, metadata, written, holes, sparse)
        assert written.getvalue() == _reference_json(json_rows, metadata)

    # coordinates as axis grids plus a row-major index: three axes, one of a
    # single point, -0.0 ending one axis and 0.0 starting another, and
    # blocks of 4 rows, which divide no axis; sweep outputs as numpy
    # columns with NaN and False in their holes
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    grid = ParamGrid((Axis("a", -1.0, -0.0, 3), Axis("one", 2.5, 2.5, 1), Axis("b", 0.0, 1.0, 3)))
    plain = {name: column.tolist() for name, column in grid.columns().items()}
    assert plain["a"][-1] == 0.0 and math.copysign(1.0, plain["a"][-1]) == -1.0
    cell = np.arange(grid.cells)
    sparse = ("pole", "stable", "unset")
    # holes in the first and the last row of every block, and then in every
    # row, where a column the evaluation left out (unset) is all NaN
    for holes in (np.isin(cell % 4, (0, 3)), np.ones(grid.cells, dtype=bool)):
        outputs = {
            "pole": np.where(holes, math.nan, cell / 7),
            "stable": np.where(holes, False, cell % 3 == 1),
        }
        if holes.all():
            outputs["unset"] = np.full(grid.cells, math.nan)
        columns = {**cli._coordinates(grid), **outputs, "flagged": holes}
        # the reference rows hold None in a hole, which csv.writer leaves
        # empty, and the JSON rows leave its key out
        values = {**plain, **{name: c.tolist() for name, c in outputs.items()}}
        values["flagged"] = holes.tolist()
        rows = [
            {name: None if hole and name in sparse else values[name][j] for name in columns}
            for j, hole in enumerate(values["flagged"])
        ]
        written = io.StringIO()
        cli._write_csv(columns, written, holes, sparse)
        assert written.getvalue() == _reference_csv(list(columns), rows)
        json_rows = [
            {name: v for name, v in row.items() if not (hole and name in sparse)}
            for row, hole in zip(rows, values["flagged"])
        ]
        written = io.StringIO()
        cli._write_json(columns, metadata, written, holes, sparse)
        assert written.getvalue() == _reference_json(json_rows, metadata)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite_cells(monkeypatch, tmp_path, bad):
    # the bad cell sits in the second write block
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    columns = {"x": [0.5, 1.5, 2.5, bad], "y": [1, 2, 3, 4]}
    with pytest.raises(NumericalFailure, match=f"non-finite value {bad!r} as JSON"):
        _written(cli._write_json, columns, {"rows": 4})
    # --out is removed rather than left holding the first block
    out = tmp_path / "rows.json"
    with pytest.raises(NumericalFailure, match=f"non-finite value {bad!r} as JSON"):
        cli._emit("json", str(out), columns, {"rows": 4})
    assert not out.exists()
    # CSV spells them as repr does
    assert _written(cli._write_csv, columns).splitlines()[-1] == f"{bad!r},4"
    # a hole is left out, not checked
    holes = np.array([False, False, False, True])
    written = io.StringIO()
    cli._write_json(columns, {"rows": 4}, written, holes, ("x",))
    assert [row.get("x") for row in json.loads(written.getvalue())["rows"]] == [0.5, 1.5, 2.5, None]


# the ends of the range that float columns encode in bulk, and the
# smallest subnormal and the largest double
EDGE_FLOATS = [
    1e-4,
    math.nextafter(1e-4, 0),
    math.nextafter(1e16, 0),
    1e16,
    5e-324,
    1.7976931348623157e308,
]


@given(st.lists(st.floats()), st.data())
def test_float_columns_encode_as_each_cell_alone(drawn, data):
    # the whole double range, the edges, NaN and the infinities
    values = [*drawn, *EDGE_FLOATS, *(-v for v in EDGE_FLOATS), math.nan, math.inf, -math.inf]
    holes = np.array(data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
    expected = ["" if hole else repr(v) for v, hole in zip(values, holes.tolist())]
    assert cli._encode(np.array(values), holes, cli._CSV_TEXT) == expected
    # JSON refuses a non-finite cell unless it is a hole
    bad = [v for v, hole in zip(values, holes.tolist()) if not (hole or math.isfinite(v))]
    if bad:
        with pytest.raises(NumericalFailure, match=f"non-finite value {bad[0]!r} as JSON"):
            cli._encode(np.array(values), holes, cli._JSON_TEXT)
    holes |= ~np.isfinite(values)
    expected = ["" if hole else repr(v) for v, hole in zip(values, holes.tolist())]
    assert cli._encode(np.array(values), holes, cli._JSON_TEXT) == expected


def test_bulk_float_range_encodes_as_repr():
    # random mantissas and signs with exponents -14 to 53, so magnitudes in
    # [2**-14, 2**54), kept inside [1e-4, 1e16)
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**52, 150_000, dtype=np.uint64)
    bits |= rng.integers(1023 - 14, 1023 + 54, bits.size, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, bits.size, dtype=np.uint64) << np.uint64(63)
    x = bits.view(np.float64)
    values = x[(abs(x) >= 1e-4) & (abs(x) < 1e16)][:100_000]
    assert len(values) == 100_000
    expected = list(map(float.__repr__, values.tolist()))
    assert cli._encode(values, None, cli._CSV_TEXT) == expected


MODELS = ("budget_dynamics", "sweep", "value_feedback", "wage_profit", "oracles", "audit")


def test_importing_the_cli_leaves_orjson_unloaded():
    # nor any model: each subcommand imports the ones it runs
    code = (
        "import sys\n"
        "models = [f'ecodyn.{m}' for m in sys.argv[1:]]\n"
        "import ecodyn\n"
        "print([m for m in models if m in sys.modules])\n"
        "import ecodyn.cli\n"
        "print([m for m in ['orjson', *models] if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, *MODELS], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n[]\n"


def test_a_value_run_loads_only_its_models():
    # -v writes "import 'name' # loader" to stderr for every module loaded
    argv = ["-v", "-m", "ecodyn", "value", "--config", str(DATA / "value_curve.json")]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "value_curve.csv").read_text()
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}
    assert {"ecodyn.value_feedback", "ecodyn.oracles"} <= loaded
    assert not loaded & {f"ecodyn.{m}" for m in ("budget_dynamics", "sweep", "wage_profit", "audit")}


def test_a_budget_sweep_loads_only_the_budget_model():
    argv = ["-v", "-m", "ecodyn", "sweep", "--config", str(DATA / "sweep_budget.json")]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "sweep_budget.csv").read_text()
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}
    assert {"ecodyn.budget_dynamics", "ecodyn.sweep"} <= loaded
    assert not loaded & {f"ecodyn.{m}" for m in ("value_feedback", "wage_profit", "oracles", "audit")}


RECORD_ROUTE_SWEEPS = [
    # value: flagged cells for a nonpositive true value and the singular exponent
    (
        "value",
        {"true_value": 2.0, "homog_coeff": 0.5},
        [("exponent", -1.0, 3.0, 5), ("true_value", -1.0, 2.0, 4)],
        ["exponent", "true_value", "market_value", "gap", "flagged"],
    ),
    # budget on three axes: one of a single point, tax_rate ending in -0.0
    # (its other rows flagged) and invest_share starting at 0.0
    (
        "budget",
        {**BUDGET, "mode": "incremental", "horizon": 20},
        [
            ("tax_rate", -0.5, -0.0, 3),
            ("foreign_multiplier", 0.2, 0.2, 1),
            ("invest_share", 0.0, 1.0, 4),
        ],
        [
            "tax_rate",
            "foreign_multiplier",
            "invest_share",
            "pole",
            "stable",
            "final_pool",
            "flagged",
        ],
    ),
]


def test_sweep_output_matches_the_record_route(tmp_path, capsys, monkeypatch):
    # flagged rows drop their output keys in JSON and leave empty CSV cells
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)  # divides no axis
    for model, base, axes, columns in RECORD_ROUTE_SWEEPS:
        cfg = {
            "sweep": {
                "model": model,
                "base": base,
                "axes": [
                    {"name": name, "min": lo, "max": hi, "points": n} for name, lo, hi, n in axes
                ],
            }
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        grid = ParamGrid(tuple(Axis(*axis) for axis in axes))
        result = sweep(BINDINGS[model], base, grid)
        assert 0 < result.metadata["flagged"] < grid.cells
        # the expected columns, in order, come from the literal list
        values = {
            name: column.tolist()
            for name, column in {**grid.columns(), **result.outputs, "flagged": result.flagged}.items()
        }
        rows = [
            {name: values[name][k] for name in columns if not (flagged and name in result.outputs)}
            for k, flagged in enumerate(values["flagged"])
        ]
        json_rows = [{**row, "note": note} for row, note in zip(rows, result.notes)]
        rc, out, _ = run(["sweep", "--config", str(path)], capsys)
        assert rc == 0 and out == _reference_csv(columns, rows)
        rc, out, _ = run(["sweep", "--config", str(path), "--format", "json"], capsys)
        assert rc == 0 and out == _reference_json(json_rows, result.metadata)


def test_sweep_writers_format_each_axis_value_once(tmp_path, capsys, monkeypatch):
    formatted = []

    def counted(values, holes, text, encode=cli._encode):
        formatted.extend(v for v in values if isinstance(v, float))
        return encode(values, holes, text)

    monkeypatch.setattr(cli, "_encode", counted)
    cfg = {
        "sweep": {
            "model": "budget",
            "kind": "stability_region",
            "base": BUDGET,
            "axes": [
                {"name": "tax_rate", "min": 0.0, "max": 1.0, "points": 40},
                {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 30},
            ],
        }
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(cfg))
    for fmt in ("csv", "json"):
        formatted.clear()
        rc, _, err = run(["sweep", "--config", str(path), "--format", fmt], capsys)
        assert rc == 0 and "; 0 flagged" in err
        # each axis point once, then the pole of each cell
        assert len(formatted) == 40 + 30 + 1200


def test_a_sweep_and_its_writers_build_the_grid_index_once(tmp_path, capsys, monkeypatch):
    built = []

    def counted(grid, build=ParamGrid.indices.func):
        built.append(grid)
        return build(grid)

    indices = cached_property(counted)
    indices.__set_name__(ParamGrid, "indices")
    monkeypatch.setattr(ParamGrid, "indices", indices)
    for fmt in ("csv", "json"):
        built.clear()
        rc, out, _ = run(
            ["sweep", "--config", str(DATA / "sweep_budget.json"), "--format", fmt], capsys
        )
        assert rc == 0 and out == (GOLDEN / f"sweep_budget.{fmt}").read_text()
        assert len(built) == 1


def test_a_sweep_sections_mode_runs_as_the_base_mode(tmp_path, capsys):
    configs = {
        "sweep": {"model": "budget", "mode": "incremental", "base": BUDGET, "axes": TAX_AXIS},
        "base": {"model": "budget", "base": {**BUDGET, "mode": "incremental"}, "axes": TAX_AXIS},
    }
    written = {}
    for where, sec in configs.items():
        path = tmp_path / f"{where}.json"
        path.write_text(json.dumps({"sweep": sec}))
        for fmt in ("csv", "json"):
            rc, written[where, fmt], _ = run(
                ["sweep", "--config", str(path), "--format", fmt], capsys
            )
            assert rc == 0
    for fmt in ("csv", "json"):
        assert written["sweep", fmt] == written["base", fmt]
    doc = json.loads(written["sweep", "json"])
    # incremental mode: the direct pole (-0.15 + 0.12 at tax_rate 0) plus one
    assert doc["rows"][0]["pole"] == pytest.approx(0.97, abs=1e-12)


def test_a_region_runs_in_the_base_mode(tmp_path, capsys):
    axes = [*TAX_AXIS, {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 3}]
    poles = {}
    for mode in ("direct", "incremental"):
        base = {**BUDGET, "mode": mode}
        cfg = {"sweep": {"model": "budget", "kind": "stability_region", "base": base, "axes": axes}}
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        rc, out, _ = run(["sweep", "--config", str(path), "--format", "json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["metadata"]["mode"] == mode
        poles[mode] = [row["pole"] for row in doc["rows"]]
    assert poles["incremental"] == [1.0 + pole for pole in poles["direct"]]


def test_verify_config_tolerances(tmp_path, capsys):
    path = tmp_path / "strict.json"
    path.write_text(json.dumps({"verification": {"rk4_agreement": 1e-15}}))
    rc, out, _ = run(["verify", "--config", str(path)], capsys)
    assert rc == 3
    assert "FAIL rk4_agreement" in out
    # a flag override beats the config file
    rc, out, _ = run(
        ["verify", "--config", str(path), "--tolerance", "rk4_agreement=1e-6"],
        capsys,
    )
    assert rc == 0


def test_verify_config_rejects_non_numeric_tolerance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"verification": {"rk4_agreement": "tight"}}))
    rc, _, err = run(["verify", "--config", str(path)], capsys)
    assert rc == 1
    assert "must be a number" in err


def test_exit_code_missing_config(capsys):
    rc, _, err = run(["wage", "--config", "/no/such/file.json"], capsys)
    assert rc == 1
    assert "error:" in err


def test_exit_code_wrong_section(capsys):
    rc, _, err = run(["budget", "--config", str(DATA / "value_curve.json")], capsys)
    assert rc == 1
    assert "no 'budget' section" in err


def test_exit_code_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, _ = run(["wage", "--config", str(path)], capsys)
    assert rc == 1


def test_exit_code_domain_error(capsys):
    rc, _, err = run(["wage", "--config", str(DATA / "wage_margin_fail.json")], capsys)
    assert rc == 2
    assert "error:" in err


def test_exit_code_usage_errors(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["wage"]) == 1  # --config is required
    assert main([]) == 1
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["budget", "--help"]) == 0
    capsys.readouterr()


def test_verify_list_golden(capsys):
    rc, out, _ = run(["verify", "--list"], capsys)
    assert rc == 0
    assert out == (GOLDEN / "verify_list.txt").read_text()


def test_verify_report_golden(capsys):
    rc, out, _ = run(["verify"], capsys)
    assert rc == 0
    assert out == (GOLDEN / "verify_report.txt").read_text()


def test_verify_failure_exit_code(capsys):
    rc, out, _ = run(["verify", "--tolerance", "rk4_agreement=1e-15"], capsys)
    assert rc == 3
    assert "FAIL rk4_agreement" in out


def test_verify_bad_tolerance_flag(capsys):
    rc, _, err = run(["verify", "--tolerance", "rk4_agreement"], capsys)
    assert rc == 1
    rc, _, _ = run(["verify", "--tolerance", "rk4_agreement=abc"], capsys)
    assert rc == 1
    rc, _, err = run(["verify", "--tolerance", "no_such=1e-3"], capsys)
    assert rc == 1
    assert "unknown check names" in err
    # a NaN or negative tolerance fails any check, an infinite one passes any
    for value, got in [("nan", "nan"), ("-1", "-1.0"), ("inf", "inf"), ("1e400", "inf")]:
        rc, out, err = run(["verify", "--tolerance", f"rk4_agreement={value}"], capsys)
        assert (rc, out) == (1, "")
        assert err == f"error: tolerance 'rk4_agreement' must be finite and >= 0, got {got}\n"


def test_verify_config_rejects_negative_tolerance(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"verification": {"rk4_agreement": -1}}))
    rc, out, err = run(["verify", "--config", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: tolerance 'rk4_agreement' must be finite and >= 0, got -1.0\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ecodyn", "verify", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_list.txt").read_text()


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ecodyn", "budget", "--config", str(DATA / "budget_direct.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "budget_direct.csv").read_text()
    assert "pole:" in proc.stderr


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(tmp_path):
    # about 0.5 MB of CSV, more than the pipe holds, so writing blocks
    # until the reader is gone
    cfg = {
        "sweep": {
            "model": "budget",
            "kind": "stability_region",
            "base": BUDGET,
            "axes": [
                {"name": "tax_rate", "min": 0.0, "max": 1.0, "points": 100},
                {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 100},
            ],
        }
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ecodyn", "sweep", "--config", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "tax_rate,invest_share,pole,stable,flagged\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == "swept 10000 cells over ['tax_rate', 'invest_share']; 0 flagged\n"

import argparse
import ast
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import goldens
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecodyn import cli
from ecodyn.cli import main
from ecodyn.errors import NumericalFailure
from ecodyn.sweep import BINDINGS, Axis, ParamGrid, sweep

DATA = Path(__file__).parent / "data"


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("entry", goldens.ENTRIES)
def test_golden(capsys, entry):
    assert goldens.check(entry, lambda argv: run(argv, capsys)) == []


def test_the_large_sweep_flags_20_cells(capsys):
    # no stderr golden holds this run: stderr.txt reads tests/data/*.json
    # only, and its config sits in tests/data/extra
    rc, _, err = run(list(goldens.ENTRIES["sweep_budget_large.csv"]), capsys)
    assert rc == 0 and "swept 30 cells" in err and "20 flagged" in err


def test_wage_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    rc, out, _ = run([*goldens.ENTRIES["wage_curve.csv"], "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert target.read_bytes() == (goldens.GOLDEN / "wage_curve.csv").read_bytes()


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


def test_mode_flag_overrides_config(tmp_path, capsys):
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
    # more investment empties the incremental stable tax interval
    path = tmp_path / "empty_range.json"
    path.write_text(json.dumps({"budget": {**BUDGET, "invest_share": 0.2}}))
    rc, _, err = run(["budget", "--config", str(path), "--mode", "incremental"], capsys)
    assert rc == 0
    assert "tax leverage: -0.08999999999999997" in err
    assert "stable tax range: empty in this mode" in err


def test_mode_flag_overrides_only_a_valid_config_mode(tmp_path, capsys):
    path = tmp_path / "mode5.json"
    path.write_text(json.dumps({"budget": {**BUDGET, "mode": 5}}))
    rc, out, err = run(["budget", "--config", str(path), "--mode", "direct"], capsys)
    assert rc == 1 and out == ""
    assert err == "error: key 'mode' must be a string, got 5\n"


@pytest.mark.parametrize(
    "output, line",
    [
        ({"format": 5, "path": []}, "error: key 'format' must be a string, got 5\n"),
        ({"path": []}, "error: key 'path' must be a string, got []\n"),
    ],
    ids=["format", "path"],
)
def test_output_flags_override_only_a_valid_output_section(tmp_path, capsys, output, line):
    path = tmp_path / "output.json"
    path.write_text(json.dumps({"budget": BUDGET, "output": output}))
    target = tmp_path / "rows.json"
    argv = ["budget", "--config", str(path), "--format", "json", "--out", str(target)]
    assert run(argv, capsys) == (1, "", line)
    assert not target.exists()


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
    assert goldens.cell_diff(goldens.GOLDEN / "value_curve.csv", out) == []


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


def test_gains_just_off_balance_by_one_give_the_exponent_below_1(tmp_path, capsys):
    # the gains differ by 1 - 1.2e-16, whose reciprocal rounds to the float
    # below 1; rounding the difference first would give the singular 1.0
    cfg = {
        "value": {
            "inflation_gain": 1.0000000000000002,
            "deflation_gain": 1.2e-16,
            "grid": {"min": 1.0, "max": 2.0, "points": 3},
        }
    }
    path = tmp_path / "gains.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(["value", "--config", str(path), "--format", "json"], capsys)
    assert rc == 0
    assert "logarithmic" not in err
    assert json.loads(out)["metadata"]["exponent"] == 0.9999999999999999


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


def test_a_wage_run_evaluates_its_margin_as_often_for_any_grid(tmp_path, capsys, monkeypatch):
    # near break-even each margin takes the exact route, so a per-point
    # margin would cost the run its grid's length in Fraction sums
    from ecodyn import wage_profit as wp

    calls = []
    margin = wp.gross_margin
    monkeypatch.setattr(wp, "gross_margin", lambda cs: calls.append(1) or margin(cs))
    counts = []
    for points in (5, 50):
        path = tmp_path / f"wage{points}.json"
        grid = {"min": 1.0, "max": 3.0, "points": points}
        path.write_text(json.dumps({"wage": {**WAGE, "floor": 2.0, "grid": grid}}))
        calls.clear()
        rc, out, _ = run(["wage", "--config", str(path)], capsys)
        assert rc == 0 and len(out.splitlines()) == points + 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
# its 5 sampled points repeat: the max is the float just above the min
REPEATED_WAGE_GRID = {"min": 1.0, "max": 1.0000000000000002, "points": 5}
NONPOSITIVE_WAGE_GRID = {"min": -1.0, "max": 1.0, "points": 3}


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
    # the closed form stays below the largest double where the iteration's
    # rounding carries the last year past it
    "budget-iterated-overflow": (
        {
            "budget": {
                **dict.fromkeys(("tax_rate", "private_fraction", "foreign_multiplier"), 0),
                "spending_split": 1,
                "invest_share": 1.5,
                "gov_spending": 0,
                "initial_wages": 7.460712872350176e157,
                "horizon": 854,
            }
        },
        2,
        "iterated is not finite: inf",
    ),
    # the pole passes the float range while the one trajectory row stays
    # finite, so only the metadata holds the inf
    "budget-json-infinite-pole": (
        {
            "budget": {
                **BUDGET,
                "invest_share": 1e300,
                "foreign_multiplier": 1e10,
                "horizon": 0,
            },
            "output": {"format": "json"},
        },
        2,
        "cannot write the metadata as JSON",
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
    # 299 lanes take blocks of 13 steps, so the failure shows at the end of
    # the 30th block, and the run from step 0 names its step
    "value-rk4-overflow-in-a-late-block": (
        {
            "value": {
                "exponent": -5000,
                "grid": {"min": 1.0, "max": 3.0, "points": 300},
                "rk4_steps": 2000,
            }
        },
        2,
        "error: non-finite RK4 state after step 384 at x=1.384",
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
    # the grid is checked before the first report line as well
    "wage-grid-repeated-points": (
        {"wage": {**WAGE, "floor": 1.0, "grid": REPEATED_WAGE_GRID}},
        1,
        "wage grid must be strictly increasing",
    ),
    "wage-grid-nonpositive": (
        {"wage": {**WAGE, "grid": NONPOSITIVE_WAGE_GRID}},
        2,
        "wage grid must be positive, got -1.0",
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
    # no overflow warning from the grid's last step (found by fuzzing)
    "wage-grid-up-to-the-largest-double": (
        {"wage": {**WAGE, "grid": {"min": 1.0, "max": 1.7976931348623157e308, "points": 10}}},
        2,
        "first_derivative overflows the float range",
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
    # the gains' difference is the smallest subnormal, whose reciprocal
    # overflows; the config holds no 'exponent' key to blame
    "value-gains-exponent-past-float-range": (
        {
            "value": {
                "inflation_gain": 5e-324,
                "deflation_gain": 0.0,
                "grid": VALUE_CURVE["grid"],
            }
        },
        1,
        "the exponent 1/(inflation_gain - deflation_gain) = 1/(5e-324 - 0.0) "
        "is past the float range",
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
    # work past a bound (README, "Work bounds") stops the run as its config is
    # read, before any column of that size exists
    "wage-grid-points-past-bound": (
        {"wage": {**WAGE, "grid": {"min": 1.0, "max": 10.0, "points": 2**53 + 1}}},
        1,
        "axis 'grid' may have at most 1000000 points, got 9007199254740993",
    ),
    "region-cells-past-bound": (
        {
            "sweep": {
                "model": "budget",
                "kind": "stability_region",
                "base": BUDGET,
                "axes": [
                    {"name": "tax_rate", "min": 0.0, "max": 1.0, "points": 600_000},
                    {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 600_000},
                ],
            }
        },
        1,
        "a grid may have at most 1000000 cells, got 360000000000",
    ),
    "budget-horizon-past-bound": (
        {"budget": {**BUDGET, "horizon": 10**9}},
        1,
        "'horizon' must be <= 100000, got 1000000000",
    ),
    "value-rk4-steps-past-bound": (
        {"value": {**VALUE_CURVE, "rk4_steps": 2**53 + 1}},
        1,
        "'rk4_steps' must be <= 100000, got 9007199254740993",
    ),
    "value-rk4-work-past-bound": (
        {"value": {**VALUE_CURVE, "grid": {**VALUE_CURVE["grid"], "points": 20_000}, "rk4_steps": 10_000}},
        1,
        "'rk4_steps' times the grid points past the first must be <= 100000000, "
        "got 10000 x 19999",
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
            ("unknown-key", {"zz": 1}),
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
        "'work_effort', 'spending_efficiency']",
    ),
    "budget-deficiencies-currency-value": (
        {"budget": {**BUDGET, "deficiencies": {"currency_value": 0.1}}},
        1,
        "section 'deficiencies' does not read ['currency_value']; it reads ['tax_collection', "
        "'work_effort', 'spending_efficiency']",
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
    # an object's keys are read in the order its unread-key error lists
    # them, so of two faulty keys the first in that list is reported
    "wage-two-faults-price-before-factors": (
        {"wage": {**WAGE, "max_market_price": "x", "other_factors": 3}},
        1,
        "key 'max_market_price' must be a number, got 'x'",
    ),
    "wage-two-faults-floor-before-grid": (
        {"wage": {**WAGE, "floor": -1, "grid": {"min": 1.0, "max": 2.0}}},
        1,
        "floor must be finite and >= 0, got -1.0",
    ),
    "budget-two-faults-params-before-mode": (
        {"budget": {**BUDGET, "tax_rate": "x", "mode": 5}},
        1,
        "key 'tax_rate' must be a number, got 'x'",
    ),
    "budget-two-faults-horizon-before-mode": (
        {"budget": {**BUDGET, "horizon": "x", "mode": 5}},
        1,
        "key 'horizon' must be an integer, got 'x'",
    ),
    "value-two-faults-homog-coeff-before-rk4-steps": (
        {"value": {**VALUE_CURVE, "homog_coeff": "x", "rk4_steps": 0}},
        1,
        "key 'homog_coeff' must be a number, got 'x'",
    ),
    "probe-two-faults-true-value-before-exponents": (
        {"value": {"probe": {"true_value": "x", "exponents": []}}},
        1,
        "key 'true_value' must be a number, got 'x'",
    ),
    "sweep-two-faults-kind-before-base": (
        {"sweep": {"model": "budget", "kind": "grid", "base": 3, "axes": TAX_AXIS}},
        1,
        "'kind' must be sweep or stability_region, got 'grid'",
    ),
    "sweep-two-faults-kind-before-axes": (
        {"sweep": {"model": "budget", "kind": 5, "base": BUDGET, "axes": []}},
        1,
        "key 'kind' must be a string, got 5",
    ),
    # a base is checked against the axes after its keys are read
    "sweep-two-faults-base-value-before-missing-parameters": (
        {"sweep": {"model": "budget", "base": {"spending_split": "x"}, "axes": TAX_AXIS}},
        1,
        "key 'spending_split' must be a number, got 'x'",
    ),
    # every key present is read, also one the run would not use
    "value-balanced-gains-homog-coeff-string": (
        {
            "value": {
                "inflation_gain": 0.5,
                "deflation_gain": 0.5,
                "homog_coeff": "x",
                "grid": VALUE_CURVE["grid"],
            }
        },
        1,
        "key 'homog_coeff' must be a number, got 'x'",
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


# a domain error (exit 2) too, with or without a floor to report on
@pytest.mark.parametrize("floor", [{}, {"floor": 1.0}], ids=["no-floor", "floor"])
@pytest.mark.parametrize(
    "grid, code, line",
    [
        (REPEATED_WAGE_GRID, 1, "error: wage grid must be strictly increasing\n"),
        (NONPOSITIVE_WAGE_GRID, 2, "error: wage grid must be positive, got -1.0\n"),
    ],
    ids=["repeated", "nonpositive"],
)
def test_a_bad_wage_grid_stops_the_run_before_its_report(tmp_path, capsys, floor, grid, code, line):
    path = tmp_path / "wage.json"
    path.write_text(json.dumps({"wage": {**WAGE, **floor, "grid": grid}}))
    assert run(["wage", "--config", str(path)], capsys) == (code, "", line)


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


def _written(writer, *table):
    stream = io.StringIO()
    writer(cli._Table(*table), stream)
    return stream.getvalue()


WRITER_EDGE_COLUMNS = {
    "first": [0.5, -2.0, 1e-300, 4.0, 2.5],
    "mid": [0, 1, 2, 3, 4],
    "last": np.array(["n0", 'n"1', "", "n3", "caf\u00e9"], dtype=object),
}
WRITER_EDGE_HOLES = [True, False, True, True, False]
# (_BLOCK_ROWS, columns, sparse); JSON writes blocks of a quarter of
# _BLOCK_ROWS rows, at least one, so 8 gives it the blocks that 2 gives CSV
WRITER_EDGE_CASES = [
    (2, WRITER_EDGE_COLUMNS, ("first",)),
    (8, WRITER_EDGE_COLUMNS, ("first",)),
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
    assert _written(cli._write_csv, columns, metadata) == _reference_csv(list(columns), rows)
    # JSON cells and metadata must be finite (see the two
    # test_json_writer_rejects_non_finite_* tests)
    columns["x"][2:] = [1e300, -1e-300]
    columns["gap"][2] = -1e300
    metadata["pole"] = 1e300
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert _written(cli._write_json, columns, metadata) == _reference_json(rows, metadata)
    empty = {"a": [], "b": []}
    assert _written(cli._write_csv, empty, metadata) == _reference_csv(["a", "b"], [])
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
        cli._write_csv(cli._Table(columns, metadata, holes, sparse), written)
        assert written.getvalue() == _reference_csv(list(columns), rows)
        json_rows = [
            {name: v for name, v in row.items() if not (hole and name in sparse)}
            for row, hole in zip(rows, WRITER_EDGE_HOLES)
        ]
        written = io.StringIO()
        cli._write_json(cli._Table(columns, metadata, holes, sparse), written)
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
        cli._write_csv(cli._Table(columns, metadata, holes, sparse), written)
        assert written.getvalue() == _reference_csv(list(columns), rows)
        json_rows = [
            {name: v for name, v in row.items() if not (hole and name in sparse)}
            for row, hole in zip(rows, values["flagged"])
        ]
        written = io.StringIO()
        cli._write_json(cli._Table(columns, metadata, holes, sparse), written)
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
        cli._emit("json", str(out), cli._Table(columns, {"rows": 4}))
    assert not out.exists()
    # CSV spells them as repr does
    assert _written(cli._write_csv, columns, {"rows": 4}).splitlines()[-1] == f"{bad!r},4"
    # a hole is left out, not checked
    holes = np.array([False, False, False, True])
    written = io.StringIO()
    cli._write_json(cli._Table(columns, {"rows": 4}, holes, ("x",)), written)
    assert [row.get("x") for row in json.loads(written.getvalue())["rows"]] == [0.5, 1.5, 2.5, None]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite_metadata(tmp_path, bad):
    columns, metadata = {"x": [0.5]}, {"pole": bad, "rows": 1}
    with pytest.raises(NumericalFailure, match="cannot write the metadata as JSON"):
        _written(cli._write_json, columns, metadata)
    # --out is removed rather than left empty
    out = tmp_path / "rows.json"
    with pytest.raises(NumericalFailure, match="cannot write the metadata as JSON"):
        cli._emit("json", str(out), cli._Table(columns, metadata))
    assert not out.exists()


def _fill_then_fail(table, stream):
    stream.write("partial,table\n")
    raise OSError(28, "No space left on device")


def test_a_failed_write_removes_out_only_if_it_is_a_regular_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_write_csv", _fill_then_fail)
    line = "error: cannot write output {!r}: [Errno 28] No space left on device\n"
    out = tmp_path / "rows.csv"
    rc, stdout, err = run([*goldens.ENTRIES["budget_direct.csv"], "--out", str(out)], capsys)
    assert (rc, stdout) == (1, "") and err.endswith(line.format(str(out)))
    assert not out.exists()
    # a symlink is left as it is, and so is the file it names
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    rc, _, err = run([*goldens.ENTRIES["budget_direct.csv"], "--out", str(link)], capsys)
    assert rc == 1 and err.endswith(line.format(str(link)))
    assert link.is_symlink() and target.read_text() == "partial,table\n"


def test_an_empty_out_flag_is_a_path_that_cannot_be_opened(capsys):
    rc, out, err = run([*goldens.ENTRIES["budget_direct.csv"], "--out", ""], capsys)
    assert (rc, out) == (1, "")
    assert err.endswith("error: cannot write output '': [Errno 2] No such file or directory: ''\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [goldens.ENTRIES["budget_direct.csv"], ("verify",), ("--help",), ("--version",), ("sweep", "--help")],
    ids=["budget", "verify", "help", "version", "sweep-help"],
)
def test_a_full_stdout_exits_1_with_one_error_line(argv):
    # argparse drops the OSError of its own help and version writes
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ecodyn", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 1
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        "error: cannot write to stdout: [Errno 28] No space left on device"
    ]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


CLOSED_STDOUT_ERROR = ["error: cannot write to stdout: [Errno 9] Bad file descriptor"]


@pytest.mark.parametrize(
    "argv, code, errors",
    [
        (goldens.ENTRIES["budget_direct.csv"], 1, CLOSED_STDOUT_ERROR),
        (("verify",), 1, CLOSED_STDOUT_ERROR),
        (("--help",), 1, CLOSED_STDOUT_ERROR),
        (("--version",), 1, CLOSED_STDOUT_ERROR),
        ((*goldens.ENTRIES["budget_direct.csv"], "--out", "{out}"), 0, []),
    ],
    ids=["budget", "verify", "help", "version", "budget-out"],
)
def test_a_closed_stdout_fails_only_a_run_that_writes_to_it(tmp_path, argv, code, errors):
    # as `ecodyn ... >&-`: the child starts with no file descriptor 1, and
    # Python sets sys.stdout to None
    out = tmp_path / "rows.csv"
    argv = [arg.format(out=out) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "ecodyn", *argv],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == code
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == errors
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if not code:
        assert out.read_text() == (goldens.GOLDEN / "budget_direct.csv").read_text()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (goldens.ENTRIES["sweep_region.csv"], 0, "sweep_region.csv"),
        (goldens.ENTRIES["budget_direct.csv"], 0, "budget_direct.csv"),
        (("verify", "--tolerance", "nope=1"), 1, None),
        (("verify", "--nope"), 1, None),
    ],
    ids=["sweep", "budget", "config-error", "usage-error"],
)
def test_a_closed_or_full_stderr_changes_neither_stdout_nor_the_exit_code(argv, code, golden, stderr):
    # as `ecodyn ... 2>&-`, where Python sets sys.stderr to None, and as
    # `ecodyn ... 2>/dev/full`: the report and error lines are lost, the data is not
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ecodyn", *argv],
            stdout=subprocess.PIPE,
            stderr=full if stderr == "full" else None,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
        )
    assert proc.returncode == code
    assert proc.stdout == ((goldens.GOLDEN / golden).read_bytes() if golden else b"")


# a run through entry() as the console script makes it, with an atexit
# handler registered before it that reports whether the heap was frozen
SHUTDOWN_CHILD = """
import atexit, gc, sys
from ecodyn import cli
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["ecodyn", "verify", "--list"]
cli.entry()
"""


def test_a_run_ends_through_atexit_with_its_heap_frozen():
    proc = subprocess.run([sys.executable, "-c", SHUTDOWN_CHILD], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "atexit: frozen True\n")
    assert proc.stdout == (goldens.GOLDEN / "verify_list.txt").read_text()


@pytest.mark.parametrize(
    "argv, code, closed",
    [
        (goldens.ENTRIES["budget_direct.csv"], 0, False),
        (("verify", "--tolerance", "nope=1"), 1, False),
        (("wage", "--config", str(DATA / "wage_margin_fail.json")), 2, False),
        (("verify", "--tolerance", "regrouping_identity=0"), 3, False),
        (goldens.ENTRIES["budget_direct.csv"], 1, True),
    ],
    ids=["0", "1", "2", "3", "closed-stdout"],
)
def test_entry_freezes_the_heap_once_after_main_returns(monkeypatch, capsys, argv, code, closed):
    # gc.freeze is stubbed: the real one would freeze the test process's heap
    events = []
    real_main = cli.main

    def main():
        events.append("main")
        rc = real_main(list(argv))
        events.append("returned")
        return rc

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    if closed:
        monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
    # the write to a closed stdout ends main with OSError, not a return
    assert events == (["main", "freeze"] if closed else ["main", "returned", "freeze"])
    if closed:
        assert capsys.readouterr().err.endswith(CLOSED_STDOUT_ERROR[0] + "\n")


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
    # the whole double range, the edges, NaN and the infinities, in bulk
    # (one orjson call) and cell by cell, as a table of one block is
    values = [*drawn, *EDGE_FLOATS, *(-v for v in EDGE_FLOATS), math.nan, math.inf, -math.inf]
    drawn_holes = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    for bulk in (True, False):
        holes = np.array(drawn_holes)
        expected = ["" if hole else repr(v) for v, hole in zip(values, holes.tolist())]
        assert cli._encode(np.array(values), holes, cli._CSV_TEXT, bulk) == expected
        # JSON refuses a non-finite cell unless it is a hole
        bad = [v for v, hole in zip(values, holes.tolist()) if not (hole or math.isfinite(v))]
        if bad:
            with pytest.raises(NumericalFailure, match=f"non-finite value {bad[0]!r} as JSON"):
                cli._encode(np.array(values), holes, cli._JSON_TEXT, bulk)
        holes |= ~np.isfinite(values)
        expected = ["" if hole else repr(v) for v, hole in zip(values, holes.tolist())]
        assert cli._encode(np.array(values), holes, cli._JSON_TEXT, bulk) == expected


@pytest.mark.parametrize("rows", [5, 6])
def test_tables_of_one_block_and_of_two_match_the_reference_writers(monkeypatch, rows):
    # with blocks of 5 rows, a table of 5 encodes each float cell alone and
    # never imports orjson, while a table of 6 takes the bulk route in both
    # of its blocks and in its indexed column
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 5)
    axis = [0.25, 1e-7]
    values = {
        "x": [1e-5, -0.0, 2.5, 1.5e16, -1e300, 5e-324][:rows],
        "i": list(range(rows)),
        "axis": [axis[j % 2] for j in range(rows)],
        "ok": [j % 3 == 0 for j in range(rows)],
    }
    holes = [j % 4 == 1 for j in range(rows)]
    columns = {**values, "axis": cli._Indexed(axis, np.arange(rows) % 2), "ok": np.array(values["ok"])}
    table = cli._Table(columns, {"rows": rows}, np.array(holes), ("x",))
    csv_rows = [
        {name: None if hole and name == "x" else values[name][j] for name in values}
        for j, hole in enumerate(holes)
    ]
    json_rows = [{name: v for name, v in row.items() if v is not None} for row in csv_rows]
    if rows == 5:
        monkeypatch.setitem(sys.modules, "orjson", None)  # any import of orjson fails
    assert _written(cli._write_csv, *table) == _reference_csv(list(values), csv_rows)
    assert _written(cli._write_json, *table) == _reference_json(json_rows, {"rows": rows})
    if rows == 6:
        monkeypatch.setitem(sys.modules, "orjson", None)
        with pytest.raises(ImportError):
            _written(cli._write_csv, *table)


def _random_doubles(seed, count, exponents):
    """count doubles with random mantissas and signs, their binary exponents
    drawn from the range exponents (-1023 gives subnormals)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**52, count, dtype=np.uint64)
    bits |= rng.integers(1023 + exponents.start, 1023 + exponents.stop, count, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def test_bulk_float_range_encodes_as_repr():
    # random mantissas and signs with exponents -14 to 53, so magnitudes in
    # [2**-14, 2**54), kept inside [1e-4, 1e16)
    x = _random_doubles(20261018, 150_000, range(-14, 54))
    values = x[(abs(x) >= 1e-4) & (abs(x) < 1e16)][:100_000]
    assert len(values) == 100_000
    expected = list(map(float.__repr__, values.tolist()))
    assert cli._encode(values, None, cli._CSV_TEXT) == expected


def test_floats_from_1e16_up_encode_as_repr():
    # orjson writes 1.5e16 where repr writes 1.5e+16, and the block's text
    # gets repr's sign back: exponents 53 to 1023, so magnitudes from 1e16 to
    # the largest double, both signs, with each power of ten in that range
    x = _random_doubles(20261019, 150_000, range(53, 1024))
    tens = [10.0**k for k in range(16, 309)] + [sys.float_info.max]
    large = np.concatenate([x[abs(x) >= 1e16][:100_000], tens, np.negative(tens)])
    assert len(large) == 100_000 + 2 * 294
    expected = list(map(float.__repr__, large.tolist()))
    assert cli._encode(large, None, cli._CSV_TEXT) == expected
    assert cli._encode(large, None, cli._JSON_TEXT) == expected
    # blocks that mix them with nonzero cells below 1e-4, zeros, nan, inf
    # and holes, and a block whose only large cells are holes
    small = _random_doubles(20261020, 5_000, range(-1023, -14))
    odd = [0.0, -0.0, math.nan, math.inf, -math.inf] * 40
    rng = np.random.default_rng(20261021)
    mixed = rng.permutation(np.concatenate([large[:5_000], small, odd]))
    holes = rng.random(mixed.size) < 0.25
    for values, holes in [(mixed, holes), (mixed[:4096], abs(mixed[:4096]) >= 1e16)]:
        expected = ["" if hole else repr(v) for v, hole in zip(values.tolist(), holes.tolist())]
        assert cli._encode(values, holes, cli._CSV_TEXT) == expected
        holes = holes | ~np.isfinite(values)  # JSON refuses nan and inf
        expected = ["" if hole else repr(v) for v, hole in zip(values.tolist(), holes.tolist())]
        assert cli._encode(values, holes, cli._JSON_TEXT) == expected


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


def test_orjson_is_loaded_only_for_a_table_longer_than_one_block(tmp_path):
    # a value curve's 300 rows fit one block of 4096; a 65 x 64 region's
    # 4160 cells do not
    region = {
        "sweep": {
            "model": "budget",
            "kind": "stability_region",
            "base": BUDGET,
            "axes": [
                {"name": "tax_rate", "min": 0.0, "max": 1.0, "points": 65},
                {"name": "invest_share", "min": 0.0, "max": 2.0, "points": 64},
            ],
        }
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    code = (
        "import sys\n"
        "from ecodyn import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, 'orjson' in sys.modules)\n"
    )
    runs = [
        ([*goldens.ENTRIES["value_curve.csv"]], "0 False\n"),
        (["sweep", "--config", str(path)], "0 True\n"),
        (["sweep", "--config", str(path), "--format", "json"], "0 True\n"),
    ]
    for argv, loaded in runs:
        out = tmp_path / "rows.out"
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(out)], capture_output=True, text=True
        )
        assert proc.stdout == loaded, proc.stderr
    assert len(out.read_text().splitlines()) > cli._BLOCK_ROWS


# each run's golden entry and the models it loads; a reader table built
# at module level would name a model class and load every model
LOADING_RUNS = {
    "value": ("value_curve.csv", {"value_feedback", "oracles"}),
    "budget-sweep": ("sweep_budget.csv", {"budget_dynamics", "sweep"}),
    "budget": ("budget_direct.csv", {"budget_dynamics"}),
    "wage": ("wage_curve.csv", {"wage_profit"}),
}


@pytest.mark.parametrize("name", LOADING_RUNS)
def test_a_run_loads_only_its_models(name):
    entry, models = LOADING_RUNS[name]
    # -v writes "import 'name' # loader" to stderr for every module loaded
    argv = ["-v", "-m", "ecodyn", *goldens.ENTRIES[entry]]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert proc.returncode == 0
    assert goldens.cell_diff(goldens.GOLDEN / entry, proc.stdout) == []
    loaded = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}
    assert {f"ecodyn.{m}" for m in models} <= loaded
    assert not loaded & {f"ecodyn.{m}" for m in MODELS if m not in models}


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

    def counted(values, holes, text, bulk, encode=cli._encode):
        formatted.extend(v for v in values if isinstance(v, float))
        return encode(values, holes, text, bulk)

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


def test_json_writes_a_quarter_of_the_rows_of_a_csv_block(monkeypatch):
    # a JSON row's text is about four times a CSV row's, so the blocks of
    # text the two writers hold are about the same size
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)

    def writes(writer):
        stream = io.StringIO()
        texts = []
        stream.write = lambda text, write=stream.write: texts.append(text) or write(text)
        writer(cli._Table({"step": list(range(20)), "level": [0.5] * 20}, {"rows": 20}), stream)
        return texts

    # after the header line, one write per block of 8 rows
    assert [text.count("\n") for text in writes(cli._write_csv)[1:]] == [8, 8, 4]
    # between the head and the closing lines, one write per block of 2 rows
    assert [text.count('"level"') for text in writes(cli._write_json)[1:-1]] == [2] * 10


class _Discard(io.TextIOBase):
    """A stream that keeps nothing written to it."""

    def write(self, text):
        return len(text)


def test_a_sweep_and_its_json_hold_no_transient_copy_of_the_grid(capsys):
    # the evaluator's columns hold one block of cells and the JSON text one
    # block of rows, so beyond what they return or keep, neither sweep()
    # nor the writer holds more memory as the grid grows fourfold
    transient = {}
    for points in (300, 600):
        section = {
            "model": "budget",
            "base": {**BUDGET, "mode": "incremental", "horizon": 50},
            "axes": [
                {"name": "tax_rate", "min": 0.0, "max": 1.0, "points": points},
                {"name": "spending_split", "min": 0.0, "max": 1.25, "points": points},
            ],
        }
        grid = ParamGrid(tuple(Axis(*axis.values()) for axis in section["axes"]))
        table = cli._sweep(section, argparse.Namespace(format="json"))
        assert 0 < table.metadata["flagged"] < grid.cells
        tracemalloc.start()
        try:
            result = sweep(BINDINGS["budget"], section["base"], grid)
            kept, swept = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cli._write_json(table, _Discard())
            _, written = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.metadata == table.metadata
        transient[points] = (swept - kept, written - kept)
    for small, large in zip(transient[300], transient[600]):
        assert large < small + 250_000 and large < 2_000_000


def test_a_sweep_and_its_writers_build_the_grid_index_once(tmp_path, capsys, monkeypatch):
    built = []

    def counted(grid, build=ParamGrid.indices.func):
        built.append(grid)
        return build(grid)

    indices = cached_property(counted)
    indices.__set_name__(ParamGrid, "indices")
    monkeypatch.setattr(ParamGrid, "indices", indices)
    for entry in ("sweep_budget.csv", "sweep_budget.json"):
        built.clear()
        assert goldens.check(entry, lambda argv: run(argv, capsys)) == []
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


# 0.1 + 0.2 rounds to this price, so the float margin is 0.0, but the
# exact margin of these floats is +2.7755575615628914e-17
BREAK_EVEN = {
    "max_market_price": 0.30000000000000004,
    "labor_weight": 0.7,
    "other_factors": [[0.1, 1.0], [0.2, 1.0]],
}


def test_a_margin_that_rounds_to_zero_keeps_its_exact_sign(tmp_path, capsys):
    path = tmp_path / "break_even.json"
    path.write_text(json.dumps({"wage": {**BREAK_EVEN, "floor": 1.0}}))
    rc, _, err = run(["wage", "--config", str(path)], capsys)
    assert rc == 0, err
    assert "gross margin: 2.7755575615628914e-17" in err


def test_a_wage_sweep_near_break_even_keeps_its_cells(tmp_path, capsys):
    axis = {"name": "wage", "min": 1.0, "max": 2.0, "points": 3}
    path = tmp_path / "break_even_sweep.json"
    path.write_text(json.dumps({"sweep": {"model": "wage", "base": BREAK_EVEN, "axes": [axis]}}))
    rc, out, err = run(["sweep", "--config", str(path)], capsys)
    assert rc == 0, err
    assert len(out.splitlines()) == 4  # the header and 3 cells


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


# Each object a data subcommand reads, with one key it does not read; the
# output object is read by every one. Sweep base keys depend on the model.
EXTRA_KEY_CONFIGS = {
    "wage": ("wage", {"wage": {**WAGE, "zz": 1}}),
    "wage-grid": ("wage", {"wage": {**WAGE, "grid": {**VALUE_CURVE["grid"], "zz": 1}}}),
    "value": ("value", {"value": {**VALUE_CURVE, "zz": 1}}),
    "value-grid": ("value", {"value": {**VALUE_CURVE, "grid": {**VALUE_CURVE["grid"], "zz": 1}}}),
    "probe": ("value", {"value": {"probe": {"true_value": 2.0, "exponents": [-2.0], "zz": 1}}}),
    "budget": ("budget", {"budget": {**BUDGET, "zz": 1}}),
    "deficiencies": ("budget", {"budget": {**BUDGET, "deficiencies": {"zz": 1}}}),
    "sweep": ("sweep", {"sweep": {"model": "budget", "base": BUDGET, "axes": TAX_AXIS, "zz": 1}}),
    "sweep-axis": ("sweep", {"sweep": {"model": "budget", "axes": [{**TAX_AXIS[0], "zz": 1}]}}),
    **{
        f"{command}-output": (command, {command: {}, "output": {"zz": 1}})
        for command in ("wage", "value", "budget", "sweep")
    },
}


@pytest.mark.parametrize("name", EXTRA_KEY_CONFIGS)
def test_help_names_every_key_the_subcommand_reads(tmp_path, capsys, name):
    # the key list comes from the error an extra key raises, and each key must
    # be in the subcommand's --help, its description or an option's help
    command, cfg = EXTRA_KEY_CONFIGS[name]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(cfg))
    rc, _, err = run([command, "--config", str(path)], capsys)
    owner, _, reads = err.strip().partition(" does not read ['zz']; it reads ")
    assert rc == 1 and reads
    keys = ast.literal_eval(reads)
    if owner == "error: section 'output'":
        keys = [f"output.{key}" for key in keys]
    rc, text, _ = run([command, "--help"], capsys)
    assert rc == 0
    assert [key for key in keys if not re.search(rf"\b{re.escape(key)}\b", text)] == []


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

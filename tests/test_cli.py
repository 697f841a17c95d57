import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecodyn import cli
from ecodyn.cli import main
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


def test_sweep_region_golden(capsys):
    rc, out, err = run(["sweep", "--config", str(DATA / "sweep_region.json")], capsys)
    assert rc == 0
    assert out == (GOLDEN / "sweep_region.csv").read_text()
    assert "swept 9 cells" in err


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


def _budget_sweep(**base):
    return {"sweep": {"model": "budget", "base": {**BUDGET, **base}, "axes": TAX_AXIS}}


# json.dumps cannot write an integer this long, so the test writes the
# config with this string swapped for the digits.
LONG_INT = "<integer of 5001 digits>"

# Each of these ends in one error line, never a traceback, a silently
# converted value or a non-finite number in the output: mistyped values and
# integers beyond the float range are config errors (exit 1), overflow and
# non-finite results are numerical failures (exit 2).
BAD_CONFIGS = {
    "sweep-string-value": (_budget_sweep(private_fraction="high"), 1, "must be a number"),
    "sweep-boolean-value": (_budget_sweep(private_fraction=True), 1, "must be a number"),
    "sweep-horizon-string": (_budget_sweep(horizon="abc"), 1, "must be an integer"),
    "sweep-horizon-null": (_budget_sweep(horizon=None), 1, "must be an integer"),
    "sweep-horizon-fraction": (_budget_sweep(horizon=2.5), 1, "must be an integer"),
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
        2,
        "gap is not finite: nan",
    ),
    "wage-grid-squared-wage-underflows": (
        {"wage": {**WAGE, "grid": {"min": 1e-200, "max": 1.0, "points": 3}}},
        2,
        "first_derivative overflows the float range",
    ),
    "wage-grid-second-derivative-overflows": (
        {"wage": {**WAGE, "grid": {"min": 1e-103, "max": 1.0, "points": 3}}},
        2,
        "second_derivative is not finite: inf",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_bad_configs_exit_with_one_error_line(tmp_path, capsys, name):
    cfg, code, message = BAD_CONFIGS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace(json.dumps(LONG_INT), "1" * 5001))
    rc, out, err = run([next(iter(cfg)), "--config", str(path)], capsys)
    assert rc == code
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


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


def test_writers_match_the_reference_route(monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)  # rows span two write blocks
    columns = {
        "step": [0, 1, 2, 3],
        "x": [0.1, -0.0, 1e300 * 10, math.nan],
        "ok": [True, False, True, False],
        'label {0}, "q"': ["plain", 'quote " and, comma', "line\nbreak", "caf\u00e9 {0}"],
        "gap": [None, 2.5, -math.inf, np.float64(1e-320)],
    }
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    metadata = {"command": "test", "exponent": None, "pole": math.inf, "rows": 4}
    assert _written(cli._write_csv, columns) == _reference_csv(list(columns), rows)
    assert _written(cli._write_json, columns, metadata) == _reference_json(rows, metadata)
    empty = {"a": [], "b": []}
    assert _written(cli._write_csv, empty) == _reference_csv(["a", "b"], [])
    assert _written(cli._write_json, empty, metadata) == _reference_json([], metadata)


def test_sweep_output_matches_the_record_route(tmp_path, capsys, monkeypatch):
    # flagged rows drop their output keys in JSON and leave empty CSV cells
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    base = {"true_value": 2.0, "homog_coeff": 0.5}
    cfg = {
        "sweep": {
            "model": "value",
            "base": base,
            "axes": [
                {"name": "exponent", "min": -1.0, "max": 3.0, "points": 5},
                {"name": "true_value", "min": -1.0, "max": 2.0, "points": 4},
            ],
        }
    }
    path = tmp_path / "value_sweep.json"
    path.write_text(json.dumps(cfg))
    grid = ParamGrid((Axis("exponent", -1.0, 3.0, 5), Axis("true_value", -1.0, 2.0, 4)))
    result = sweep(BINDINGS["value"], base, grid)
    assert 0 < result.metadata["flagged"] < grid.cells
    columns = ["exponent", "true_value", "market_value", "gap", "flagged"]
    rows = []
    for k, flagged in enumerate(result.flagged):
        row = {name: column[k] for name, column in result.coords.items()}
        if not flagged:
            row.update({name: column[k] for name, column in result.outputs.items()})
        rows.append({**row, "flagged": flagged})
    json_rows = [{**row, "note": note} for row, note in zip(rows, result.notes)]
    rc, out, _ = run(["sweep", "--config", str(path)], capsys)
    assert rc == 0 and out == _reference_csv(columns, rows)
    rc, out, _ = run(["sweep", "--config", str(path), "--format", "json"], capsys)
    assert rc == 0 and out == _reference_json(json_rows, result.metadata)


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

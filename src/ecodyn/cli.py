"""Command-line front end.

Subcommands map one-to-one onto the model modules: ``wage``, ``value``
and ``budget`` evaluate a single configuration from a JSON file,
``sweep`` grids one or more parameters, and ``verify`` runs the built-in
numerical audit. Data rows go to stdout (or --out) as CSV or JSON;
human-oriented summaries go to stderr so pipelines stay clean. The one
exception is ``verify``, whose pass/fail lines are its data product and
therefore print to stdout.

Exit codes: 0 success, 1 configuration or usage error, 2 model domain
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .errors import DomainError, EcodynError, InvariantViolation, NumericalFailure, finite
from .grid import Axis, ParamGrid
from .schema import MODES, check_keys, integer, is_number, number, read, string

# Each subcommand imports the models it runs, so a run loads no other
# model; they are read as module attributes at call time.
if TYPE_CHECKING:
    from . import value_feedback as vf


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _finite_float(literal: str) -> float:
    """A JSON number literal, or NaN, Infinity or -Infinity, as a finite float."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise InvariantViolation(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, undecodable UTF-8, an integer literal too long
        # for int() to convert, or a non-finite number
        raise InvariantViolation(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvariantViolation(f"config {path!r} must hold a JSON object")
    return cfg


def _section(cfg: dict[str, Any], name: str, default: Any = MISSING) -> dict[str, Any]:
    section = cfg.get(name, default)
    if section is MISSING:
        raise InvariantViolation(f"config has no {name!r} section")
    if not isinstance(section, dict):
        raise InvariantViolation(f"config section {name!r} must be an object")
    return section


def _axis(name: str, spec: dict[str, Any]) -> Axis:
    return Axis(name, number(spec, "min"), number(spec, "max"), integer(spec, "points"))


def _grid_values(section: dict[str, Any]) -> list[float]:
    spec = section.get("grid")
    if not isinstance(spec, dict):
        raise InvariantViolation("section needs a 'grid' object with min/max/points")
    check_keys(spec, "section 'grid'", "min", "max", "points")
    return _axis("grid", spec).grid()


def _csv_quoted(text: str) -> str:
    """text as csv.writer's minimal quoting writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


def _json_float(v: float) -> str:
    if not math.isfinite(v):
        raise NumericalFailure(f"cannot write the non-finite value {v!r} as JSON")
    return float.__repr__(v)


# Each format's text of a cell, by the numpy kind of its column. orjson
# writes float.__repr__'s digits for 0 and for 1e-4 <= |v| < 1e16; "f"
# gets only the other floats, whose exponent orjson writes without its
# sign and zero padding, and nan and inf, which it writes as null. "b" is
# the text of False and of True, which a bool column gathers by its bytes.
_Text = dict[str, Any]
_CSV_TEXT: _Text = {
    "f": float.__repr__,
    "b": np.array(["0", "1"], dtype=object),
    "i": int.__repr__,
    "O": _csv_quoted,  # str objects
}
_JSON_TEXT: _Text = {
    "f": _json_float,
    "b": np.array(["false", "true"], dtype=object),
    "i": int.__repr__,
    "O": encode_basestring_ascii,  # str objects, as a sweep's notes
}


def _encode(values: Any, holes: np.ndarray | None, text: _Text) -> list[str]:
    """Each cell's text in one format, "" where holes marks it. A float column
    is one orjson call, and text["f"] redoes its cells outside orjson's range;
    a bool column is one gather."""
    values = np.asarray(values)
    holes = np.zeros(values.shape, dtype=bool) if holes is None else holes
    if values.dtype.kind == "f":
        import orjson  # not at module top: it pulls in uuid and zoneinfo

        cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        size = np.abs(values)
        redo = np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0) & ~holes)
        for k, v in zip(redo.tolist(), values[redo].tolist()):
            cells[k] = text["f"](v)
    elif values.dtype.kind == "b":
        cells = text["b"][values.view(np.uint8)].tolist()
    else:
        cells = list(map(text[values.dtype.kind], values.tolist()))
    for k in np.flatnonzero(holes).tolist():
        cells[k] = ""
    return cells


@dataclass(frozen=True)
class _Indexed:
    """A column given as a list of values and, for each row, the position
    of the row's value in that list; the writers encode each value once."""

    values: list[Any]
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


_Columns = dict[str, Any]  # a list, a numpy column or an _Indexed per column


def _coordinates(grid: ParamGrid) -> dict[str, _Indexed]:
    """The grid's coordinate columns, each as its axis grid and an index.

    Grid values are never merged by equality: 0.0 == -0.0, but repr
    tells them apart."""
    indices = grid.indices.values()
    return {a.name: _Indexed(a.grid(), index) for a, index in zip(grid.axes, indices)}


# Rows are encoded and written a block at a time, so a large table never
# holds all of its encoded text in memory at once.
_BLOCK_ROWS = 4096


def _row_blocks(
    columns: _Columns, text: _Text, holes: np.ndarray | None, sparse: tuple[str, ...]
) -> Iterator[tuple[list[list[str]], np.ndarray]]:
    """Each block of rows as its cells' text, column by column, with its
    slice of holes, which blank the columns named in sparse. An indexed
    column's values are encoded once; a block gathers their text by index."""
    texts = {
        name: np.array(_encode(column.values, None, text), dtype=object)
        for name, column in columns.items()
        if isinstance(column, _Indexed)
    }
    rows = len(next(iter(columns.values()), ()))
    holes = np.zeros(rows, dtype=bool) if holes is None else holes
    for start in range(0, rows, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block_holes = holes[start:stop]
        block = [
            texts[name][column.index[start:stop]].tolist()
            if name in texts
            else _encode(column[start:stop], block_holes if name in sparse else None, text)
            for name, column in columns.items()
        ]
        yield block, block_holes


def _write_csv(
    columns: _Columns, stream: IO[str], holes: np.ndarray | None = None, sparse: tuple = ()
) -> None:
    """Write a header and one line per row, as csv.writer would, with the
    columns named in sparse empty in rows marked in holes. Every table here
    has at least two columns, so csv's special case of a row made of one
    empty field never arises."""
    stream.write(",".join(map(_csv_quoted, columns)) + "\n")
    for encoded, _ in _row_blocks(columns, _CSV_TEXT, holes, sparse):
        stream.write("\n".join(map(",".join, zip(*encoded))) + "\n")


def _json_keys(names: list[str], leave_out: tuple[str, ...]) -> list[str]:
    """The text before each cell of a row object: the key of column i, with
    no comma for the first key present, or "" where leave_out names the
    column. Entry 0 also carries the comma after the previous row and this
    row's opening brace."""
    keys = []
    comma = ""
    for name in names:
        if name in leave_out:
            keys.append("")
        else:
            keys.append(comma + "\n      " + encode_basestring_ascii(name) + ": ")
            comma = ","
    keys[0] = ",\n    {" + keys[0]
    return keys


def _write_json(
    columns: _Columns,
    metadata: dict[str, Any],
    stream: IO[str],
    holes: np.ndarray | None = None,
    sparse: tuple[str, ...] = (),
) -> None:
    """Write {"metadata": ..., "rows": [...]} as json.dump(indent=2) would.

    Rows marked in holes leave out the keys named in sparse. json.dump
    with an indent always runs the pure-Python encoder, so each block of
    rows is one join of the encoded cells and the key texts, which are
    worked out once: per row, each column's key text and cell, then the
    closing brace.
    """
    head = json.dumps({"metadata": metadata, "rows": []}, indent=2)
    if not len(next(iter(columns.values()), ())):
        stream.write(head + "\n")
        return
    names = list(columns)
    full = _json_keys(names, ())
    holed = _json_keys(names, sparse)
    # a column's key text in a full row and in a row in a hole
    choices = [np.array(pair, dtype=object) for pair in zip(full, holed)]
    width = 2 * len(names) + 1
    stream.write(head[: head.rindex("[]")] + "[\n")
    skip = len(",\n")  # the first row follows the opening bracket, not a row
    for encoded, block_holes in _row_blocks(columns, _JSON_TEXT, holes, sparse):
        rows = len(block_holes)
        picks = block_holes.astype(np.intp)
        pieces = ["\n    }"] * (rows * width)
        for j, cells in enumerate(encoded):
            if full[j] == holed[j]:
                pieces[2 * j :: width] = [full[j]] * rows
            else:
                pieces[2 * j :: width] = choices[j][picks].tolist()
            pieces[2 * j + 1 :: width] = cells
        pieces[0] = pieces[0][skip:]
        skip = 0
        stream.write("".join(pieces))
    stream.write("\n  ]\n}\n")


def _emit(
    fmt: str,
    out: str | None,
    columns: _Columns,
    metadata: dict[str, Any],
    holes: np.ndarray | None = None,
    sparse: tuple[str, ...] = (),
) -> None:
    """Write the rows as CSV or JSON to out, or to stdout.

    Rows marked in holes leave the columns named in sparse empty in CSV
    and out of the JSON row. Rows are written a block at a time, so a write
    that fails on a cell removes out rather than leave part of the table.
    """
    if fmt == "csv":
        write = partial(_write_csv, columns)
    else:
        write = partial(_write_json, columns, metadata)
    if out is None:
        write(sys.stdout, holes, sparse)
        return
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvariantViolation(f"cannot write output {out!r}: {exc}") from exc
    try:
        with fh:
            write(fh, holes, sparse)
    except EcodynError:
        os.remove(out)
        raise


class _Table(NamedTuple):
    """The rows a data subcommand writes. Rows marked in holes leave the
    columns named in sparse empty (see _emit)."""

    columns: _Columns
    metadata: dict[str, Any]
    holes: np.ndarray | None = None
    sparse: tuple[str, ...] = ()


def _wage(sec: dict[str, Any], args: argparse.Namespace) -> _Table | None:
    from . import wage_profit as wp

    check_keys(sec, "section 'wage'", wp.CostStructure, wp.WageBound, "grid")
    cs = wp.cost_structure(sec)
    wages = _grid_values(sec) if "grid" in sec else []
    bound = read(wp.WageBound, sec) if "floor" in sec else None

    _say(f"gross margin: {wp.gross_margin(cs)!r}")
    sign_at: float | None = wages[0] if wages else None
    if bound is not None:
        best = wp.optimal_wage(cs, bound)
        if isinstance(best, wp.UnboundedProfit):
            _say(
                "optimal wage: unbounded (no wage floor; net profit per unit "
                "diverges as the wage approaches zero)"
            )
        else:
            profit = finite("net_profit", lambda: best.net_profit)
            _say(f"optimal wage: {best.wage!r}, net profit {profit!r}")
            sign_at = best.wage
    if sign_at is not None:
        d1, d2 = wp.profit_derivatives(cs, sign_at)

        def describe(d: float) -> str:
            return "negative" if d < 0 else "zero" if d == 0 else "positive"

        _say(
            f"derivatives at wage {sign_at!r}: first {d1!r} ({describe(d1)}), "
            f"second {d2!r} ({describe(d2)})"
        )

    if "grid" in sec:
        points = wp.profit_curve(cs, wages)
        derivatives = [wp.profit_derivatives(cs, point.wage) for point in points]
        columns = {
            "wage": [point.wage for point in points],
            "net_profit": [finite("net_profit", lambda: point.net_profit) for point in points],
            "first_derivative": [d1 for d1, _ in derivatives],
            "second_derivative": [d2 for _, d2 in derivatives],
        }
        return _Table(columns, {"command": "wage", "rows": len(points)})
    return None


def _value_exponent(sec: dict[str, Any]) -> float | vf.BalancedFeedback:
    from . import value_feedback as vf

    has_gains = "inflation_gain" in sec or "deflation_gain" in sec
    if has_gains and "exponent" in sec:
        raise InvariantViolation(
            "give either 'exponent' or the gain pair, not both"
        )
    if has_gains:
        return vf.exponent_from_gains(read(vf.FeedbackGains, sec))
    return number(sec, "exponent")


def _value(sec: dict[str, Any], args: argparse.Namespace) -> _Table:
    from . import oracles
    from . import value_feedback as vf

    reads = (vf.FeedbackGains, vf.MarketValueSolution, "grid", "rk4_steps", "probe")
    check_keys(sec, "section 'value'", *reads)

    if "probe" in sec:
        if "grid" in sec:
            raise InvariantViolation("give either 'probe' or 'grid', not both")
        check_keys(sec, "section 'value'", "probe")
        probe_sec = sec["probe"]
        if not isinstance(probe_sec, dict):
            raise InvariantViolation("'probe' must be an object")
        check_keys(probe_sec, "section 'probe'", "true_value", "exponents")
        exponents = probe_sec.get("exponents")
        if not isinstance(exponents, list) or not exponents or not all(map(is_number, exponents)):
            raise InvariantViolation("'probe' needs a non-empty 'exponents' list of numbers")
        result = vf.limit_probe(
            number(probe_sec, "true_value"), [float(b) for b in exponents]
        )
        _say(
            "probe regime: "
            + ("divergent (true value below 1)" if result.divergent else "convergent")
        )
        columns = {
            "exponent": [b for b, _ in result.points],
            "gap": [g for _, g in result.points],
        }
        metadata = {
            "command": "value",
            "kind": "probe",
            "divergent": result.divergent,
            "rows": len(result.points),
        }
        return _Table(columns, metadata)

    exponent = _value_exponent(sec)
    xs = _grid_values(sec)
    steps = integer(sec, "rk4_steps", 1000)
    if steps < 1:
        raise InvariantViolation(f"'rk4_steps' must be >= 1, got {steps}")

    if isinstance(exponent, vf.BalancedFeedback):
        _say(
            "balanced feedback: the adjustment costs cancel, market value "
            "equals true value"
        )
        market = list(xs)
        errors = [0.0] * len(xs)
        meta_exponent: Any = None
    else:
        if exponent == 1:
            curve = partial(vf.singular_market_value, number(sec, "homog_coeff", 1.0))
            _say("exponent 1: using the logarithmic closed form")
        else:
            coeff = number(sec, "homog_coeff", vf._default_coeff(exponent))
            curve = partial(vf.analytic_market_value, vf.MarketValueSolution(exponent, coeff))

        market = [finite("market_value", partial(curve, x)) for x in xs]
        errors = [0.0] * len(xs)
        # Every point beyond the anchor is one lane of a single RK4 call.
        # The grid ascends from the anchor and the closed form has checked
        # x > 0 at each point, so the right-hand side skips that check.
        anchor = xs[0]
        lanes = [i for i, x in enumerate(xs) if x != anchor]
        if lanes:
            spec = oracles.IntegrationSpec(
                anchor,
                np.array([xs[i] for i in lanes]),
                steps,
                lambda t, u: vf._ode_slope(exponent, t, u),
            )
            for i, got in zip(lanes, oracles.rk4_integrate(spec, market[0]).tolist()):
                y = market[i]
                errors[i] = finite("rk4_error", lambda: abs(got - y) / max(1.0, abs(y)))
        meta_exponent = exponent

    metadata = {
        "command": "value",
        "kind": "curve",
        "exponent": meta_exponent,
        "rk4_steps": steps,
        "rows": len(xs),
    }
    return _Table({"true_value": xs, "market_value": market, "rk4_error": errors}, metadata)


def _budget(sec: dict[str, Any], args: argparse.Namespace) -> _Table:
    from . import budget_dynamics as bd

    check_keys(sec, "section 'budget'", bd.BudgetParams, "horizon", "mode", "deficiencies")
    config_mode = bd.read_mode(sec)  # checked even when --mode overrides it
    mode = args.mode or config_mode
    horizon = bd.read_horizon(sec)

    params = read(bd.BudgetParams, sec)
    balance_note = ""
    if sec.get("deficiencies") is not None:
        deficiencies = _section(sec, "deficiencies")
        check_keys(deficiencies, "section 'deficiencies'", bd.DeficiencyFactors)
        factors = read(bd.DeficiencyFactors, deficiencies)
        adjusted = bd.apply_deficiencies(params, factors)
        params = adjusted.as_params(params)
        eroded = adjusted.scale_balance(bd.flow_balance(params))
        balance_note = (
            f" (currency erosion scales the year-0 flow balance to {eroded!r};"
            " the trajectory below uses the adjusted parameters without erosion)"
        )

    report = bd.stability_report(params, mode)
    coeffs = report.coefficients
    _say(f"budget mode: {mode}")
    _say(
        f"coefficients: balance_gain={coeffs.balance_gain!r} "
        f"invest_gain={coeffs.invest_gain!r} constant_flow={coeffs.constant_flow!r}"
    )
    status = "marginal" if abs(report.pole) == 1.0 else "stable" if report.stable else "unstable"
    _say(f"pole: {report.pole!r} ({status})")
    if isinstance(report.fixed_point, bd.DivergentFixedPoint):
        _say(
            "fixed point: divergent (pole exactly 1 with nonzero constant "
            "flow; the pool drifts linearly)"
        )
    else:
        _say(f"fixed point: {report.fixed_point!r}")
    _say(
        f"year 0: flow balance {bd.flow_balance(params)!r}, investments "
        f"{bd.investments(params)!r}, annual change {bd.annual_change(params)!r}"
        + balance_note
    )
    _say(f"tax leverage: {report.leverage!r}")
    if isinstance(report.stable_tax_range, bd.DegenerateRange):
        _say("stable tax range: degenerate (leverage at or below -1)")
    elif report.stable_tax_range is None:
        _say("stable tax range: empty in this mode")
    else:
        lo, hi = report.stable_tax_range
        _say(
            f"stable tax range: ({lo!r}, {hi!r}); configured rate "
            f"{report.tax_rate!r} inside: {report.tax_in_stable_range}"
        )
    _say(f"shrinking: {report.shrinking}")

    levels = bd.iterate(params, horizon, mode)
    steps = list(range(len(levels)))
    # a trajectory that leaves the float range is largest in its last year
    finite("closed_form", partial(bd.closed_form, params, horizon, mode))
    closed = [bd.closed_form(params, step, mode) for step in steps]
    diffs = [abs(level - c) for level, c in zip(levels, closed)]
    max_dev = max(diffs, default=0.0)
    _say(f"max |iterated - closed form|: {max_dev!r}")
    metadata = {
        "command": "budget",
        "mode": mode,
        "horizon": horizon,
        "pole": report.pole,
        "stable": report.stable,
        "rows": len(levels),
    }
    columns = {"step": steps, "iterated": levels, "closed_form": closed, "abs_diff": diffs}
    return _Table(columns, metadata)


def _sweep(sec: dict[str, Any], args: argparse.Namespace) -> _Table:
    from . import sweep as sw

    check_keys(sec, "section 'sweep'", "model", "kind", "mode", "base", "axes")

    model = string(sec, "model")
    if model not in sw.BINDINGS:
        raise InvariantViolation(
            f"'model' must be one of {sorted(sw.BINDINGS)}, got {model!r}"
        )
    base = _section(sec, "base", {})
    if "mode" in sec:
        if "mode" in base:
            raise InvariantViolation("give the budget mode in 'sweep' or in 'base', not both")
        base = {**base, "mode": sec["mode"]}
    axes_spec = sec.get("axes")
    if not isinstance(axes_spec, list) or not axes_spec:
        raise InvariantViolation("'axes' must be a non-empty list")
    axes = []
    for spec in axes_spec:
        if not isinstance(spec, dict):
            raise InvariantViolation("each axis needs name/min/max/points")
        check_keys(spec, "a sweep axis", "name", "min", "max", "points")
        axes.append(_axis(string(spec, "name"), spec))
    grid = ParamGrid(tuple(axes))
    kind = string(sec, "kind", "sweep")

    if kind == "stability_region":
        if model != "budget":
            raise InvariantViolation("a stability region requires the budget model")
        result = sw.stability_region(base, grid)
    elif kind == "sweep":
        result = sw.sweep(sw.BINDINGS[model], base, grid)
    else:
        raise InvariantViolation(f"'kind' must be sweep or stability_region, got {kind!r}")

    flagged = result.metadata["flagged"]
    if flagged == grid.cells:
        raise DomainError(
            f"all {flagged} cells were rejected; first cell: {result.notes[0]}"
        )
    _say(
        f"swept {result.metadata['cells']} cells over {[a.name for a in grid.axes]}; "
        f"{flagged} flagged"
    )
    columns: _Columns = {**_coordinates(grid), **result.outputs, "flagged": result.flagged}
    if args.format == "json":
        columns["note"] = np.array(result.notes, dtype=object)
    return _Table(columns, result.metadata, result.flagged, tuple(result.outputs))


def _run_data(args: argparse.Namespace) -> int:
    """Run wage, value, budget or sweep: hand the config's section of that
    name to args.table, then write the table it returns, if any, in the
    format and to the path that the flags or the output section give."""
    cfg = _load_config(args.config)
    sec = _section(cfg, args.command)
    out_cfg = _section(cfg, "output", {})
    check_keys(out_cfg, "section 'output'", "format", "path")
    args.format = args.format or string(out_cfg, "format", "csv")
    if args.format not in ("csv", "json"):
        raise InvariantViolation(f"output format must be csv or json, got {args.format!r}")
    args.out = args.out or string(out_cfg, "path", None)
    table = args.table(sec, args)
    if table is not None:
        _emit(args.format, args.out, *table)
    return 0


def _parse_tolerances(pairs: list[str] | None) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvariantViolation(
                f"--tolerance expects NAME=VALUE, got {pair!r}"
            )
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise InvariantViolation(
                f"--tolerance value for {name!r} is not a number: {value!r}"
            ) from exc
    return overrides


def _run_verify(args: argparse.Namespace) -> int:
    from . import audit  # not at module top: only verify runs it

    if args.list:
        for name, tol, description in audit.list_checks():
            print(f"{name} tolerance={tol!r} :: {description}")
        return 0
    overrides: dict[str, float] = {}
    if args.config is not None:
        cfg = _load_config(args.config)
        ver = _section(cfg, "verification", {})
        overrides = {name: number(ver, name) for name in ver}
    overrides.update(_parse_tolerances(args.tolerance))
    report = audit.run_all(overrides)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name} tolerance={r.tolerance!r} "
            f"observed={r.observed!r} :: {r.detail}"
        )
    for note in report.notes:
        print(f"INFO {note.name} :: {note.text}")
    passed = sum(1 for r in report.results if r.passed)
    print(f"{passed}/{len(report.results)} checks passed")
    return 0 if report.all_passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecodyn",
        description=(
            "Feedback models for wage floors, market value tracking, and "
            "government budget stability, with built-in numerical "
            "cross-verification."
        ),
        epilog=(
            "exit codes: 0 success, 1 config/usage error, 2 model domain "
            "error, 3 verification failure"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, table: Callable[..., _Table | None]) -> None:
        p.set_defaults(run=_run_data, table=table)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument(
            "--out",
            default=None,
            help="write data rows to this file (default: stdout)",
        )
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="row format (default: csv, or the config's output.format)",
        )

    p_wage = sub.add_parser(
        "wage",
        help="net profit per unit over a wage grid",
        description=(
            "Evaluate the net-profit-per-unit curve on a wage grid. Config "
            "section 'wage' needs max_market_price and labor_weight; "
            "optional other_factors [[weight, value], ...], floor, and grid "
            "{min,max,points}. Without a grid only the stderr report is "
            "produced."
        ),
    )
    add_io(p_wage, _wage)

    p_value = sub.add_parser(
        "value",
        help="market value against true value, or the limit probe",
        description=(
            "Evaluate the market-value closed form on a true-value grid, "
            "cross-checked against numerical integration. Config section "
            "'value' needs exponent (or inflation_gain/deflation_gain) plus "
            "grid {min,max,points}; optional homog_coeff and rk4_steps "
            "(default 1000). A 'probe' object {true_value, exponents} "
            "switches to gap sampling."
        ),
    )
    add_io(p_value, _value)

    p_budget = sub.add_parser(
        "budget",
        help="wage pool trajectory and stability analysis",
        description=(
            "Iterate the yearly wage pool recurrence and report stability. "
            "Config section 'budget' needs tax_rate, spending_split, "
            "private_fraction, invest_share, foreign_multiplier, "
            "gov_spending, initial_wages; optional horizon (default 10), "
            "mode, deficiencies {tax_collection, work_effort, "
            "spending_efficiency, currency_value}."
        ),
    )
    add_io(p_budget, _budget)
    p_budget.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="recurrence convention (default: config mode or direct)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="grid a model over one or more parameters",
        description=(
            "Sweep a model over one or more axes. Config section 'sweep' "
            "needs model (wage|value|budget), base parameters, and axes "
            "[{name,min,max,points}, ...]; optional kind "
            "(sweep|stability_region). A budget sweep's mode goes in "
            "'sweep' or in 'base', not both (default direct). Cells the "
            "model rejects are flagged, not fatal."
        ),
    )
    add_io(p_sweep, _sweep)

    p_verify = sub.add_parser(
        "verify",
        help="run the built-in numerical audit",
        description=(
            "Re-derive every closed form along an independent numerical "
            "route and compare within named tolerances. One PASS/FAIL line "
            "per check plus INFO notes, on stdout. Tolerance overrides come "
            "from the config's 'verification' section ({check: tolerance}) "
            "and from --tolerance flags, flags winning."
        ),
    )
    p_verify.set_defaults(run=_run_verify)
    p_verify.add_argument(
        "--config",
        default=None,
        help="optional JSON config with a 'verification' section",
    )
    p_verify.add_argument(
        "--tolerance",
        action="append",
        metavar="NAME=VALUE",
        help="override a named check tolerance (repeatable, beats the config)",
    )
    p_verify.add_argument(
        "--list",
        action="store_true",
        help="list checks and default tolerances without running them",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        return args.run(args)
    except EcodynError as exc:
        _say(f"error: {exc}")
        return 1 if isinstance(exc, InvariantViolation) else 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; with stdout on
        # devnull the interpreter's own flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()

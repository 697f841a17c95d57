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
import errno
import gc
import io
import json
import math
import os
import stat
import sys
from dataclasses import MISSING, dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .errors import DomainError, EcodynError, InvariantViolation, NumericalFailure, finite
from .grid import Axis, ParamGrid
from .schema import MODES, integer, is_number, number, read, read_section, string

# The work bounds of a budget run, which keeps every year's level, and of a
# value curve's RK4 call, which takes rk4_steps steps on every grid point
# past the first; each is read with its config (README, "Work bounds").
MAX_HORIZON = 100_000
MAX_RK4_STEPS = 100_000
MAX_RK4_WORK = 100_000_000  # rk4_steps times those grid points


def _say(msg: str) -> None:
    """Write a report or error line to stderr. Without one (``2>&-``),
    where Python sets sys.stderr to None and print would write to stdout,
    or on one that fails (``2>/dev/full``), the line is dropped, so stdout
    and the exit code stay as they are with stderr open."""
    if sys.stderr is None:
        return
    try:
        print(msg, file=sys.stderr)
    except OSError:
        pass


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


# the readers of a grid object and, after its name, of a sweep axis
_AXIS = {"min": number, "max": number, "points": integer}


def _grid(section: dict[str, Any], key: str) -> list[float]:
    spec = section.get(key)
    if not isinstance(spec, dict):
        raise InvariantViolation("section needs a 'grid' object with min/max/points")
    return Axis(key, *read_section(spec, "section 'grid'", _AXIS)).grid()


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
# writes float.__repr__'s text for 0 and for 1e-4 <= |v| < 1e16, and its
# digits for finite |v| >= 1e16, whose exponent lacks repr's "+"; "f" gets
# only the nonzero |v| < 1e-4, whose exponent orjson writes without zero
# padding, and nan and inf, which it writes as null. "b" is the text of
# False and of True, which a bool column gathers by its bytes.
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


def _encode(values: Any, holes: np.ndarray | None, text: _Text, bulk: bool = True) -> list[str]:
    """Each cell's text in one format, "" where holes marks it. In bulk, a
    float column is one orjson call, with e written as repr's e+ in a block
    that holds a |v| >= 1e16, and text["f"] redoes its cells outside
    orjson's range; otherwise text["f"] encodes each float cell that is
    not a hole. A bool column is one gather, and its holes one masked
    assignment. Other holes are blanked one by one: with a fifth of the
    cells in holes, as in sweep_json, that costs less than any step over
    every cell."""
    values = np.asarray(values)
    holes = np.zeros(values.shape, dtype=bool) if holes is None else holes
    if values.dtype.kind == "b":
        cells = text["b"][values.view(np.uint8)]
        cells[holes] = ""
        return cells.tolist()
    if values.dtype.kind == "f" and not bulk:
        encode = text["f"]
        return ["" if hole else encode(v) for v, hole in zip(values.tolist(), holes.tolist())]
    if values.dtype.kind == "f":
        import orjson  # not at module top: it pulls in uuid and zoneinfo

        encoded = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        size = np.abs(values)
        if (size >= 1e16).any():
            encoded = encoded.replace("e", "e+")  # cells below 1e-4 are redone
        cells = encoded.split(",")
        redo = np.flatnonzero(~((size >= 1e-4) & (size < math.inf)) & (values != 0) & ~holes)
        for k, v in zip(redo.tolist(), values[redo].tolist()):
            cells[k] = text["f"](v)
    else:
        cells = list(map(text[values.dtype.kind], values.tolist()))
    for k in np.flatnonzero(holes).tolist():
        cells[k] = ""
    return cells


# not a NamedTuple: its len is the row count, and a tuple's len must stay its field count
@dataclass(frozen=True)
class _Indexed:
    """A column given as a list of values and, for each row, the position
    of the row's value in that list; the writers encode each value once."""

    values: list[Any]
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


_Columns = dict[str, Any]  # a list, a numpy column or an _Indexed per column


class _Table(NamedTuple):
    """The rows a data subcommand writes. Rows marked in holes leave the
    columns named in sparse empty (see _emit)."""

    columns: _Columns
    metadata: dict[str, Any]
    holes: np.ndarray | None = None
    sparse: tuple[str, ...] = ()


def _coordinates(grid: ParamGrid) -> dict[str, _Indexed]:
    """The grid's coordinate columns, each as its axis grid and an index.

    Grid values are never merged by equality: 0.0 == -0.0, but repr
    tells them apart."""
    indices = grid.indices.values()
    return {a.name: _Indexed(a.grid(), index) for a, index in zip(grid.axes, indices)}


# Rows are encoded and written a block at a time, so a large table never
# holds all of its encoded text in memory at once. A JSON row is about four
# times a CSV row's text, so JSON writes a quarter of these rows a block.
_BLOCK_ROWS = 4096


def _row_blocks(
    table: _Table, text: _Text, block_rows: int
) -> Iterator[tuple[list[list[str]], np.ndarray]]:
    """Each block of block_rows rows as its cells' text, column by column,
    with its slice of holes, which blank the columns named in sparse. An
    indexed column's values are encoded once; a block gathers their text by
    index."""
    columns, _, holes, sparse = table
    rows = len(next(iter(columns.values()), ()))
    # a table of at most _BLOCK_ROWS rows encodes each float cell alone:
    # orjson's import costs more than it saves on so few cells
    bulk = rows > _BLOCK_ROWS
    texts = {
        name: np.array(_encode(column.values, None, text, bulk), dtype=object)
        for name, column in columns.items()
        if isinstance(column, _Indexed)
    }
    holes = np.zeros(rows, dtype=bool) if holes is None else holes
    for start in range(0, rows, block_rows):
        stop = start + block_rows
        block_holes = holes[start:stop]
        block = [
            texts[name][column.index[start:stop]].tolist()
            if name in texts
            else _encode(column[start:stop], block_holes if name in sparse else None, text, bulk)
            for name, column in columns.items()
        ]
        yield block, block_holes


def _write_csv(table: _Table, stream: IO[str]) -> None:
    """Write a header and one line per row, as csv.writer would, with the
    columns named in sparse empty in rows marked in holes. Every table here
    has at least two columns, so csv's special case of a row made of one
    empty field never arises."""
    stream.write(",".join(map(_csv_quoted, table.columns)) + "\n")
    for encoded, _ in _row_blocks(table, _CSV_TEXT, _BLOCK_ROWS):
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


def _write_json(table: _Table, stream: IO[str]) -> None:
    """Write {"metadata": ..., "rows": [...]} as json.dump(indent=2) would.

    Rows marked in holes leave out the keys named in sparse. json.dump
    with an indent always runs the pure-Python encoder, so each block of
    rows is one join of the encoded cells and the key texts, which are
    worked out once: per row, each column's key text and cell, then the
    closing brace.
    """
    try:
        head = json.dumps({"metadata": table.metadata, "rows": []}, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"cannot write the metadata as JSON: {exc}") from exc
    if not len(next(iter(table.columns.values()), ())):
        stream.write(head + "\n")
        return
    names = list(table.columns)
    full = _json_keys(names, ())
    holed = _json_keys(names, table.sparse)
    # a column's key text in a full row and in a row in a hole
    choices = [np.array(pair, dtype=object) for pair in zip(full, holed)]
    width = 2 * len(names) + 1
    stream.write(head[: head.rindex("[]")] + "[\n")
    skip = len(",\n")  # the first row follows the opening bracket, not a row
    for encoded, block_holes in _row_blocks(table, _JSON_TEXT, max(1, _BLOCK_ROWS // 4)):
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


def _emit(fmt: str, out: str | None, table: _Table) -> None:
    """Write the table's rows as CSV or JSON to out, or to stdout.

    Rows marked in holes leave the columns named in sparse empty in CSV
    and out of the JSON row. Rows are written a block at a time, so a write
    that fails, on a cell or in the file system, removes out rather than
    leave part of the table; a device or a symlink given as out stays.
    """
    write = _write_csv if fmt == "csv" else _write_json
    if out is None:
        write(table, sys.stdout)
        return
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
        try:
            with fh:
                write(table, fh)
        except (EcodynError, OSError):
            if stat.S_ISREG(os.lstat(out).st_mode):
                os.remove(out)
            raise
    except OSError as exc:
        raise InvariantViolation(f"cannot write output {out!r}: {exc}") from exc


def _wage(sec: dict[str, Any], args: argparse.Namespace) -> _Table | None:
    from . import wage_profit as wp

    readers = {
        wp.CostStructure: wp.cost_structure,
        wp.WageBound: lambda s: read(wp.WageBound, s) if "floor" in s else None,
        "grid": lambda s, k: _grid(s, k) if k in s else [],
    }
    cs, bound, wages = read_section(sec, "section 'wage'", readers)
    points = wp.profit_curve(cs, wages)  # checks the grid before the report

    margin = wp.gross_margin(cs)
    _say(f"gross margin: {margin!r}")
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
        d1, d2 = wp._derivatives(margin, sign_at)

        def describe(d: float) -> str:
            return "negative" if d < 0 else "zero" if d == 0 else "positive"

        _say(
            f"derivatives at wage {sign_at!r}: first {d1!r} ({describe(d1)}), "
            f"second {d2!r} ({describe(d2)})"
        )

    if "grid" in sec:
        derivatives = [wp._derivatives(margin, point.wage) for point in points]
        columns = {
            "wage": [point.wage for point in points],
            "net_profit": [finite("net_profit", lambda: point.net_profit) for point in points],
            "first_derivative": [d1 for d1, _ in derivatives],
            "second_derivative": [d2 for _, d2 in derivatives],
        }
        return _Table(columns, {"command": "wage", "rows": len(points)})
    return None


def _value(sec: dict[str, Any], args: argparse.Namespace) -> _Table:
    from . import oracles
    from . import value_feedback as vf

    if "probe" in sec:
        # a probe reads only its own object, never the curve's keys
        if "grid" in sec:
            raise InvariantViolation("give either 'probe' or 'grid', not both")
        [spec] = read_section(sec, "section 'value'", {"probe": dict.get})
        if not isinstance(spec, dict):
            raise InvariantViolation("'probe' must be an object")
        readers = {"true_value": number, "exponents": dict.get}
        true_value, exponents = read_section(spec, "section 'probe'", readers)
        if not isinstance(exponents, list) or not exponents or not all(map(is_number, exponents)):
            raise InvariantViolation("'probe' needs a non-empty 'exponents' list of numbers")
        result = vf.limit_probe(true_value, [float(b) for b in exponents])
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

    has_gains = "inflation_gain" in sec or "deflation_gain" in sec
    readers = {
        vf.FeedbackGains: partial(read, vf.FeedbackGains) if has_gains else lambda s: None,
        "exponent": partial(number, default=None if has_gains else MISSING),
        "homog_coeff": partial(number, default=None),
        "grid": _grid,
        "rk4_steps": partial(integer, default=1000, least=1, most=MAX_RK4_STEPS),
        "probe": dict.get,  # absent: a probe is read alone, above
    }
    gains, exponent, coeff, xs, steps, _ = read_section(sec, "section 'value'", readers)
    if gains is not None:
        if exponent is not None:
            raise InvariantViolation("give either 'exponent' or the gain pair, not both")
        exponent = vf.exponent_from_gains(gains)
        if isinstance(exponent, float) and math.isinf(exponent):
            raise InvariantViolation(
                f"the exponent 1/(inflation_gain - deflation_gain) = "
                f"1/({gains.inflation_gain!r} - {gains.deflation_gain!r}) is past the float range"
            )
    if steps * (len(xs) - 1) > MAX_RK4_WORK:
        raise InvariantViolation(
            f"'rk4_steps' times the grid points past the first must be <= {MAX_RK4_WORK}, "
            f"got {steps} x {len(xs) - 1}"
        )

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
            curve = partial(vf.singular_market_value, 1.0 if coeff is None else coeff)
            _say("exponent 1: using the logarithmic closed form")
        else:
            coeff = vf._default_coeff(exponent) if coeff is None else coeff
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
                partial(vf._ode_slope, exponent),
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

    readers = {
        bd.BudgetParams: partial(read, bd.BudgetParams),
        "horizon": partial(bd.read_horizon, most=MAX_HORIZON),
        "mode": bd.read_mode,  # checked even when --mode overrides it
        "deficiencies": dict.get,  # an object, read by its own table below
    }
    params, horizon, config_mode, deficiencies = read_section(sec, "section 'budget'", readers)
    mode = args.mode or config_mode
    if deficiencies is not None:
        readers = {bd.DeficiencyFactors: partial(read, bd.DeficiencyFactors)}
        [factors] = read_section(_section(sec, "deficiencies"), "section 'deficiencies'", readers)
        params = bd.apply_deficiencies(params, factors)

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
    finite("iterated", lambda: levels[-1])
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

    bad_model = f"'model' must be one of {sorted(sw.BINDINGS)}, got {{!r}}"
    bad_kind = "'kind' must be sweep or stability_region, got {!r}"
    readers = {
        "model": partial(string, choices=sw.BINDINGS, text=bad_model),
        "kind": partial(string, default="sweep", choices=("sweep", "stability_region"), text=bad_kind),
        "mode": dict.get,  # read with the base
        "base": partial(_section, default={}),
        "axes": dict.get,  # a list of objects, each read by its own table below
    }
    model, kind, mode, base, specs = read_section(sec, "section 'sweep'", readers)
    if not isinstance(specs, list) or not specs:
        raise InvariantViolation("'axes' must be a non-empty list")
    axes = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise InvariantViolation("each axis needs name/min/max/points")
        axes.append(Axis(*read_section(spec, "a sweep axis", {"name": string, **_AXIS})))
    grid = ParamGrid(tuple(axes))
    if "mode" in sec:
        if "mode" in base:
            raise InvariantViolation("give the budget mode in 'sweep' or in 'base', not both")
        base = {**base, "mode": mode}

    if kind == "stability_region":
        if model != "budget":
            raise InvariantViolation("a stability region requires the budget model")
        result = sw.stability_region(base, grid)
    else:
        result = sw.sweep(sw.BINDINGS[model], base, grid)

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
    bad_format = "output format must be csv or json, got {!r}"
    readers = {
        "format": partial(string, default="csv", choices=("csv", "json"), text=bad_format),
        "path": partial(string, default=None),
    }
    fmt, path = read_section(_section(cfg, "output", {}), "section 'output'", readers)
    # the config is checked even where a flag overrides it
    args.format, args.out = args.format or fmt, args.out if args.out is not None else path
    table = args.table(sec, args)
    if table is not None:
        _emit(args.format, args.out, table)
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help and version text fail as any other
    write to stdout does; argparse drops the OSError, so a full or closed
    stdout would end --help with exit 0 and nothing written."""

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            help="write data rows to this file (default: stdout, or the config's output.path)",
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
            "spending_efficiency}."
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


class _ClosedStdout(io.TextIOBase):
    """The stdout of a process started without one (``>&-``), where Python
    sets sys.stdout to None: a write fails as it would on a closed
    descriptor, so only a run that writes to stdout fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def entry() -> None:
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    if sys.stderr is None:
        # without one (2>&-), argparse prints a usage error's usage line to
        # stdout; devnull drops it, as _say drops the report lines
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # a write to stdout failed: the reader closed it early, as `| head`
        # does, which ends the run quietly, or the device is full or
        # closed; with stdout on devnull the interpreter's own flush at
        # exit stays quiet
        if not isinstance(sys.stdout, _ClosedStdout):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _say(f"error: cannot write to stdout: {exc}")
        code = 1
    # The process ends here. Shutdown's collections never scan the
    # permanent generation, so freezing every object skips their pass over
    # numpy's heap; atexit handlers, the streams' flush and refcount
    # finalisers still run, unlike after os._exit.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()

"""Seeded workload configs and independent output checkers.

Each workload turns a seed into one ``ecodyn`` config plus the CLI
arguments that run it, and checks an output against a reference the
benchmark computes itself in numpy from the paper's formulas, never by
calling ``ecodyn``. The seed moves base parameters and axis endpoints
inside their admissible ranges; cell and point counts stay fixed, so
every seed does the same amount of work.

Tolerances are the audit's named ones: ``regrouping_identity`` (1e-14,
absolute) for the pole, ``recurrence_closed_vs_iterate`` (1e-10,
relative) for ``final_pool``, ``ode_residual_closed_form`` (1e-12) for
the market value and ``rk4_agreement`` (1e-6) for ``rk4_error``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

POLE_TOL = 1e-14
FINAL_POOL_RTOL = 1e-10
MARKET_VALUE_RTOL = 1e-12
RK4_ERROR_TOL = 1e-6

REGION_POINTS = (300, 300)
SWEEP_POINTS = (200, 200)
SWEEP_HORIZON = 50
# 40 of the 200 spending_split points lie above 1 on [0, 1.25], so
# exactly 20% of the cells are rejected whatever the seed.
SWEEP_SPLIT_AXIS = (0.0, 1.25)
VALUE_POINTS = 300
VALUE_EXPONENT = -2.0
VALUE_RK4_STEPS = 2000
VERIFY_CHECKS = 13

MAX_ERRORS = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_config`` maps a seed to the config file contents (None when
    the subcommand takes no config); ``argv`` builds the CLI arguments
    from the config and output paths; ``check`` returns a list of error
    messages for one output, empty when the output is correct.
    """

    name: str
    make_config: Callable[[int], dict[str, Any] | None]
    argv: Callable[[str, str], list[str]]
    output_to_file: bool
    check: Callable[[dict[str, Any] | None, str, int], list[str]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _budget_base(rng: random.Random) -> dict[str, float]:
    return {
        "private_fraction": _u(rng, 0.3, 0.9),
        "foreign_multiplier": _u(rng, 0.0, 0.5),
        "gov_spending": _u(rng, 50.0, 200.0),
        "initial_wages": _u(rng, 500.0, 2000.0),
    }


def _axis(name: str, lo: float, hi: float, points: int) -> dict[str, Any]:
    return {"name": name, "min": lo, "max": hi, "points": points}


def _grid(axis: dict[str, Any]) -> np.ndarray:
    return np.linspace(axis["min"], axis["max"], axis["points"])


def _row_major(axes: list[dict[str, Any]]) -> tuple[np.ndarray, np.ndarray]:
    outer, inner = (_grid(a) for a in axes)
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _fail(errors: list[str], msg: str) -> None:
    if len(errors) < MAX_ERRORS:
        errors.append(msg)


def _bad_cells(errors: list[str], what: str, mask: np.ndarray) -> None:
    if mask.any():
        first = int(np.flatnonzero(mask)[0])
        _fail(errors, f"{what}: {int(mask.sum())} rows, first at row {first}")


# -- budget reference -------------------------------------------------------


def direct_pole(t, s, p, i, f):
    """Pole of the direct-mode recurrence: balance gain plus invest gain."""
    balance_gain = t - (1.0 - s) * (1.0 - t) * (1.0 - p)
    invest_gain = i * (1.0 - t) * (1.0 + f)
    return balance_gain + invest_gain


def incremental_final_pool(gain, constant_flow, w0, n):
    """W_n of W_{k+1} = (1 + gain) W_k + c, with no cancellation near pole 1.

    W_n = pole**n * W_0 + c * (pole**n - 1)/(pole - 1), where the
    geometric sum is expm1(n log1p(gain))/gain and pole - 1 = gain is
    taken exactly as the gain, not as a difference.
    """
    gain = np.asarray(gain, dtype=float)
    log_pole = np.log1p(gain)
    power = np.exp(n * log_pole)
    with np.errstate(divide="ignore", invalid="ignore"):
        geometric = np.where(gain == 0.0, float(n), np.expm1(n * log_pole) / gain)
    return power * w0 + constant_flow * geometric


# -- region_csv -------------------------------------------------------------


def region_config(seed: int) -> dict[str, Any]:
    rng = _rng("region_csv", seed)
    base = {"spending_split": _u(rng, 0.2, 0.8), **_budget_base(rng)}
    axes = [
        _axis("tax_rate", _u(rng, 0.0, 0.05), _u(rng, 0.95, 1.0), REGION_POINTS[0]),
        _axis("invest_share", 0.0, _u(rng, 0.9, 1.1), REGION_POINTS[1]),
    ]
    return {
        "sweep": {
            "model": "budget",
            "kind": "stability_region",
            "mode": "direct",
            "base": base,
            "axes": axes,
        },
        "output": {"format": "csv"},
    }


def _parse_csv(text: str, header: list[str], errors: list[str]) -> np.ndarray | None:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(header):
        _fail(errors, f"header {lines[0] if lines else ''!r}, want {','.join(header)!r}")
        return None
    try:
        table = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
        )
    except ValueError as exc:
        _fail(errors, f"unparsable CSV cell: {exc}")
        return None
    if table.ndim != 2 or table.shape[1] != len(header):
        _fail(errors, f"rows must have {len(header)} cells")
        return None
    return table


def _check_flags(errors: list[str], name: str, col: np.ndarray) -> None:
    _bad_cells(errors, f"{name} is not 0 or 1", (col != 0.0) & (col != 1.0))


def check_region(cfg: dict[str, Any] | None, text: str, exit_code: int) -> list[str]:
    errors: list[str] = []
    if exit_code != 0:
        return [f"exit code {exit_code}, want 0"]
    sec = cfg["sweep"]
    axes = sec["axes"]
    names = [a["name"] for a in axes]
    table = _parse_csv(text, names + ["pole", "stable", "flagged"], errors)
    if table is None:
        return errors
    cells = axes[0]["points"] * axes[1]["points"]
    if table.shape[0] != cells:
        return [f"{table.shape[0]} rows, want {cells}"]
    t, i = _row_major(axes)
    _bad_cells(errors, "coordinates out of row-major order", (table[:, 0] != t) | (table[:, 1] != i))
    b = sec["base"]
    ref = direct_pole(t, b["spending_split"], b["private_fraction"], i, b["foreign_multiplier"])
    pole, stable, flagged = table[:, 2], table[:, 3], table[:, 4]
    _bad_cells(errors, f"pole off the reference by more than {POLE_TOL}", ~(np.abs(pole - ref) <= POLE_TOL))
    _check_flags(errors, "stable", stable)
    _check_flags(errors, "flagged", flagged)
    _bad_cells(errors, "stable flag disagrees with |pole| <= 1", (stable == 1.0) != (np.abs(pole) <= 1.0))
    clear = np.abs(np.abs(ref) - 1.0) > POLE_TOL
    _bad_cells(errors, "stable flag disagrees with the reference", clear & ((stable == 1.0) != (np.abs(ref) <= 1.0)))
    _bad_cells(errors, "flagged cell in an all-admissible region", flagged != 0.0)
    return errors


# -- sweep_json -------------------------------------------------------------


def sweep_config(seed: int) -> dict[str, Any]:
    rng = _rng("sweep_json", seed)
    base = {
        "invest_share": _u(rng, 0.05, 0.2),
        **_budget_base(rng),
        "mode": "incremental",
        "horizon": SWEEP_HORIZON,
    }
    axes = [
        _axis("tax_rate", _u(rng, 0.0, 0.05), _u(rng, 0.95, 1.0), SWEEP_POINTS[0]),
        _axis("spending_split", *SWEEP_SPLIT_AXIS, SWEEP_POINTS[1]),
    ]
    return {
        "sweep": {"model": "budget", "kind": "sweep", "base": base, "axes": axes},
        "output": {"format": "json"},
    }


def check_sweep(cfg: dict[str, Any] | None, text: str, exit_code: int) -> list[str]:
    errors: list[str] = []
    if exit_code != 0:
        return [f"exit code {exit_code}, want 0"]
    sec = cfg["sweep"]
    axes = sec["axes"]
    names = [a["name"] for a in axes]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or list(doc) != ["metadata", "rows"]:
        return ["top level must be {metadata, rows}"]
    rows = doc["rows"]
    cells = axes[0]["points"] * axes[1]["points"]
    if not isinstance(rows, list) or len(rows) != cells:
        return [f"{len(rows) if isinstance(rows, list) else 'no'} rows, want {cells}"]

    t, s = _row_major(axes)
    b = sec["base"]
    admissible = (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0)
    clean_keys = names + ["pole", "stable", "final_pool", "flagged", "note"]
    flagged_keys = names + ["flagged", "note"]
    coords = np.empty((cells, 2))
    pole = np.full(cells, np.nan)
    final = np.full(cells, np.nan)
    stable = np.zeros(cells, dtype=bool)
    flagged = np.zeros(cells, dtype=bool)
    for k, row in enumerate(rows):
        keys = list(row) if isinstance(row, dict) else None
        try:
            if keys == clean_keys and row["flagged"] is False and row["note"] == "":
                if not isinstance(row["stable"], bool):
                    raise TypeError("stable must be a JSON boolean")
                pole[k], final[k], stable[k] = row["pole"], row["final_pool"], row["stable"]
            elif keys == flagged_keys and row["flagged"] is True and row["note"]:
                flagged[k] = True
            else:
                raise TypeError(f"keys {keys} form neither a clean nor a flagged record")
            coords[k] = row[names[0]], row[names[1]]
        except (TypeError, ValueError) as exc:
            _fail(errors, f"row {k}: {exc}")
    if errors:
        return errors

    _bad_cells(errors, "coordinates out of row-major order", (coords[:, 0] != t) | (coords[:, 1] != s))
    _bad_cells(errors, "admissible cell flagged", flagged & admissible)
    _bad_cells(errors, "inadmissible cell not flagged", ~flagged & ~admissible)

    gain = direct_pole(t, s, b["private_fraction"], b["invest_share"], b["foreign_multiplier"])
    ok = ~flagged
    ref_pole = 1.0 + gain
    _bad_cells(errors, f"pole off the reference by more than {POLE_TOL}", ok & ~(np.abs(pole - ref_pole) <= POLE_TOL))
    _bad_cells(errors, "stable flag disagrees with |pole| <= 1", ok & (stable != (np.abs(pole) <= 1.0)))
    ref_final = incremental_final_pool(
        gain, -b["gov_spending"] * s, b["initial_wages"], b["horizon"]
    )
    rel = np.abs(final - ref_final) / np.maximum(1.0, np.abs(ref_final))
    _bad_cells(errors, f"final_pool off the reference by more than {FINAL_POOL_RTOL} relative", ok & ~(rel <= FINAL_POOL_RTOL))

    meta = doc["metadata"]
    want = {"model": "budget", "kind": "sweep", "cells": cells, "flagged": int((~admissible).sum())}
    for key, value in want.items():
        if meta.get(key) != value:
            _fail(errors, f"metadata {key} is {meta.get(key)!r}, want {value!r}")
    if meta.get("axes") != axes:
        _fail(errors, "metadata axes differ from the config")
    return errors


# -- value_rk4 --------------------------------------------------------------


def value_config(seed: int) -> dict[str, Any]:
    rng = _rng("value_rk4", seed)
    grid = {"min": _u(rng, 1.0, 1.05), "max": _u(rng, 2.95, 3.0), "points": VALUE_POINTS}
    return {
        "value": {"exponent": VALUE_EXPONENT, "grid": grid, "rk4_steps": VALUE_RK4_STEPS},
        "output": {"format": "csv"},
    }


def power_law_market_value(b: float, x: np.ndarray) -> np.ndarray:
    """Default-constant solution K x**b + b/(b-1) x with K = 1/(b-1)."""
    return (1.0 / (b - 1.0)) * x**b + (b / (b - 1.0)) * x


def check_value(cfg: dict[str, Any] | None, text: str, exit_code: int) -> list[str]:
    errors: list[str] = []
    if exit_code != 0:
        return [f"exit code {exit_code}, want 0"]
    sec = cfg["value"]
    table = _parse_csv(text, ["true_value", "market_value", "rk4_error"], errors)
    if table is None:
        return errors
    x = _grid(sec["grid"])
    if table.shape[0] != x.size:
        return [f"{table.shape[0]} rows, want {x.size}"]
    _bad_cells(errors, "true values differ from the grid", table[:, 0] != x)
    ref = power_law_market_value(sec["exponent"], x)
    rel = np.abs(table[:, 1] - ref) / np.maximum(1.0, np.abs(ref))
    _bad_cells(errors, f"market value off the power law by more than {MARKET_VALUE_RTOL}", ~(rel <= MARKET_VALUE_RTOL))
    err = table[:, 2]
    _bad_cells(errors, f"rk4_error outside [0, {RK4_ERROR_TOL}]", ~((err >= 0.0) & (err <= RK4_ERROR_TOL)))
    if err[0] != 0.0:
        _fail(errors, "rk4_error at the anchor point must be exactly 0")
    return errors


# -- verify -----------------------------------------------------------------


def check_verify(cfg: dict[str, Any] | None, text: str, exit_code: int) -> list[str]:
    errors: list[str] = []
    if exit_code != 0:
        _fail(errors, f"exit code {exit_code}, want 0")
    lines = text.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    if fails:
        _fail(errors, f"{len(fails)} FAIL lines, first: {fails[0]!r}")
    if len(passes) != VERIFY_CHECKS:
        _fail(errors, f"{len(passes)} PASS lines, want {VERIFY_CHECKS}")
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    if not lines or lines[-1] != summary:
        _fail(errors, f"last line {lines[-1] if lines else ''!r}, want {summary!r}")
    return errors


def _sweep_argv(config: str, out: str) -> list[str]:
    return ["sweep", "--config", config, "--out", out]


def _value_argv(config: str, out: str) -> list[str]:
    return ["value", "--config", config, "--out", out]


def _verify_argv(config: str, out: str) -> list[str]:
    return ["verify"]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("region_csv", region_config, _sweep_argv, True, check_region),
        Workload("sweep_json", sweep_config, _sweep_argv, True, check_sweep),
        Workload("value_rk4", value_config, _value_argv, True, check_value),
        # The CLI exposes no audit seed: this workload is the same for every seed.
        Workload("verify", lambda seed: None, _verify_argv, False, check_verify),
    )
}


def output_rows(workload: str, text: str) -> int:
    """Data rows in one output: CSV lines after the header, JSON rows, or
    the PASS/FAIL lines of ``verify``."""
    if workload == "sweep_json":
        try:
            return len(json.loads(text)["rows"])
        except (ValueError, KeyError, TypeError):
            return 0
    if workload == "verify":
        return sum(1 for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL ")))
    return text.count("\n") - 1

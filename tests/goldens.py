"""The golden set: each file in tests/golden/ and the ecodyn run that writes it.

ENTRIES maps every golden's file name to the arguments, after the ecodyn
command, of the run whose stdout it holds; that run exits 0. stderr.txt is
the one composite entry: each tests/data/*.json config, in sorted order, run
by the subcommand its name starts with and written as
``== {command} {name}: exit {rc}\\n{stderr}``. A config under tests/data/extra/
is out of that glob.

render(entry, run) builds an entry's text from a runner run(argv) -> (rc,
out, err), and cell_diff(golden, got) lists how a text differs from a golden
file: cell by cell for CSV and JSON, line by line for text. check(entry, run)
does both. The tests run the entries in process; as a script, this module
runs them with an ecodyn command and checks each against its golden:

    python tests/goldens.py .venv/bin/ecodyn
    PYTHONPATH=src python tests/goldens.py python3 -m ecodyn

It prints every difference and exits 1 if a golden differs, else 0. It
imports nothing outside the standard library, so any Python runs it.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import math
import struct
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

Runner = Callable[[list[str]], tuple[int, str, str]]


def _config(command: str, config: str, *flags: str) -> tuple[str, ...]:
    return (command, "--config", str(DATA / config), *flags)


ENTRIES: dict[str, tuple[str, ...] | None] = {
    "wage_curve.csv": _config("wage", "wage_curve.json"),
    "value_curve.csv": _config("value", "value_curve.json"),
    "value_probe.csv": _config("value", "value_probe.json"),
    "budget_direct.csv": _config("budget", "budget_direct.json"),
    "budget_deficiencies.csv": _config("budget", "budget_deficiencies.json"),
    "sweep_region.csv": _config("sweep", "sweep_region.json"),
    # flagged rows leave empty CSV cells and drop their output keys in JSON,
    # and the last tax_rate coordinate is -0.0
    "sweep_budget.csv": _config("sweep", "sweep_budget.json"),
    "sweep_budget.json": _config("sweep", "sweep_budget.json", "--format", "json"),
    # final_pool cells from 1e159 to 2e262 and 10 cells whose pole**400
    # overflows, next to 10 bound notes on two fields
    "sweep_budget_large.csv": _config("sweep", "extra/sweep_budget_large.json"),
    "sweep_budget_large.json": _config(
        "sweep", "extra/sweep_budget_large.json", "--format", "json"
    ),
    "verify_list.txt": ("verify", "--list"),
    "verify_report.txt": ("verify",),
    "stderr.txt": None,  # composite: see the module docstring
}


class RunFailed(Exception):
    """A run that writes a golden's stdout exited nonzero."""


def render(entry: str, run: Runner) -> str:
    """The text of the golden entry, as the runner's runs write it."""
    argv = ENTRIES[entry]
    if argv is None:
        blocks = []
        for path in sorted(DATA.glob("*.json")):
            command = path.name.partition("_")[0]
            rc, _, err = run([command, "--config", str(path)])
            blocks.append(f"== {command} {path.name}: exit {rc}\n{err}")
        return "".join(blocks)
    rc, out, err = run(list(argv))
    if rc != 0:
        raise RunFailed(f"{' '.join(argv)} exited {rc}: {err.rstrip()}")
    return out


def check(entry: str, run: Runner) -> list[str]:
    """cell_diff's report on the entry as the runner writes it, or the
    failed run; [] when the golden matches."""
    try:
        got = render(entry, run)
    except RunFailed as exc:
        return [f"{entry}: {exc}"]
    return cell_diff(GOLDEN / entry, got)


def cell_diff(golden: Path, got: str) -> list[str]:
    """One line for each difference between the golden file and got; []
    when they are equal.

    A CSV's row k is its k-th data row, line k + 1 of the file; a JSON cell
    is named by its path, as ``rows[3].final_pool`` (rows counted from 0).
    Each changed cell shows both texts and, when both are floats, how many
    ulps apart they are; any other change says it is not a float, and a
    changed header or row count says so. A .txt golden, or a change that no
    cell shows (line ends, quoting), gets a line diff.
    """
    want = golden.read_bytes().decode()
    if got == want:
        return []
    cells: Iterator[str] = iter(())
    if golden.suffix == ".csv":
        cells = _csv_diff(want, got)
    elif golden.suffix == ".json":
        try:
            cells = _json_diff("", _load(want), _load(got))
        except json.JSONDecodeError:
            pass  # got is no JSON document: the line diff shows it
    lines = [f"{golden.name} {line}" for line in cells]
    if lines:
        return lines
    # lines kept with their ends, so that a change of line end shows too
    diff = difflib.unified_diff(
        want.splitlines(True), got.splitlines(True), f"{golden.name} (golden)", "got"
    )
    return [line.rstrip("\n") for line in diff]


def _csv_diff(want: str, got: str) -> Iterator[str]:
    (old_header, *old_rows), (new_header, *new_rows) = (
        list(csv.reader(io.StringIO(text))) or [[]] for text in (want, got)
    )
    if old_header != new_header:
        yield f"header: {','.join(old_header)!r} -> {','.join(new_header)!r} (header changed)"
    if len(old_rows) != len(new_rows):
        yield f"rows: {len(old_rows)} -> {len(new_rows)} (row count changed)"
    columns = [c for c in old_header if c in new_header]
    for k, (old, new) in enumerate(zip_longest(old_rows, new_rows), 1):
        if old is None or new is None:
            yield _cell(f"row {k}", *(None if row is None else ",".join(row) for row in (old, new)))
            continue
        old_cells, new_cells = dict(zip(old_header, old)), dict(zip(new_header, new))
        for c in columns:
            if old_cells.get(c) != new_cells.get(c):
                yield _cell(f"row {k}, column {c}", old_cells.get(c), new_cells.get(c))


class _Number(str):
    """A JSON number, kept as the text it was written as."""


_MISSING = object()  # the side of a JSON cell that lacks it


def _load(text: str) -> object:
    return json.loads(text, parse_float=_Number, parse_int=_Number, parse_constant=_Number)


def _text(value: object) -> str | None:
    """A loaded JSON value's text, numbers as written; None if it is missing."""
    if value is _MISSING:
        return None
    if isinstance(value, _Number):
        return str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_text, value)) + "]"
    return json.dumps(value)


def _json_diff(path: str, old: object, new: object) -> Iterator[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            where = f"{path}.{key}" if path else key
            yield from _json_diff(where, old.get(key, _MISSING), new.get(key, _MISSING))
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: {len(old)} -> {len(new)} items (row count changed)"
        for k, (a, b) in enumerate(zip_longest(old, new, fillvalue=_MISSING)):
            yield from _json_diff(f"{path}[{k}]", a, b)
    elif _text(old) != _text(new):
        yield _cell(path, _text(old), _text(new))


def _cell(where: str, old: str | None, new: str | None) -> str:
    """A changed cell: both texts (None for a missing one) and their distance."""
    a, b = _float(old), _float(new)
    if a is None or b is None:
        kind = "not a float"
    else:
        ulps = abs(_ordinal(a) - _ordinal(b))
        kind = f"{ulps} ulp" if ulps == 1 else f"{ulps} ulps"
    old, new = ("(missing)" if text is None else repr(text) for text in (old, new))
    return f"{where}: {old} -> {new} ({kind})"


def _float(text: str | None) -> float | None:
    """text's value if it is a float literal, not an integer, a word or nan."""
    if text is None:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return None if math.isnan(value) or text.strip().lstrip("+-").isdigit() else value


def _ordinal(x: float) -> int:
    """x's place among the floats, -0.0 and 0.0 both at 0, so that two
    floats' ordinals differ by the number of ulps between them."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def main(command: list[str]) -> int:
    if not command:
        print("usage: python tests/goldens.py CMD... (an ecodyn command)", file=sys.stderr)
        return 2

    def run(argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run([*command, *argv], capture_output=True)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    report = [line for entry in ENTRIES for line in check(entry, run)]
    print("\n".join(report) if report else f"all {len(ENTRIES)} goldens match")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

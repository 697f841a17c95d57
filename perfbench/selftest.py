"""Self-test of the benchmark's output checkers.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs the CLI once per workload and seed; each real output must pass its
checker. Then each corrupted copy below must fail it, so a checker that
accepts anything cannot keep ``fail_frac`` at 0. Also checks that
``BENCHMARK.json`` names the workloads and metrics ``run.py`` reports.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import sys
from typing import Callable

from run import END_TO_END, PER_LAYER, ROOT, WORK, Run, SetupError, Spawner, _check_source
from workloads import WORKLOADS

SEEDS = (1, 2)
ROW = 12345


def _edit_csv_row(text: str, row: int, edit: Callable[[list[str]], None]) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    edit(cells)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def drop_row(text: str) -> str:
    lines = text.split("\n")
    del lines[ROW + 1]
    return "\n".join(lines)


def nudge_pole(text: str) -> str:
    def edit(cells: list[str]) -> None:
        cells[2] = repr(float(cells[2]) + 1e-12)

    return _edit_csv_row(text, ROW, edit)


def flip_stable(text: str) -> str:
    def edit(cells: list[str]) -> None:
        cells[3] = "0" if cells[3] == "1" else "1"

    return _edit_csv_row(text, ROW, edit)


def unflag_cell(text: str) -> str:
    """Turn the first flagged record into a clean one, outputs borrowed from its neighbour."""
    doc = json.loads(text)
    rows = doc["rows"]
    k = next(k for k, r in enumerate(rows) if r["flagged"])
    rows[k] = {**rows[k - 1], "tax_rate": rows[k]["tax_rate"], "spending_split": rows[k]["spending_split"]}
    return json.dumps(doc, indent=2) + "\n"


def nudge_final_pool(text: str) -> str:
    doc = json.loads(text)
    row = next(r for r in doc["rows"] if not r["flagged"])
    row["final_pool"] *= 1.0 + 1e-8
    return json.dumps(doc, indent=2) + "\n"


def raise_rk4_error(text: str) -> str:
    def edit(cells: list[str]) -> None:
        cells[2] = repr(2e-6)

    return _edit_csv_row(text, 100, edit)


def fail_one_check(text: str) -> str:
    return text.replace("PASS ", "FAIL ", 1)


CORRUPTIONS: dict[str, list[tuple[str, Callable[[str], str]]]] = {
    "region_csv": [
        ("dropped row", drop_row),
        ("pole off by 1e-12", nudge_pole),
        ("flipped stable flag", flip_stable),
    ],
    "sweep_json": [
        ("flagged cell marked unflagged", unflag_cell),
        ("final_pool off by 1e-8 relative", nudge_final_pool),
    ],
    "value_rk4": [("rk4_error of 2e-6", raise_rk4_error)],
    "verify": [("one FAIL line", fail_one_check)],
}


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def main() -> int:
    WORK.mkdir(exist_ok=True)
    outputs = {}
    try:
        with Spawner() as spawner:
            _check_source(spawner)
            for name, workload in WORKLOADS.items():
                for seed in SEEDS:
                    run = Run(workload, seed)
                    try:
                        code, _, _ = spawner.run(run.child_argv, run.stdout_path, run.stderr_path)
                        outputs[name, seed] = run.config, run.output(), code
                    finally:
                        run.cleanup()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = check_benchmark_json()
    for (name, seed), (config, text, code) in outputs.items():
        check = WORKLOADS[name].check
        errors = check(config, text, code)
        print(f"{name} seed {seed}: real output {'fails: ' + errors[0] if errors else 'passes'}")
        if errors:
            problems.append(f"{name} seed {seed}: real output rejected: {errors}")
        for label, corrupt in CORRUPTIONS[name]:
            caught = check(config, corrupt(text), code)
            print(f"  {label}: {'caught: ' + caught[0] if caught else 'NOT CAUGHT'}")
            if not caught:
                problems.append(f"{name} seed {seed}: {label} not caught")
    for problem in problems:
        print(f"problem: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the ``ecodyn`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload region_csv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed-loop client runs one child process at a time. With
``--trace 0`` each invocation is a fresh interpreter running
``python -m ecodyn`` on the source tree in ``src/``, timed from spawn to
exit, with its peak RSS read from ``os.wait4``; the run also times
fresh interpreters that only ``import ecodyn.cli`` (set-up). With
``--trace 1`` the same config goes through ``cli.main`` in this process,
alternately plain and under the tracer in ``tracer.py``, and per-layer
self times and counts are reported. Every output, traced or not, is
checked against the reference in ``workloads.py``.

Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--workload all`` the last line maps each workload to that object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, Workload, output_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
PROBE_LOOPS = 200_000
PROBE_REFERENCE_S = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

AUDIT_CHECKS = (
    "wage_grid_argmax",
    "wage_derivative_fd",
    "wage_unbounded_limit",
    "ode_residual_closed_form",
    "ode_residual_fd",
    "rk4_agreement",
    "gap_convergence",
    "recurrence_closed_vs_iterate",
    "fixed_point_identity",
    "pole_range_equivalence",
    "regrouping_identity",
    "impulse_step_consistency",
    "shrink_reachability",
)

# Per-layer metrics in report order: medians over the traced calls.
# Counts must also repeat exactly from one traced call to the next.
PER_LAYER = {
    "import.numpy_s": "s",
    "import.ecodyn_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes_out": "bytes",
    "sweep.self_s": "s",
    "sweep.cells": "count",
    "sweep.flagged": "count",
    "sweep.useful_ratio": "ratio",
    "budget_dynamics.self_s": "s",
    "budget_dynamics.calls": "count",
    "value_feedback.self_s": "s",
    "value_feedback.calls": "count",
    "oracles.self_s": "s",
    "oracles.rk4_steps": "count",
    "oracles.rhs_evals": "count",
    "oracles.grid_evals": "count",
    "wage_profit.self_s": "s",
    "wage_profit.calls": "count",
    **{f"audit.{name}_s": "s" for name in AUDIT_CHECKS},
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run in this checkout."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


class Spawner:
    """Runs children one at a time through ``spawner.py``; see there why."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
        """Run one child to completion: exit code, wall seconds, peak RSS in MB."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise SetupError("the child launcher exited")
        answer = json.loads(reply)
        return answer["code"], answer["wall"], answer["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _python(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def _check_source(spawner: Spawner) -> None:
    """Fail unless children import ecodyn.cli from the checkout's src/."""
    want = SRC / "ecodyn" / "cli.py"
    if not want.is_file():
        raise SetupError(f"no ecodyn source tree: {want.relative_to(ROOT)} is missing")
    out, err = WORK / "source.out", WORK / "source.err"
    code, _, _ = spawner.run(_python("import ecodyn.cli, sys; sys.stdout.write(ecodyn.cli.__file__)"), out, err)
    got = out.read_text(encoding="utf-8")
    if code != 0 or Path(got).resolve() != want.resolve():
        raise SetupError(
            f"children import ecodyn.cli from {got!r}, want {str(want)!r}: "
            + err.read_text(encoding="utf-8", errors="replace")[-500:]
        )


def measure_setup(spawner: Spawner) -> float:
    """Wall seconds of one fresh interpreter that only imports ecodyn.cli."""
    code, wall, _ = spawner.run(_python("import ecodyn.cli"), WORK / "setup.out", WORK / "setup.err")
    if code != 0:
        raise SetupError(f"import ecodyn.cli exited {code}")
    return wall


def measure_imports(spawner: Spawner) -> tuple[list[float], list[float]]:
    """In fresh interpreters: seconds to import numpy, then ecodyn.cli on top."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import numpy\n"
        "t1 = time.perf_counter()\n"
        "import ecodyn.cli\n"
        "t2 = time.perf_counter()\n"
        "print(t1 - t0, t2 - t1)\n"
    )
    out, err = WORK / "imports.out", WORK / "imports.err"
    numpy_s, ecodyn_s = [], []
    for _ in range(IMPORT_SAMPLES):
        rc, _, _ = spawner.run(_python(code), out, err)
        if rc != 0:
            raise SetupError(f"import timing child exited {rc}")
        a, b = out.read_text(encoding="utf-8").split()
        numpy_s.append(float(a))
        ecodyn_s.append(float(b))
    return numpy_s, ecodyn_s


class Run:
    """Inputs, outputs and tallies of one workload run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.config = workload.make_config(seed)
        name = workload.name
        self.config_path = WORK / f"{name}.config.json"
        self.out_path = WORK / f"{name}.out"
        self.stdout_path = WORK / f"{name}.stdout"
        self.stderr_path = WORK / f"{name}.stderr"
        if self.config is not None:
            self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")
        self.argv = workload.argv(str(self.config_path), str(self.out_path))
        self.child_argv = [sys.executable, "-m", "ecodyn", *self.argv]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: set[str] = set()

    def output(self, stdout_text: str | None = None) -> str:
        if not self.workload.output_to_file:
            if stdout_text is None:
                stdout_text = self.stdout_path.read_text(encoding="utf-8", errors="replace")
            return stdout_text
        try:
            data = self.out_path.read_bytes()
        except FileNotFoundError:
            return ""
        return data.decode("utf-8", errors="replace")

    def record(self, text: str, exit_code: int) -> None:
        """Check one output and tally it."""
        self.attempted += 1
        self.digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        errors = self.workload.check(self.config, text, exit_code)
        if errors:
            self.failed += 1
            if not self.errors:
                self.errors = errors

    def cleanup(self) -> None:
        for path in (self.out_path, self.stdout_path, self.stderr_path):
            path.unlink(missing_ok=True)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: a gauge of machine speed."""
    start = time.perf_counter()
    acc, recent = 0.0, {}
    for i in range(PROBE_LOOPS):
        x = i * 0.5 + 1.0
        acc += math.sqrt(x) / (x + 1.0)
        recent[i & 63] = (x, acc)
    return time.perf_counter() - start


def run_end_to_end(run: Run, spawner: Spawner, seconds: float) -> tuple[dict[str, float], list[str]]:
    # The machine is shared and its speed drifts by tens of percent over
    # seconds to minutes, in CPU time as much as in wall time. Each timing
    # is therefore rescaled by the probe run just before and just after
    # it, to what it would read on a machine where the probe takes
    # PROBE_REFERENCE_S. Set-up samples are spread evenly over the run.
    gauge = probe()

    def rescaled(wall: float) -> float:
        nonlocal gauge
        before, gauge = gauge, probe()
        return wall * PROBE_REFERENCE_S / ((before + gauge) / 2)

    setup, raw_setup, walls, raw_walls, rss = [], [], [], [], []
    start = time.perf_counter()
    while True:
        while len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            raw_setup.append(measure_setup(spawner))
            setup.append(rescaled(raw_setup[-1]))
        run.out_path.unlink(missing_ok=True)
        code, wall, mb = spawner.run(run.child_argv, run.stdout_path, run.stderr_path)
        raw_walls.append(wall)
        walls.append(rescaled(wall))
        rss.append(mb)
        run.record(run.output(), code)
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        raw_setup.append(measure_setup(spawner))
        setup.append(rescaled(raw_setup[-1]))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    w25, w75 = _quartiles(walls)
    s25, s75 = _quartiles(setup)
    notes = [
        f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} invocations, quartiles {w25:.4f} .. {w75:.4f}; "
        f"unscaled median {statistics.median(raw_walls):.4f} s",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh `import ecodyn.cli`, quartiles {s25:.4f} .. {s75:.4f}; "
        f"unscaled median {statistics.median(raw_setup):.4f} s",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB  median of {len(rss)}, range {min(rss):.2f} .. {max(rss):.2f}",
        f"speed probe  timings rescaled to a {PROBE_REFERENCE_S} s probe; last probe {gauge:.4f} s",
    ]
    return metrics, notes


def _import_ecodyn_cli() -> Any:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ecodyn.cli as cli

    if Path(cli.__file__).resolve() != (SRC / "ecodyn" / "cli.py").resolve():
        raise SetupError(f"imported ecodyn.cli from {cli.__file__}, want the checkout's src/")
    return cli


def _call(cli: Any, run: Run) -> tuple[float, str]:
    """One in-process ``cli.main`` call: wall seconds and checked output."""
    run.out_path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(run.argv))
        except Exception:  # a crash is a failed invocation, as in a child process
            code = -1
            run.errors.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
    text = run.output(stdout.getvalue())
    run.record(text, code)
    return wall, text


def _layer_metrics(tracer: Tracer, workload: str, text: str) -> dict[str, float]:
    counts = tracer.counts
    cells = counts["sweep.cells"]
    checks = tracer.span_seconds("audit.")
    m: dict[str, float] = {
        "cli.self_s": tracer.self_s["cli"],
        "cli.rows": output_rows(workload, text),
        "cli.bytes_out": len(text.encode("utf-8")),
        "sweep.self_s": tracer.self_s["sweep"],
        "sweep.cells": cells,
        "sweep.flagged": counts["sweep.flagged"],
        "sweep.useful_ratio": (cells - counts["sweep.flagged"]) / cells if cells else 0.0,
        "oracles.self_s": tracer.self_s["oracles"],
        "oracles.rk4_steps": counts["oracles.rk4_steps"],
        "oracles.rhs_evals": counts["oracles.rhs_evals"],
        "oracles.grid_evals": counts["oracles.grid_evals"],
    }
    for layer in ("budget_dynamics", "value_feedback", "wage_profit"):
        m[f"{layer}.self_s"] = tracer.self_s[layer]
        m[f"{layer}.calls"] = tracer.calls[layer]
    for name in AUDIT_CHECKS:
        m[f"audit.{name}_s"] = checks.get(f"audit.{name}", 0.0)
    return m


def run_traced(run: Run, spawner: Spawner, seconds: float, seed: int) -> tuple[dict[str, float], list[str]]:
    cli = _import_ecodyn_cli()
    numpy_s, ecodyn_s = measure_imports(spawner)
    tracer = Tracer()
    plain_walls, traced_walls, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, _ = _call(cli, run)
        plain_walls.append(wall)
        tracer.reset(len(traced_walls))
        tracer.install()
        try:
            wall, text = _call(cli, run)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        per_call.append(_layer_metrics(tracer, run.workload.name, text))
        if time.perf_counter() >= deadline:
            break

    metrics: dict[str, float] = {
        "import.numpy_s": statistics.median(numpy_s),
        "import.ecodyn_s": statistics.median(ecodyn_s),
    }
    for name, unit in PER_LAYER.items():
        if name in metrics or name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_call]
        if unit == "count":
            if len(set(values)) != 1:
                run.errors.append(f"count {name} differs between traced calls: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    trace_path = WORK / f"trace_{run.workload.name}_seed{seed}.json"
    trace_path.write_text(
        json.dumps({"workload": run.workload.name, "seed": seed, "per_call": per_call, "spans": tracer.spans}),
        encoding="utf-8",
    )
    notes = [
        f"in-process cli.main: {len(plain_walls)} plain calls, median {statistics.median(plain_walls):.4f} s; "
        f"{len(traced_walls)} traced calls, median {statistics.median(traced_walls):.4f} s",
        f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}",
    ]
    width = max(len(n) for n in PER_LAYER)
    for name, unit in PER_LAYER.items():
        value = metrics[name]
        shown = f"{value:.6f}" if unit in ("s", "ratio") else f"{value:.0f}"
        notes.append(f"{name:<{width}}  {shown} {unit}")
    return metrics, notes


def run_workload(name: str, spawner: Spawner, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    run = Run(WORKLOADS[name], seed)
    try:
        if trace:
            metrics, notes = run_traced(run, spawner, seconds, seed)
            units = PER_LAYER
        else:
            metrics, notes = run_end_to_end(run, spawner, seconds)
            units = END_TO_END
    finally:
        run.cleanup()
    fail_frac = run.failed / run.attempted
    print(f"== {name}  seed {seed}  {'traced, in process' if trace else 'closed loop, 1 client, 1 child at a time'}")
    for line in notes:
        print(line)
    print(f"fail_frac    {fail_frac:.4f}      {run.failed} failed / {run.attempted} attempted")
    print(f"sha256       {len(run.digests)} distinct output(s), first {min(run.digests)[:16]} (information only)")
    for err in run.errors:
        print(f"error: {err}")
    return {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        with Spawner() as spawner:
            _check_source(spawner)
            print(
                f"env: python {platform.python_version()}, numpy {np.__version__}, "
                f"{os.cpu_count()} cpus, {platform.machine()}"
            )
            results = {
                name: run_workload(name, spawner, args.seed, args.seconds, bool(args.trace))
                for name in names
            }
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

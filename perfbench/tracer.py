"""In-process tracer for the ``ecodyn`` layers.

``Tracer.install`` wraps every public function of each ``ecodyn``
module, rebinds every reference to it inside the package, and wraps the
function of each entry of ``audit.CHECKS``; ``uninstall`` puts the
originals back. Nothing under ``src/`` changes.

Every wrapped call adds its self time (its duration minus the time its
wrapped children cover) to its module's layer and counts one call.
Boundary calls (``cli.main``, ``sweep``/``stability_region``,
``rk4_integrate``, ``grid_argmax`` and each audit check) also record a
full span: id, parent span, trace id, name, start and end. Per-cell and
per-step functions run up to millions of times, so they get only a
count and a total. Callables handed to an oracle run as their own
frames, charged to the module that defined them, so ``oracles.self_s``
excludes callback time. Everything stays in memory until ``spans`` is
read at the end.

Self times include the tracer's own cost, about a microsecond per
wrapped call, charged mostly to the caller's layer; ``trace.overhead_s``
gives the total. Compare self times only between runs of the same
tracer, and read the counts for the work done.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = (
    "cli",
    "sweep",
    "budget_dynamics",
    "value_feedback",
    "oracles",
    "wage_profit",
    "audit",
)
BOUNDARY = {
    "cli.main",
    "sweep.sweep",
    "sweep.stability_region",
    "oracles.rk4_integrate",
    "oracles.grid_argmax",
}
# oracle -> (argument holding the callable, counter of its evaluations)
CALLBACKS = {
    "oracles.rk4_integrate": ("spec", "oracles.rhs_evals"),
    "oracles.grid_argmax": ("f", "oracles.grid_evals"),
    "oracles.central_diff_first": ("f", None),
    "oracles.central_diff_second": ("f", None),
}


class Tracer:
    """Self time and call counts per layer, plus spans at boundaries."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[dict[str, Any]] = []
        self.trace_id = 0
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self, trace_id: int) -> None:
        """Zero the aggregates before the next traced call; spans accumulate."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.trace_id = trace_id

    def _frame(self, fn: Callable, layer: str, name: str | None, args, kwargs):
        """Run fn as one frame of layer; name it to record a full span."""
        if name is not None:
            span_id = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append({"id": span_id, "parent": parent, "trace": self.trace_id, "name": name})
            self._open_spans.append(span_id)
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self.self_s[layer] += elapsed - self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            if name is not None:
                self._open_spans.pop()
                self.spans[span_id].update(start=start, end=end)

    def _callback(self, fn: Callable, counter: str | None) -> Callable:
        module = getattr(fn, "__module__", "") or ""
        layer = module.rpartition(".")[2] if module.startswith("ecodyn.") else "oracles"

        def callback(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            return self._frame(fn, layer, None, args, kwargs)

        return callback

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        qualname = f"{layer}.{fn.__name__}"
        span = qualname if qualname in BOUNDARY else None
        callback = CALLBACKS.get(qualname)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if callback is not None:
                bound = signature.bind(*args, **kwargs)
                arg, counter = callback
                target = bound.arguments[arg]
                if arg == "spec":
                    self.counts["oracles.rk4_steps"] += target.steps
                    target = dataclasses.replace(target, rhs=self._callback(target.rhs, counter))
                else:
                    target = self._callback(target, counter)
                bound.arguments[arg] = target
                args, kwargs = bound.args, bound.kwargs
            result = self._frame(fn, layer, span, args, kwargs)
            if qualname == "sweep.sweep":
                self.counts["sweep.cells"] += result.metadata["cells"]
                self.counts["sweep.flagged"] += result.metadata["flagged"]
            return result

        return wrapper

    def _wrap_check(self, check: Any) -> Any:
        fn = check.fn
        name = f"audit.{check.name}"

        def run_check(*args, **kwargs):
            return self._frame(fn, "audit", name, args, kwargs)

        return dataclasses.replace(check, fn=run_check)

    def span_seconds(self, prefix: str) -> dict[str, float]:
        """Duration of each span of the current trace whose name starts with prefix."""
        return {
            s["name"]: s["end"] - s["start"]
            for s in self.spans
            if s["trace"] == self.trace_id and s["name"].startswith(prefix)
        }

    def install(self) -> None:
        """Wrap the package's public functions until ``uninstall``."""
        modules = {layer: importlib.import_module(f"ecodyn.{layer}") for layer in LAYERS}
        wrappers: dict[Any, Callable] = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[value] = self._wrap(value, layer)
        for module in (importlib.import_module("ecodyn"), *modules.values()):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[value])
        audit = modules["audit"]
        self._patches.append((audit, "CHECKS", audit.CHECKS))
        audit.CHECKS = tuple(self._wrap_check(c) for c in audit.CHECKS)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

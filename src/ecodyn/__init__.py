"""Feedback models for three economic policy mechanisms.

Three small model families share one package because they share one
shape: a quantity fed back into itself through policy parameters, with
stability and optimality decided by a handful of derived constants.
Every closed form ships with an independent numerical cross-check; see
:mod:`ecodyn.audit` and the ``ecodyn verify`` command.

Importing the package loads no model: each public name, and each
submodule, is imported on first use (PEP 562), so a run pays only for
the models it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name's home: (submodule, attribute), in __all__ order.
_HOMES: dict[str, tuple[str, str]] = {
    name: (module, name)
    for module, names in {
        "errors": "EcodynError InvariantViolation DomainError NonpositiveMargin "
        "SingularExponent NumericalFailure",
        "wage_profit": "CostStructure WageBound ProfitPoint UnboundedProfit gross_margin "
        "net_profit profit_derivatives optimal_wage profit_curve",
        "value_feedback": "FeedbackGains BalancedFeedback MarketValueSolution "
        "LimitProbeResult exponent_from_gains ode_rhs analytic_market_value "
        "closed_form_slope singular_market_value market_gap gap_from_gains limit_probe",
        "budget_dynamics": "BudgetParams RecurrenceCoefficients StabilityReport "
        "DegenerateRange DivergentFixedPoint DeficiencyFactors apply_deficiencies "
        "flow_balance investments annual_change coefficients iterate "
        "fixed_point closed_form impulse_response tax_leverage taxation_range "
        "shrink_condition stability_report",
        "oracles": "IntegrationSpec DiffSpec rk4_integrate central_diff_first "
        "central_diff_second grid_argmax",
        "grid": "Axis ParamGrid",
        "sweep": "SweepResult ModelBinding",
    }.items()
    for name in names.split()
}

_SUBMODULES = {module for module, _ in _HOMES.values()} | {"audit", "cli", "schema"}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str) -> object:
    """A public name or a submodule, imported on first use and then kept."""
    if name in _HOMES:
        module, attribute = _HOMES[name]
        value = getattr(importlib.import_module(f".{module}", __name__), attribute)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

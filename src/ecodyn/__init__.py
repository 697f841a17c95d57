"""Feedback models for three economic policy mechanisms.

Three small model families share one package because they share one
shape: a quantity fed back into itself through policy parameters, with
stability and optimality decided by a handful of derived constants.
Every closed form ships with an independent numerical cross-check; see
:mod:`ecodyn.audit` and the ``ecodyn verify`` command.
"""

__version__ = "0.1.0"

from .budget_dynamics import (
    BudgetParams,
    DeficiencyAdjusted,
    DeficiencyFactors,
    DegenerateRange,
    DivergentFixedPoint,
    RecurrenceCoefficients,
    SpendingInputs,
    StabilityReport,
    WelfareInputs,
    annual_change,
    apply_deficiencies,
    closed_form,
    coefficients,
    fixed_point,
    flow_balance,
    impulse_response,
    investments,
    iterate,
    shrink_condition,
    spending_index,
    stability_report,
    tax_leverage,
    taxation_range,
    welfare_index,
)
from .errors import (
    DomainError,
    EcodynError,
    InvariantViolation,
    NonpositiveMargin,
    NumericalFailure,
    SingularExponent,
)
from .oracles import (
    DiffSpec,
    IntegrationSpec,
    central_diff_first,
    central_diff_second,
    grid_argmax,
    rk4_integrate,
)
from .sweep import Axis, ModelBinding, ParamGrid, SweepResult
from .sweep import stability_region as sweep_stability_region
from .sweep import sweep as run_sweep
from .value_feedback import (
    BalancedFeedback,
    FeedbackGains,
    LimitProbeResult,
    MarketValueSolution,
    analytic_market_value,
    closed_form_slope,
    exponent_from_gains,
    gap_from_gains,
    limit_probe,
    market_gap,
    ode_rhs,
    singular_market_value,
    singular_slope,
    value_premium,
)
from .wage_profit import (
    CostStructure,
    ProfitPoint,
    UnboundedProfit,
    WageBound,
    gross_margin,
    net_profit,
    optimal_wage,
    profit_curve,
    profit_derivatives,
    total_cost,
)

__all__ = [
    "__version__",
    # errors
    "EcodynError",
    "InvariantViolation",
    "DomainError",
    "NonpositiveMargin",
    "SingularExponent",
    "NumericalFailure",
    # wage model
    "CostStructure",
    "WageBound",
    "ProfitPoint",
    "UnboundedProfit",
    "gross_margin",
    "total_cost",
    "net_profit",
    "profit_derivatives",
    "optimal_wage",
    "profit_curve",
    # value model
    "FeedbackGains",
    "BalancedFeedback",
    "MarketValueSolution",
    "LimitProbeResult",
    "exponent_from_gains",
    "ode_rhs",
    "analytic_market_value",
    "closed_form_slope",
    "singular_market_value",
    "singular_slope",
    "value_premium",
    "market_gap",
    "gap_from_gains",
    "limit_probe",
    # budget model
    "BudgetParams",
    "RecurrenceCoefficients",
    "StabilityReport",
    "DegenerateRange",
    "DivergentFixedPoint",
    "DeficiencyFactors",
    "DeficiencyAdjusted",
    "SpendingInputs",
    "WelfareInputs",
    "spending_index",
    "welfare_index",
    "apply_deficiencies",
    "flow_balance",
    "investments",
    "annual_change",
    "coefficients",
    "iterate",
    "fixed_point",
    "closed_form",
    "impulse_response",
    "tax_leverage",
    "taxation_range",
    "shrink_condition",
    "stability_report",
    # numerics
    "IntegrationSpec",
    "DiffSpec",
    "rk4_integrate",
    "central_diff_first",
    "central_diff_second",
    "grid_argmax",
    # sweeps
    "Axis",
    "ParamGrid",
    "SweepResult",
    "ModelBinding",
    "run_sweep",
    "sweep_stability_region",
]

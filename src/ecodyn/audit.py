"""Self-contained numerical audit of every closed form in the package.

Each check recomputes a claim along an independent route (finite
differences against exact derivatives, step-by-step iteration against
closed forms, brute-force grid search against the analytic optimum) and
compares within a named tolerance. Checks draw their random cases from
per-check seeded generators, so results are reproducible and overriding
one tolerance never shifts another check's samples.

Informational notes document behaviors that are real but easy to
misread; they carry no pass/fail status.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import budget_dynamics as bd
from . import oracles
from . import value_feedback as vf
from . import wage_profit as wp
from .errors import InvariantViolation
from .schema import NONNEG, declared

DEFAULT_SEED = 1729

# round-number configuration whose hand-checkable values anchor several
# consistency checks and tests
REFERENCE_BUDGET = bd.BudgetParams(
    tax_rate=0.3,
    spending_split=0.5,
    private_fraction=0.7,
    invest_share=0.1,
    foreign_multiplier=0.2,
    gov_spending=100.0,
    initial_wages=1000.0,
)

PROBE_EXPONENTS = (-5.0, -2.0, -0.5, 2.0, 3.0)

# expected default-constant gaps at true value 2, quoted to 6 decimals
GAP_TARGETS = ((-10.0, -0.181907), (-100.0, -0.019802), (-1000.0, -0.001998))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    tolerance: float
    observed: float
    detail: str


class InfoNote(NamedTuple):
    name: str
    text: str


class AuditReport(NamedTuple):
    results: tuple[CheckResult, ...]
    notes: tuple[InfoNote, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _random_cost_structure(rng: random.Random) -> wp.CostStructure:
    labor = rng.uniform(0.05, 0.95)
    cuts = sorted(rng.random() for _ in range(rng.randint(0, 2)))
    rest = 1.0 - labor
    bounds = [0.0, *cuts, 1.0]
    factors = tuple(
        (rest * (b - a), rng.uniform(0.0, 10.0))
        for a, b in zip(bounds, bounds[1:])
    )
    margin = rng.uniform(0.5, 20.0)
    price = sum(w * z for w, z in factors) + margin
    return wp.CostStructure(price, labor, factors)


# the uniform range of each BudgetParams field in random draws, in field order
_BUDGET_RANGES = ((0.0, 1.0),) * 5 + ((0.0, 1000.0), (1.0, 10000.0))
_DRAW_LOW = np.array([a for a, _ in _BUDGET_RANGES])
_DRAW_SPAN = np.array([b - a for a, b in _BUDGET_RANGES])


def _random_budget(rng: random.Random) -> bd.BudgetParams:
    return bd.BudgetParams(*(rng.uniform(a, b) for a, b in _BUDGET_RANGES))


def _random_budgets(rng: random.Random, n: int) -> np.ndarray:
    """n draws of _random_budget as the 7 columns of BudgetParams.

    rng.uniform(a, b) is a + (b - a) * rng.random(), and numpy's + and *
    round as Python's do, so row j equals the j-th _random_budget call
    bit for bit and the stream ends where those n calls leave it. A row
    BudgetParams would reject raises instead of being dropped.
    """
    draws = np.fromiter(iter(rng.random, None), float, count=7 * n).reshape(n, 7)
    rows = _DRAW_LOW + _DRAW_SPAN * draws
    columns = rows.T
    bounds = [bound for _, bound in declared(bd.BudgetParams)]
    admitted = np.all([bound.admits(column) for bound, column in zip(bounds, columns)], axis=0)
    if not admitted.all():
        row = rows[admitted.argmin()].tolist()
        raise InvariantViolation(f"random draw outside the BudgetParams bounds: {row}")
    return columns


def _worst(errors: list[float] | np.ndarray) -> float:
    """The largest of a check's per-draw errors, 0.0 when there are none.

    A NaN error makes the result NaN, which fails any tolerance; max()
    would pass over a NaN that is not its first argument.
    """
    return float(np.max(errors, initial=0.0))


def _check_wage_grid_argmax(rng: random.Random):
    misses = 0
    for _ in range(100):
        cs = _random_cost_structure(rng)
        floor = rng.uniform(0.1, 5.0)
        grid = np.linspace(floor, 10.0 * floor, 1000)
        wp._check_wage(grid.min())  # net_profit's wage check, for the whole grid
        margin = wp.gross_margin(cs)
        found, _ = oracles.grid_argmax(lambda w: wp._profit_ratio(margin, w, cs.labor_weight), grid)
        best = wp.optimal_wage(cs, wp.WageBound(floor))
        assert isinstance(best, wp.ProfitPoint)
        if found != best.wage:
            misses += 1
    return float(misses), f"{100 - misses}/100 maximizers at the wage floor"


def _check_wage_derivative_fd(rng: random.Random):
    errors = []
    for _ in range(100):
        cs = _random_cost_structure(rng)
        w = rng.uniform(0.2, 5.0)
        d1, d2 = wp.profit_derivatives(cs, w)

        def f(x: float, cs=cs) -> float:
            return wp.net_profit(cs, x)

        # steps scale with the wage so truncation error stays scale-free
        fd1 = oracles.central_diff_first(f, w, oracles.DiffSpec(h=1e-4 * w))
        fd2 = oracles.central_diff_second(f, w, oracles.DiffSpec(h=5e-4 * w))
        errors += abs(fd1 - d1) / abs(d1), abs(fd2 - d2) / abs(d2)
    worst = _worst(errors)
    return worst, f"max relative derivative error over 100 structures: {worst:.3e}"


def _check_wage_unbounded(rng: random.Random):
    cs = wp.CostStructure(10.0, 1.0)
    ratio_ok = wp.net_profit(cs, 1e-9) > 1e9 * wp.net_profit(cs, 1.0)
    marker_ok = isinstance(wp.optimal_wage(cs, wp.WageBound(0.0)), wp.UnboundedProfit)
    detail = "profit at wage 1e-9 dwarfs profit at wage 1; a zero floor yields the unbounded marker"
    return (0.0 if ratio_ok and marker_ok else math.inf), detail


def _ode_residual(slope: Callable[[vf.MarketValueSolution, float], float]) -> float:
    """Largest |slope(sol, x) - ode_rhs| of the closed form on PROBE_EXPONENTS x 50 x."""
    errors = []
    for b in PROBE_EXPONENTS:
        sol = vf.MarketValueSolution.with_default_coeff(b)
        for x in np.linspace(0.5, 5.0, 50).tolist():
            errors.append(abs(slope(sol, x) - vf.ode_rhs(b, x, vf.analytic_market_value(sol, x))))
    return _worst(errors)


def _check_ode_residual_closed_form(rng: random.Random):
    worst = _ode_residual(vf.closed_form_slope)
    return worst, f"max equation residual of the exact slope: {worst:.3e}"


def _fd_slope(sol: vf.MarketValueSolution, x: float) -> float:
    return oracles.central_diff_first(lambda v: vf.analytic_market_value(sol, v), x)


def _check_ode_residual_fd(rng: random.Random):
    worst = _ode_residual(_fd_slope)
    return worst, f"max equation residual of the finite-difference slope: {worst:.3e}"


def _check_rk4_agreement(rng: random.Random):
    errors = []
    for b in PROBE_EXPONENTS:
        sol = vf.MarketValueSolution.with_default_coeff(b)
        spec = oracles.IntegrationSpec(
            1.0, 3.0, 1000, lambda x, y, b=b: vf.ode_rhs(b, x, y)
        )
        got = oracles.rk4_integrate(spec, vf.analytic_market_value(sol, 1.0))
        exact = vf.analytic_market_value(sol, 3.0)
        errors.append(abs(got - exact) / max(1.0, abs(exact)))
    worst = _worst(errors)
    return worst, f"max relative gap between integrator and closed form: {worst:.3e}"


def _check_gap_convergence(rng: random.Random):
    probe = vf.limit_probe(2.0, [b for b, _ in GAP_TARGETS])
    gaps = [g for _, g in probe.points]
    worst = _worst([abs(g - t) for g, (_, t) in zip(gaps, GAP_TARGETS)])
    shrinking = all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))
    detail = f"gaps {[round(g, 9) for g in gaps]} match quoted values; magnitudes shrink"
    return (worst if shrinking and not probe.divergent else math.inf), detail


def _check_recurrence_closed_vs_iterate(rng: random.Random):
    errors = []
    for i in range(500):
        params = _random_budget(rng)
        n = rng.randint(0, 50)
        mode = bd.MODES[i % 2]
        stepped = bd.iterate(params, n, mode)[-1]
        direct = bd.closed_form(params, n, mode)
        errors.append(abs(stepped - direct) / max(1.0, abs(direct)))
    worst = _worst(errors)
    return worst, f"max relative gap over 500 trajectories, both modes: {worst:.3e}"


def _check_fixed_point_identity(rng: random.Random):
    errors = []
    for i in range(500):
        params = _random_budget(rng)
        mode = bd.MODES[i % 2]
        fp = bd.fixed_point(params, mode)
        if isinstance(fp, bd.DivergentFixedPoint):
            continue
        coeffs = bd.coefficients(params)
        pole = coeffs.pole_in_mode(mode)
        errors.append(abs(pole * fp + coeffs.constant_flow - fp) / max(1.0, abs(fp)))
    worst = _worst(errors)
    return worst, f"max fixed-point residual over 500 draws: {worst:.3e}"


def _bounded_leverage_budgets(rng: random.Random, n: int) -> np.ndarray:
    """The first n _random_budget draws with 1 + leverage > 0, as columns.

    Attempts are drawn a block at a time, each block as large as the
    number still missing. The loop ends on a block that was accepted
    whole, so the stream ends where the draw-by-draw loop leaves it.
    """
    accepted = np.empty((7, 0))
    while accepted.shape[1] < n:
        block = _random_budgets(rng, n - accepted.shape[1])
        _, s, p, i, f, _, _ = block
        keep = 1.0 + bd._leverage(s, p, i, f) > 0.0
        accepted = np.concatenate([accepted, block[:, keep]], axis=1)
    return accepted


def _check_pole_range_equivalence(rng: random.Random):
    t, s, p, i, f, g, _ = _bounded_leverage_budgets(rng, 10000)
    lo, hi = bd._stable_interval(bd._leverage(s, p, i, f), "direct")
    if not np.all(lo < hi):
        raise InvariantViolation("an accepted draw has an empty stable tax interval")
    in_range = (lo <= t) & (t <= hi)
    stable = bd._is_stable(bd._coefficients(t, s, p, i, f, g).pole)
    mismatches = int(np.count_nonzero(in_range != stable))
    detail = f"{mismatches} disagreements between pole magnitude and tax interval over 10000 draws"
    return float(mismatches), detail


def _check_regrouping_identity(rng: random.Random):
    t, s, p, i, f, g, _ = _random_budgets(rng, 10000)
    lev = bd._leverage(s, p, i, f)
    regrouped = t * (1.0 + lev) - lev
    pole = bd._coefficients(t, s, p, i, f, g).pole
    worst = _worst(np.abs(pole - regrouped))
    return worst, f"max pole regrouping discrepancy over 10000 draws: {worst:.3e}"


def _check_impulse_step_consistency(rng: random.Random):
    errors = []
    coeffs = bd.coefficients(REFERENCE_BUDGET)
    for mode in bd.MODES:
        pole = coeffs.pole_in_mode(mode)
        level = 0.0
        acc = 0.0
        for n in range(30):
            level = pole * level + coeffs.constant_flow
            acc += bd.impulse_response(REFERENCE_BUDGET, n, mode)
            errors.append(abs(level - acc) / max(1.0, abs(acc)))
    worst = _worst(errors)
    return worst, f"max gap between accumulated impulses and the stepped response: {worst:.3e}"


def _leverage_scan():
    """Max leverage and shrink-predicate count over the parameter box.

    The surface is tax_leverage's own expression evaluated on arrays, so
    every cell matches the scalar call bit for bit; the extreme cell is
    then re-run through the scalar production functions to pin the two
    routes together.
    """
    c = np.linspace(0.0, 1.0, 21)
    p = np.linspace(0.0, 1.0, 21)
    xi = np.linspace(0.0, 2.0, 21)
    th = np.linspace(0.0, 2.0, 21)
    cg, pg, xg, tg = np.meshgrid(c, p, xi, th, indexing="ij", sparse=True)
    lev = bd._leverage(cg, pg, xg, tg)
    worst = float(lev.max())
    fires = int(np.count_nonzero(lev > 1.0))
    i, j, k, m = np.unravel_index(int(lev.argmax()), lev.shape)
    cell = bd.BudgetParams(
        0.5, float(c[i]), float(p[j]), float(xi[k]), float(th[m]), 0.0, 1.0
    )
    agrees = bd.tax_leverage(cell) == worst and bd.shrink_condition(cell) == (
        worst > 1.0
    )
    return worst, fires, agrees


def _check_shrink_reachability(rng: random.Random):
    worst, fires, agrees = _leverage_scan()
    detail = f"shrink predicate fired {fires} times over 194481 grid points; max leverage {worst}"
    return (float(fires) if agrees else math.inf), detail


# a dataclass, not a NamedTuple: perfbench's tracer swaps fn with dataclasses.replace
@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float
    description: str
    fn: Callable[[random.Random], tuple[float, str]]


CHECKS: tuple[Check, ...] = (
    Check(
        "wage_grid_argmax",
        0.0,
        "brute-force grid search over [floor, 10*floor] lands on the wage floor "
        "for 100 random cost structures (allowed misses)",
        _check_wage_grid_argmax,
    ),
    Check(
        "wage_derivative_fd",
        1e-6,
        "profit curve derivatives agree with central differences to this "
        "relative error over 100 random cost structures",
        _check_wage_derivative_fd,
    ),
    Check(
        "wage_unbounded_limit",
        0.0,
        "with margin 10 and pure labor cost, profit at wage 1e-9 exceeds 1e9 "
        "times profit at wage 1, and a zero floor returns the unbounded marker",
        _check_wage_unbounded,
    ),
    Check(
        "ode_residual_closed_form",
        1e-12,
        "exact slope of the closed form satisfies the governing equation to "
        "this absolute residual on 5 exponents x 50 points",
        _check_ode_residual_closed_form,
    ),
    Check(
        "ode_residual_fd",
        1e-6,
        "finite-difference slope of the closed form satisfies the governing "
        "equation to this absolute residual on 5 exponents x 50 points",
        _check_ode_residual_fd,
    ),
    Check(
        "rk4_agreement",
        1e-6,
        "integrating the equation from true value 1 to 3 in 1000 steps "
        "reproduces the closed form to this relative error",
        _check_rk4_agreement,
    ),
    Check(
        "gap_convergence",
        1e-5,
        "default-constant gaps at true value 2 match quoted values at "
        "exponents -10, -100, -1000 and shrink in magnitude",
        _check_gap_convergence,
    ),
    Check(
        "recurrence_closed_vs_iterate",
        1e-10,
        "closed-form pool level matches step-by-step iteration to this "
        "relative error over 500 random parameter draws, both modes",
        _check_recurrence_closed_vs_iterate,
    ),
    Check(
        "fixed_point_identity",
        1e-12,
        "the reported fixed point is left unchanged by one recurrence step, "
        "to this relative residual, over 500 random draws",
        _check_fixed_point_identity,
    ),
    Check(
        "pole_range_equivalence",
        0.0,
        "pole magnitude at most 1 coincides with the tax rate lying in the "
        "derived interval over 10000 random draws (allowed disagreements)",
        _check_pole_range_equivalence,
    ),
    Check(
        "regrouping_identity",
        1e-14,
        "the pole equals tax_rate * (1 + leverage) - leverage to this "
        "absolute discrepancy over 10000 random draws",
        _check_regrouping_identity,
    ),
    Check(
        "impulse_step_consistency",
        1e-12,
        "accumulated impulse responses reproduce the stepped response from an "
        "empty pool to this relative error, both modes, 30 years",
        _check_impulse_step_consistency,
    ),
    Check(
        "shrink_reachability",
        0.0,
        "the shrink predicate never fires on the 21^4 admissible parameter "
        "grid (allowed firings)",
        _check_shrink_reachability,
    ),
)


def default_tolerances() -> dict[str, float]:
    return {c.name: c.tolerance for c in CHECKS}


def list_checks() -> list[tuple[str, float, str]]:
    return [(c.name, c.tolerance, c.description) for c in CHECKS]


def _notes() -> tuple[InfoNote, ...]:
    probe = vf.limit_probe(2.0, [b for b, _ in GAP_TARGETS])
    signs = {"+" if g > 0 else "-" for _, g in probe.points}
    gap_sign = InfoNote(
        "gap_sign",
        "at true value 2 the default-constant gap is negative at exponents "
        f"-10, -100, -1000 (signs seen: {sorted(signs)}): market value "
        "approaches true value from below. Only the shrinking magnitude is "
        "asserted; an approach from above does not hold for this family.",
    )

    b, x = -2.0, 2.0
    sol = vf.MarketValueSolution.with_default_coeff(b)
    rhs = vf.ode_rhs(b, x, vf.analytic_market_value(sol, x))
    factored = (b / (b - 1.0)) * (x ** (b - 1.0) + b)
    exact = vf.closed_form_slope(sol, x)
    slope_factoring = InfoNote(
        "slope_factoring",
        "negative control: the factored slope variant "
        "(b/(b-1))*(x**(b-1) + b) misses the equation's right-hand side by "
        f"{abs(factored - rhs)!r} at exponent -2, true value 2, while the "
        f"term-by-term derivative misses it by {abs(exact - rhs)!r}. The "
        "term-by-term form is used throughout.",
    )

    shrink_unreachable = InfoNote(
        "shrink_unreachable",
        "the shrink predicate needs leverage above 1, but with spending split "
        "and private fraction in [0, 1] the product term caps at 1 and the "
        "investment term only subtracts, so leverage peaks at exactly 1.0 at "
        "the no-spending, no-retention, no-investment corner. The predicate "
        "is unreachable for admissible parameters.",
    )
    return (gap_sign, slope_factoring, shrink_unreachable)


def run_all(
    overrides: Mapping[str, float] | None = None, seed: int = DEFAULT_SEED
) -> AuditReport:
    """Run every check, with optional per-check tolerance overrides.

    A check returns its observed value and a detail line. It passes when
    the observed value is <= its tolerance, so NaN fails any tolerance.
    wage_unbounded_limit, gap_convergence and shrink_reachability observe
    inf when the condition they test beside their tolerance fails.

    Unknown override names are rejected up front so a typo cannot
    silently leave the intended check at its default, and so are values
    that are not finite and >= 0: a NaN or negative tolerance fails any
    check and an infinite one passes any.
    """
    tolerances = default_tolerances()
    if overrides:
        unknown = sorted(set(overrides) - set(tolerances))
        if unknown:
            raise InvariantViolation(
                f"unknown check names in tolerance overrides: {unknown}; "
                f"known checks: {sorted(tolerances)}"
            )
        for name, tol in overrides.items():
            NONNEG.check(f"tolerance {name!r}", tol)
        tolerances.update(overrides)
    results = []
    for check in CHECKS:
        tol = tolerances[check.name]
        rng = random.Random(f"{seed}:{check.name}")
        observed, detail = check.fn(rng)
        results.append(CheckResult(check.name, observed <= tol, tol, observed, detail))
    return AuditReport(tuple(results), _notes())

"""Acceptance gate: every headline claim, re-derived at a pinned tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
re-implements its check directly against the library, without going
through the audit module, so the two verification routes stay
independent. Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import goldens
import numpy as np

from ecodyn import budget_dynamics as bd
from ecodyn import oracles
from ecodyn import value_feedback as vf
from ecodyn import wage_profit as wp

DATA = Path(__file__).parent / "data"

DERIVATIVE_REL_TOL = 1e-6
SLOPE_RESIDUAL_TOL = 1e-12
FD_RESIDUAL_TOL = 1e-6
RK4_REL_TOL = 1e-6
GAP_ABS_TOL = 1e-5
CLOSED_FORM_REL_TOL = 1e-10
FIXED_POINT_TOL = 1e-12
REGROUPING_TOL = 1e-14


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"FAIL {name}", flush=True)
        raise
    print(f"PASS {name}", flush=True)


def random_cost_structure(rng):
    labor = rng.uniform(0.05, 0.95)
    rest = 1.0 - labor
    z = rng.uniform(0.0, 10.0)
    margin = rng.uniform(0.5, 20.0)
    return wp.CostStructure(rest * z + margin, labor, ((rest, z),))


def random_budget(rng):
    return bd.BudgetParams(
        tax_rate=rng.uniform(0.0, 1.0),
        spending_split=rng.uniform(0.0, 1.0),
        private_fraction=rng.uniform(0.0, 1.0),
        invest_share=rng.uniform(0.0, 1.0),
        foreign_multiplier=rng.uniform(0.0, 1.0),
        gov_spending=rng.uniform(0.0, 1000.0),
        initial_wages=rng.uniform(1.0, 10000.0),
    )


def test_criterion_1_wage_optimum_and_derivatives():
    with criterion(
        "criterion 1: grid search pins the optimum to the wage floor (100/100) "
        "and derivatives match central differences to 1e-6 relative"
    ):
        rng = random.Random("acceptance:wage")
        for _ in range(100):
            cs = random_cost_structure(rng)
            floor = rng.uniform(0.1, 5.0)
            grid = [float(v) for v in np.linspace(floor, 10.0 * floor, 1000)]
            found, _ = oracles.grid_argmax(
                lambda ws: np.array([wp.net_profit(cs, w) for w in ws.tolist()]), grid
            )
            best = wp.optimal_wage(cs, wp.WageBound(floor))
            assert isinstance(best, wp.ProfitPoint)
            assert found == best.wage == floor

            w = rng.uniform(0.2, 5.0)
            d1, d2 = wp.profit_derivatives(cs, w)
            f = lambda x, cs=cs: wp.net_profit(cs, x)
            fd1 = oracles.central_diff_first(f, w, oracles.DiffSpec(h=1e-4 * w))
            fd2 = oracles.central_diff_second(f, w, oracles.DiffSpec(h=5e-4 * w))
            assert abs(fd1 - d1) / abs(d1) <= DERIVATIVE_REL_TOL
            assert abs(fd2 - d2) / abs(d2) <= DERIVATIVE_REL_TOL


def test_criterion_2_unbounded_profit_without_floor():
    with criterion(
        "criterion 2: profit at wage 1e-9 exceeds 1e9 times profit at wage 1, "
        "and a zero floor returns the unbounded marker"
    ):
        cs = wp.CostStructure(10.0, 1.0)  # margin 10, pure labor cost
        assert wp.net_profit(cs, 1e-9) > 1e9 * wp.net_profit(cs, 1.0)
        assert isinstance(wp.optimal_wage(cs, wp.WageBound(0.0)), wp.UnboundedProfit)


def test_criterion_3_value_equation_residuals_and_integration():
    with criterion(
        "criterion 3: closed-form slope residual < 1e-12, finite-difference "
        "residual < 1e-6, integrator agrees to 1e-6 relative"
    ):
        for b in (-5.0, -2.0, -0.5, 2.0, 3.0):
            sol = vf.MarketValueSolution.with_default_coeff(b)
            f = lambda x, sol=sol: vf.analytic_market_value(sol, x)
            for x in np.linspace(0.5, 5.0, 50):
                x = float(x)
                rhs = vf.ode_rhs(b, x, f(x))
                assert abs(vf.closed_form_slope(sol, x) - rhs) < SLOPE_RESIDUAL_TOL
                assert abs(oracles.central_diff_first(f, x) - rhs) < FD_RESIDUAL_TOL

            spec = oracles.IntegrationSpec(1.0, 3.0, 1000, lambda t, y, b=b: vf.ode_rhs(b, t, y))
            got = oracles.rk4_integrate(spec, f(1.0))
            exact = f(3.0)
            assert abs(got - exact) / max(1.0, abs(exact)) <= RK4_REL_TOL


def test_criterion_4_limit_gaps():
    with criterion(
        "criterion 4: gaps at true value 2 match -0.181907 / -0.019802 / "
        "-0.001998 within 1e-5 and shrink strictly in magnitude"
    ):
        probe = vf.limit_probe(2.0, [-10.0, -100.0, -1000.0])
        gaps = [g for _, g in probe.points]
        targets = (-0.181907, -0.019802, -0.001998)
        for gap, target in zip(gaps, targets):
            assert abs(gap - target) <= GAP_ABS_TOL
        assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
        assert not probe.divergent
        # informational, not a failure: the approach is from below here
        signs = {math.copysign(1.0, g) for g in gaps}
        print(f"INFO criterion 4: gap signs at true value 2 are {sorted(signs)} "
              "(approach from below)", flush=True)


def test_criterion_5_recurrence_closed_form_and_hand_values():
    with criterion(
        "criterion 5: closed form matches iteration to 1e-10 relative over 500 "
        "draws, the fixed point is stationary to 1e-12, and the hand-checked "
        "year reproduces"
    ):
        rng = random.Random("acceptance:budget")
        for i in range(500):
            params = random_budget(rng)
            n = rng.randint(0, 50)
            mode = bd.MODES[i % 2]
            stepped = bd.iterate(params, n, mode)[-1]
            direct = bd.closed_form(params, n, mode)
            assert abs(stepped - direct) / max(1.0, abs(direct)) <= CLOSED_FORM_REL_TOL

            fp = bd.fixed_point(params, mode)
            if not isinstance(fp, bd.DivergentFixedPoint):
                coeffs = bd.coefficients(params)
                pole = coeffs.pole_in_mode(mode)
                resid = abs(pole * fp + coeffs.constant_flow - fp)
                assert resid / max(1.0, abs(fp)) <= FIXED_POINT_TOL

        reference = bd.BudgetParams(0.3, 0.5, 0.7, 0.1, 0.2, 100.0, 1000.0)
        coeffs = bd.coefficients(reference)
        assert abs(coeffs.balance_gain - 0.195) <= 1e-12
        assert abs(coeffs.invest_gain - 0.084) <= 1e-12
        assert coeffs.constant_flow == -50.0
        assert abs(bd.iterate(reference, 1)[-1] - 229.0) <= 1e-9


def test_criterion_6_pole_range_equivalence_and_regrouping():
    with criterion(
        "criterion 6: pole magnitude at most 1 coincides with the tax rate in "
        "the derived interval (0 counterexamples in 10000) and the regrouped "
        "pole matches to 1e-14"
    ):
        rng = random.Random("acceptance:range")
        accepted = 0
        while accepted < 10000:
            params = random_budget(rng)
            lev = bd.tax_leverage(params)
            if 1.0 + lev <= 0.0:
                continue
            accepted += 1
            pole = bd.coefficients(params).pole
            assert abs(pole - (params.tax_rate * (1.0 + lev) - lev)) <= REGROUPING_TOL
            tax_range = bd.taxation_range(params)
            assert isinstance(tax_range, tuple)
            lo, hi = tax_range
            assert (lo <= params.tax_rate <= hi) == (abs(pole) <= 1.0)


def test_criterion_7_shrink_predicate_unreachable():
    with criterion(
        "criterion 7: leverage stays at or below 1 across the full 21^4 "
        "admissible grid, so the shrink predicate never fires"
    ):
        worst = -math.inf
        for c in np.linspace(0.0, 1.0, 21):
            for p in np.linspace(0.0, 1.0, 21):
                for xi in np.linspace(0.0, 2.0, 21):
                    for th in np.linspace(0.0, 2.0, 21):
                        params = bd.BudgetParams(
                            0.5, float(c), float(p), float(xi), float(th), 0.0, 1.0
                        )
                        lev = bd.tax_leverage(params)
                        worst = max(worst, lev)
                        assert lev <= 1.0
                        assert not bd.shrink_condition(params)
        assert worst == 1.0  # the corner itself is reached, never exceeded


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ecodyn", *args], capture_output=True, text=True
    )


def cli_runner(argv):
    proc = run_cli(*argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_8_cli_contract():
    with criterion(
        "criterion 8: golden-file output for every subcommand and exit codes "
        "0, 1, 2, 3 all exercised"
    ):
        for entry in [
            "wage_curve.csv",
            "value_curve.csv",
            "value_probe.csv",
            "budget_direct.csv",
            "sweep_region.csv",
            "verify_list.txt",
        ]:
            assert goldens.check(entry, cli_runner) == []

        assert run_cli("wage", "--config", "/no/such/file.json").returncode == 1
        assert run_cli("wage", "--config", str(DATA / "wage_margin_fail.json")).returncode == 2
        failing = run_cli("verify", "--tolerance", "rk4_agreement=1e-15")
        assert failing.returncode == 3
        assert "FAIL rk4_agreement" in failing.stdout

        # JSON route stays structurally sound
        proc = run_cli("budget", "--config", str(DATA / "budget_direct.json"), "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["metadata"]["command"] == "budget"
        assert len(doc["rows"]) == 11

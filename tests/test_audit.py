import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecodyn import audit
from ecodyn import budget_dynamics as bd
from ecodyn import value_feedback as vf
from ecodyn import wage_profit as wp
from ecodyn.cli import main
from ecodyn.errors import InvariantViolation


@pytest.fixture(scope="module")
def report():
    """The default-tolerance audit, run once for the tests that only read it."""
    return audit.run_all()


def test_everything_passes_at_default_tolerances(report):
    assert report.all_passed
    assert len(report.results) == len(audit.CHECKS)
    for r in report.results:
        assert r.passed, f"{r.name}: observed {r.observed} vs tolerance {r.tolerance}"


def test_check_names_are_stable():
    names = [name for name, _, _ in audit.list_checks()]
    assert names == [c.name for c in audit.CHECKS]
    assert audit.default_tolerances().keys() == set(names)
    # every check carries a usable one-line description
    for _, _, description in audit.list_checks():
        assert description


def test_runs_are_deterministic(report):
    second = audit.run_all()
    assert [(r.name, r.observed, r.detail) for r in report.results] == [
        (r.name, r.observed, r.detail) for r in second.results
    ]


def test_each_check_takes_a_replaced_fn(monkeypatch, report):
    # perfbench/tracer.py times each check by swapping its fn through
    # dataclasses.replace, so Check must stay a dataclass with that field,
    # and calls it with whatever arguments run_all passes
    ran = []

    def replaced(check):
        def fn(*args, **kwargs):
            ran.append(check.name)
            return check.fn(*args, **kwargs)

        return dataclasses.replace(check, fn=fn)

    monkeypatch.setattr(audit, "CHECKS", tuple(map(replaced, audit.CHECKS)))
    assert audit.run_all() == report
    assert ran == [c.name for c in audit.CHECKS]


def test_unknown_override_is_rejected():
    with pytest.raises(InvariantViolation):
        audit.run_all({"no_such_check": 1e-3})


def test_tightened_tolerance_fails_cleanly(report):
    tightened = audit.run_all({"rk4_agreement": 1e-15})
    assert not tightened.all_passed
    by_name = {r.name: r for r in tightened.results}
    assert not by_name["rk4_agreement"].passed
    # the override leaves every other check untouched
    baseline = {r.name: r.observed for r in report.results}
    for r in tightened.results:
        if r.name != "rk4_agreement":
            assert r.passed
        assert r.observed == baseline[r.name]


def test_notes_present(report):
    assert [n.name for n in report.notes] == [
        "gap_sign",
        "slope_factoring",
        "shrink_unreachable",
    ]
    for note in report.notes:
        assert note.text


def test_loosened_tolerance_passes():
    report = audit.run_all({"wage_derivative_fd": 1e-2})
    by_name = {r.name: r for r in report.results}
    assert by_name["wage_derivative_fd"].tolerance == 1e-2
    assert by_name["wage_derivative_fd"].passed


def _nan(*args):
    return math.nan


# a model function that returns NaN, and the check that must catch it
NAN_MUTANTS = {
    "closed_form": (bd, _nan, "recurrence_closed_vs_iterate"),
    "fixed_point": (bd, _nan, "fixed_point_identity"),
    "impulse_response": (bd, _nan, "impulse_step_consistency"),
    "profit_derivatives": (wp, lambda cs, wage: (math.nan, math.nan), "wage_derivative_fd"),
    "closed_form_slope": (vf, _nan, "ode_residual_closed_form"),
}


@pytest.mark.parametrize("function", NAN_MUTANTS)
def test_a_nan_from_a_model_function_fails_its_check(monkeypatch, capsys, function):
    # a fold that passes over a NaN would report 0.0 here, and 13/13
    module, mutant, check = NAN_MUTANTS[function]
    monkeypatch.setattr(module, function, mutant)
    result = {r.name: r for r in audit.run_all().results}[check]
    assert not result.passed
    assert math.isnan(result.observed)
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert f"FAIL {check} tolerance={result.tolerance!r} observed=nan :: " in out


_limit_probe = vf.limit_probe


def _divergent_probe(true_value, exponents):
    return _limit_probe(true_value, exponents)._replace(divergent=True)


# for each check that also tests a condition, a model function that
# breaks only that condition: its tolerance part would still pass
COMPOSITE_MUTANTS = {
    # a zero floor no longer yields the unbounded marker
    "wage_unbounded_limit": (wp, "optimal_wage", lambda cs, bound: wp.ProfitPoint(1.0, 0.0)),
    # the gaps match their quoted values, but the probe reports divergence
    "gap_convergence": (vf, "limit_probe", _divergent_probe),
    # the scalar leverage disagrees with the scanned surface
    "shrink_reachability": (bd, "tax_leverage", lambda params: 0.5),
}


@pytest.mark.parametrize("overrides", [False, True], ids=["default", "loosened"])
@pytest.mark.parametrize("check", COMPOSITE_MUTANTS)
def test_a_composite_check_fails_when_its_condition_fails(monkeypatch, check, overrides):
    module, function, mutant = COMPOSITE_MUTANTS[check]
    monkeypatch.setattr(module, function, mutant)
    report = audit.run_all({check: 1e300} if overrides else None)
    result = {r.name: r for r in report.results}[check]
    assert result.tolerance == (1e300 if overrides else audit.default_tolerances()[check])
    assert not result.passed
    assert result.observed == math.inf


# The scalar route the three 10k-draw checks took before they were
# evaluated in numpy: one model call (and one BudgetParams) per draw, and
# a per-point grid search. The columnar checks must agree with it exactly.


def _scalar_grid_argmax(f, grid):
    best_x = grid[0]
    best_val = f(best_x)
    for x in grid[1:]:
        val = f(x)
        if val > best_val:
            best_x, best_val = x, val
    return best_x, best_val


def _scalar_wage_grid_argmax(rng):
    misses = 0
    for _ in range(100):
        cs = audit._random_cost_structure(rng)
        floor = rng.uniform(0.1, 5.0)
        grid = [float(v) for v in np.linspace(floor, 10.0 * floor, 1000)]
        found, _ = _scalar_grid_argmax(lambda w: wp.net_profit(cs, w), grid)
        best = wp.optimal_wage(cs, wp.WageBound(floor))
        assert isinstance(best, wp.ProfitPoint)
        if found != best.wage:
            misses += 1
    return float(misses), f"{100 - misses}/100 maximizers at the wage floor"


def _scalar_pole_range_equivalence(rng):
    accepted = 0
    mismatches = 0
    while accepted < 10000:
        params = audit._random_budget(rng)
        lev = bd.tax_leverage(params)
        if 1.0 + lev <= 0.0:
            continue
        accepted += 1
        rng_range = bd.taxation_range(params)
        assert isinstance(rng_range, tuple)
        lo, hi = rng_range
        in_range = lo <= params.tax_rate <= hi
        stable = abs(bd.coefficients(params).pole) <= 1.0
        if in_range != stable:
            mismatches += 1
    return (
        float(mismatches),
        f"{mismatches} disagreements between pole magnitude and tax interval over 10000 draws",
    )


def _scalar_regrouping_identity(rng):
    worst = 0.0
    for _ in range(10000):
        params = audit._random_budget(rng)
        lev = bd.tax_leverage(params)
        regrouped = params.tax_rate * (1.0 + lev) - lev
        worst = max(worst, abs(bd.coefficients(params).pole - regrouped))
    return worst, f"max pole regrouping discrepancy over 10000 draws: {worst:.3e}"


SCALAR_CHECKS = {
    "wage_grid_argmax": _scalar_wage_grid_argmax,
    "pole_range_equivalence": _scalar_pole_range_equivalence,
    "regrouping_identity": _scalar_regrouping_identity,
}


def _scalar_results(seed):
    return {name: check(random.Random(f"{seed}:{name}")) for name, check in SCALAR_CHECKS.items()}


def _columnar_results(seed):
    # the columnar checks seeded as run_all seeds them, but called directly
    return {
        check.name: check.fn(random.Random(f"{seed}:{check.name}"))
        for check in audit.CHECKS
        if check.name in SCALAR_CHECKS
    }


def _same(columnar, scalar):
    # == and repr together also tell 0.0 from -0.0 and an int from a float
    assert columnar == scalar
    assert repr(columnar) == repr(scalar)


@pytest.mark.parametrize("seed", [audit.DEFAULT_SEED, 1, 2, 3, 7])
def test_columnar_checks_match_the_scalar_route(seed):
    columnar = _columnar_results(seed)
    _same(columnar, _scalar_results(seed))
    report = audit.run_all(None, seed)
    results = {r.name: (r.observed, r.detail) for r in report.results}
    _same({name: results[name] for name in columnar}, columnar)


@pytest.mark.parametrize(
    "overrides",
    [
        # the tightest tolerances run_all accepts: 0 for the two checks that
        # observe 0, and one below regrouping_identity's observed 4.4e-16
        {"wage_grid_argmax": 0.0, "pole_range_equivalence": 0.0, "regrouping_identity": 1e-17},
        {"wage_grid_argmax": 5.0, "pole_range_equivalence": 3.0, "regrouping_identity": 1e-9},
    ],
    ids=["tightened", "loosened"],
)
def test_columnar_checks_match_the_scalar_route_under_overrides(overrides):
    columnar = _columnar_results(audit.DEFAULT_SEED)
    scalar = _scalar_results(audit.DEFAULT_SEED)
    _same(columnar, scalar)
    report = audit.run_all(overrides)
    results = {r.name: (r.passed, r.observed, r.detail) for r in report.results}
    expected = {
        name: (observed <= overrides[name], observed, detail)
        for name, (observed, detail) in scalar.items()
    }
    _same({name: results[name] for name in scalar}, expected)
    # only regrouping_identity's tightened tolerance lies below its observed value
    tightened = overrides["regrouping_identity"] < 1e-16
    assert [r.name for r in report.results if not r.passed] == ["regrouping_identity"] * tightened


@given(st.integers(0, 2**32), st.integers(0, 60))
def test_block_draw_equals_the_scalar_draws(seed, n):
    block_rng, scalar_rng = random.Random(seed), random.Random(seed)
    columns = audit._random_budgets(block_rng, n)
    assert columns.shape == (7, n)
    rows = [list(dataclasses.astuple(audit._random_budget(scalar_rng))) for _ in range(n)]
    assert columns.T.tolist() == rows
    # the block leaves the stream exactly where the n scalar draws do
    assert block_rng.random() == scalar_rng.random()


def _scalar_bounded_leverage_budgets(rng, n):
    rows, attempts = [], 0
    while len(rows) < n:
        params = audit._random_budget(rng)
        attempts += 1
        if 1.0 + bd.tax_leverage(params) > 0.0:
            rows.append(list(dataclasses.astuple(params)))
    return rows, attempts


@given(st.integers(0, 2**32), st.integers(0, 200))
def test_rejection_sampler_keeps_the_scalar_accepted_draws(seed, n):
    block_rng, scalar_rng = random.Random(seed), random.Random(seed)
    got = audit._bounded_leverage_budgets(block_rng, n)
    rows, _ = _scalar_bounded_leverage_budgets(scalar_rng, n)
    assert got.T.tolist() == rows
    assert block_rng.random() == scalar_rng.random()


@pytest.mark.parametrize("seed, n", [(0, 10), (1, 100), (2, 1000)])
def test_rejection_sampler_crosses_block_boundaries(seed, n):
    rows, attempts = _scalar_bounded_leverage_budgets(random.Random(seed), n)
    # a rejection in the first block of n attempts forces a second block
    assert attempts > n
    got = audit._bounded_leverage_budgets(random.Random(seed), n)
    assert got.T.tolist() == rows


def test_rejected_draw_fails_loudly(monkeypatch):
    # a range reaching below 0 yields tax rates BudgetParams rejects
    monkeypatch.setattr(audit, "_DRAW_LOW", np.array([-1.0, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(InvariantViolation, match="outside the BudgetParams bounds"):
        audit._random_budgets(random.Random(0), 100)

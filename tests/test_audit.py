import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecodyn import audit
from ecodyn import budget_dynamics as bd
from ecodyn import wage_profit as wp
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
    # dataclasses.replace, so Check must stay a dataclass with that field
    ran = []

    def replaced(check):
        def fn(tol, rng):
            ran.append(check.name)
            return check.fn(tol, rng)

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


def _scalar_wage_grid_argmax(tol, rng):
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
    return misses <= tol, float(misses), f"{100 - misses}/100 maximizers at the wage floor"


def _scalar_pole_range_equivalence(tol, rng):
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
        mismatches <= tol,
        float(mismatches),
        f"{mismatches} disagreements between pole magnitude and tax interval over 10000 draws",
    )


def _scalar_regrouping_identity(tol, rng):
    worst = 0.0
    for _ in range(10000):
        params = audit._random_budget(rng)
        lev = bd.tax_leverage(params)
        regrouped = params.tax_rate * (1.0 + lev) - lev
        worst = max(worst, abs(bd.coefficients(params).pole - regrouped))
    return worst <= tol, worst, f"max pole regrouping discrepancy over 10000 draws: {worst:.3e}"


SCALAR_CHECKS = {
    "wage_grid_argmax": _scalar_wage_grid_argmax,
    "pole_range_equivalence": _scalar_pole_range_equivalence,
    "regrouping_identity": _scalar_regrouping_identity,
}


def _scalar_results(overrides, seed):
    tolerances = {**audit.default_tolerances(), **overrides}
    return {
        name: check(tolerances[name], random.Random(f"{seed}:{name}"))
        for name, check in SCALAR_CHECKS.items()
    }


def _columnar_results(overrides, seed):
    # the columnar checks seeded as run_all seeds them, but called directly:
    # a tolerance below 0, which run_all rejects, is the one way to fail a
    # check whose observed value is 0
    tolerances = {**audit.default_tolerances(), **overrides}
    return {
        check.name: check.fn(tolerances[check.name], random.Random(f"{seed}:{check.name}"))
        for check in audit.CHECKS
        if check.name in SCALAR_CHECKS
    }


def _same(columnar, scalar):
    # == and repr together also tell 0.0 from -0.0 and an int from a float
    assert columnar == scalar
    assert repr(columnar) == repr(scalar)


@pytest.mark.parametrize("seed", [audit.DEFAULT_SEED, 1, 2, 3, 7])
def test_columnar_checks_match_the_scalar_route(seed):
    columnar = _columnar_results({}, seed)
    _same(columnar, _scalar_results({}, seed))
    report = audit.run_all(None, seed)
    results = {r.name: (r.passed, r.observed, r.detail) for r in report.results}
    _same({name: results[name] for name in columnar}, columnar)


@pytest.mark.parametrize(
    "overrides",
    [
        # every observed value lies above these, so each check fails
        {"wage_grid_argmax": -1.0, "pole_range_equivalence": -1.0, "regrouping_identity": 1e-17},
        {"wage_grid_argmax": 5.0, "pole_range_equivalence": 3.0, "regrouping_identity": 1e-9},
    ],
    ids=["tightened", "loosened"],
)
def test_columnar_checks_match_the_scalar_route_under_overrides(overrides):
    columnar = _columnar_results(overrides, audit.DEFAULT_SEED)
    _same(columnar, _scalar_results(overrides, audit.DEFAULT_SEED))
    passed = {name: result[0] for name, result in columnar.items()}
    expected = overrides["regrouping_identity"] > 1e-16
    assert passed == dict.fromkeys(SCALAR_CHECKS, expected)


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

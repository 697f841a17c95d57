import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from exact import ulps
from hypothesis import example, given, settings, strategies as st

from ecodyn.budget_dynamics import (
    BudgetParams,
    _coefficients,
    _leverage,
    _stable_interval,
    DeficiencyFactors,
    DegenerateRange,
    DivergentFixedPoint,
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
    stability_report,
    tax_leverage,
    taxation_range,
)
from ecodyn.errors import InvariantViolation

# round numbers whose hand evaluation is easy to redo
P = BudgetParams(
    tax_rate=0.3,
    spending_split=0.5,
    private_fraction=0.7,
    invest_share=0.1,
    foreign_multiplier=0.2,
    gov_spending=100.0,
    initial_wages=1000.0,
)


@st.composite
def budget_params(draw):
    return BudgetParams(
        tax_rate=draw(st.floats(0.0, 1.0)),
        spending_split=draw(st.floats(0.0, 1.0)),
        private_fraction=draw(st.floats(0.0, 1.0)),
        invest_share=draw(st.floats(0.0, 1.0)),
        foreign_multiplier=draw(st.floats(0.0, 1.0)),
        gov_spending=draw(st.floats(0.0, 1000.0)),
        initial_wages=draw(st.floats(1.0, 10000.0)),
    )


def test_hand_checked_coefficients():
    c = coefficients(P)
    assert c.balance_gain == pytest.approx(0.195, abs=1e-12)
    assert c.invest_gain == pytest.approx(0.084, abs=1e-12)
    assert c.constant_flow == -50.0
    assert c.pole == pytest.approx(0.279, abs=1e-12)
    assert c.pole_in_mode("incremental") == pytest.approx(1.279, abs=1e-12)


def test_hand_checked_year_zero():
    assert flow_balance(P) == 145.0
    assert investments(P) == 84.0
    assert annual_change(P) == 229.0


def test_change_decomposes_into_gain_and_flow():
    c = coefficients(P)
    assert annual_change(P) == pytest.approx(
        c.pole * P.initial_wages + c.constant_flow, rel=1e-14
    )


def test_flow_balance_cancels_without_tax_or_recirculation():
    # no tax in, nothing kept back privately, nothing spent on salaries:
    # every term of the balance is identically zero
    idle = BudgetParams(0.0, 0.0, 1.0, 0.1, 0.2, 500.0, 1234.0)
    assert flow_balance(idle) == 0.0


def test_full_tax_kills_investment():
    taxed_out = BudgetParams(1.0, 0.5, 0.7, 0.9, 1.5, 100.0, 1000.0)
    assert investments(taxed_out) == 0.0
    c = coefficients(taxed_out)
    assert c.balance_gain == 1.0
    assert c.invest_gain == 0.0


def test_first_iterated_year():
    assert iterate(P, 1)[-1] == pytest.approx(229.0, abs=1e-9)
    # incremental mode adds the change onto the current pool instead
    assert iterate(P, 1, "incremental")[-1] == pytest.approx(1229.0, abs=1e-9)


def test_iterate_shape():
    assert iterate(P, 0) == [1000.0]
    assert len(iterate(P, 7)) == 8
    with pytest.raises(InvariantViolation):
        iterate(P, -1)
    with pytest.raises(InvariantViolation):
        iterate(P, 3, "bogus")


def test_fixed_point_value():
    fp = fixed_point(P)
    assert fp == pytest.approx(-69.34812760055478, rel=1e-15)
    c = coefficients(P)
    assert c.pole * fp + c.constant_flow == pytest.approx(fp, abs=1e-12)


def test_pole_exactly_one():
    # a full tax take makes the direct-mode pole exactly 1
    drifting = BudgetParams(1.0, 0.5, 0.7, 0.1, 0.2, 100.0, 1000.0)
    assert coefficients(drifting).pole == 1.0
    assert isinstance(fixed_point(drifting), DivergentFixedPoint)
    assert closed_form(drifting, 4) == 1000.0 - 4 * 50.0
    assert iterate(drifting, 4)[-1] == 800.0

    steady = BudgetParams(1.0, 0.5, 0.7, 0.1, 0.2, 0.0, 1000.0)
    assert fixed_point(steady) == 1000.0
    assert closed_form(steady, 20) == 1000.0


def test_impulse_response_values():
    assert impulse_response(P, 0) == -50.0
    assert impulse_response(P, 2) == pytest.approx(-3.89205, abs=1e-9)
    with pytest.raises(InvariantViolation):
        impulse_response(P, -1)


def test_impulse_response_flat_at_marginal_pole():
    drifting = BudgetParams(1.0, 0.5, 0.7, 0.1, 0.2, 100.0, 1000.0)
    assert coefficients(drifting).pole == 1.0
    for n in range(6):
        assert impulse_response(drifting, n) == -50.0


def test_no_gov_spending_means_pure_geometric_trajectory():
    # constant flow vanishes, so the pool is exactly pole**n times W0
    homogeneous = BudgetParams(0.3, 0.5, 0.7, 0.1, 0.2, 0.0, 1000.0)
    c = coefficients(homogeneous)
    assert c.constant_flow == 0.0
    levels = iterate(homogeneous, 12)
    for n, level in enumerate(levels):
        assert level == pytest.approx(c.pole**n * 1000.0, rel=1e-12)


def test_deviation_from_fixed_point_decays_geometrically():
    c = coefficients(P)
    fp = fixed_point(P)
    assert abs(c.pole) < 1.0
    # closed_form(n) - fp = pole**n * (W0 - fp) up to a rounding floor at
    # the fixed point's own magnitude, so allow that much absolute slack
    slack = 1e-12 * (abs(fp) + P.initial_wages)
    prev = abs(closed_form(P, 0) - fp)
    for n in range(1, 101):
        dev = abs(closed_form(P, n) - fp)
        assert dev <= abs(c.pole) * prev + slack
        prev = dev
    # well above the floor the ratio is the pole magnitude itself
    for n in range(1, 15):
        ratio = abs(closed_form(P, n) - fp) / abs(closed_form(P, n - 1) - fp)
        assert ratio == pytest.approx(abs(c.pole), rel=1e-8)


def test_leverage_and_regrouping():
    lev = tax_leverage(P)
    assert lev == pytest.approx(0.03, abs=1e-12)
    regrouped = P.tax_rate * (1.0 + lev) - lev
    assert abs(coefficients(P).pole - regrouped) <= 1e-15


def test_taxation_range_direct():
    assert taxation_range(P) == (0.0, 1.0)
    report = stability_report(P)
    assert report.stable
    assert report.tax_in_stable_range is True
    assert report.stable_tax_range == (0.0, 1.0)


def test_taxation_range_incremental():
    rng = taxation_range(P, "incremental")
    assert isinstance(rng, tuple)
    lo, hi = rng
    assert lo == 0.0
    assert hi == pytest.approx(0.03 / 1.03, rel=1e-12)
    report = stability_report(P, "incremental")
    assert not report.stable
    assert report.tax_in_stable_range is False


def test_taxation_range_of_degenerate_leverage():
    # heavy investment drags leverage down to -1
    heavy = BudgetParams(0.3, 0.0, 0.0, 2.0, 0.0, 100.0, 1000.0)
    assert tax_leverage(heavy) == -1.0
    rng = taxation_range(heavy)
    assert isinstance(rng, DegenerateRange)
    assert rng.leverage == -1.0
    assert stability_report(heavy).tax_in_stable_range is None


def test_taxation_range_empty_incremental():
    # zero leverage leaves no incremental-mode interval at all
    flat = BudgetParams(0.3, 1.0, 0.5, 0.0, 0.0, 100.0, 1000.0)
    assert tax_leverage(flat) == 0.0
    assert taxation_range(flat) == (0.0, 1.0)
    assert taxation_range(flat, "incremental") is None


def test_unit_leverage_range_spans_everything():
    # leverage exactly 1: the formal lower bound (lev-1)/(1+lev) collapses to 0
    corner = BudgetParams(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert tax_leverage(corner) == 1.0
    assert taxation_range(corner) == (0.0, 1.0)


@given(st.lists(budget_params(), min_size=1, max_size=20), st.sampled_from(["direct", "incremental"]))
@example([BudgetParams(0.3, 0.0, 0.0, 1.0, 1.0, 100.0, 1000.0)], "direct")  # leverage -1
def test_interval_columns_match_taxation_range(draws, mode):
    # the array route the audit takes, against the scalar one per draw
    columns = [np.array(c) for c in zip(*(dataclasses.astuple(p) for p in draws))]
    leverage = _leverage(*columns[1:5])
    # _stable_interval holds for leverage above -1, and at exactly -1 it
    # divides by zero; those draws are degenerate and their ends unused
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = np.broadcast_arrays(*_stable_interval(leverage, mode))
    for p, lev, a, b in zip(draws, leverage.tolist(), lo.tolist(), hi.tolist()):
        assert lev == tax_leverage(p)
        expected = taxation_range(p, mode)
        if isinstance(expected, DegenerateRange):
            assert 1.0 + lev <= 0.0
        elif expected is None:
            assert not a < b
        else:
            # Python floats, not numpy scalars, come back from taxation_range
            assert type(expected[0]) is float and type(expected[1]) is float
            assert repr(expected) == repr((a, b))


def test_marginal_pole_counts_as_stable():
    # pole magnitude exactly 1 is the bounded, marginal case; divergence
    # of the mean level is reported through the fixed point instead
    drifting = BudgetParams(1.0, 0.5, 0.7, 0.1, 0.2, 100.0, 1000.0)
    report = stability_report(drifting)
    assert report.pole == 1.0
    assert report.stable
    assert isinstance(report.fixed_point, DivergentFixedPoint)
    assert report.tax_in_stable_range is True  # boundary tie counts inside


def test_shrink_condition_is_unreachable_at_corners():
    corner = BudgetParams(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert tax_leverage(corner) == 1.0
    assert not shrink_condition(corner)


def test_param_validation():
    with pytest.raises(InvariantViolation):
        BudgetParams(1.2, 0.5, 0.7, 0.1, 0.2, 100.0, 1000.0)
    with pytest.raises(InvariantViolation):
        BudgetParams(0.3, 0.5, 0.7, -0.1, 0.2, 100.0, 1000.0)
    with pytest.raises(InvariantViolation):
        BudgetParams(0.3, 0.5, 0.7, 0.1, 0.2, 100.0, 0.0)
    with pytest.raises(InvariantViolation):
        BudgetParams(0.3, 0.5, 0.7, 0.1, 0.2, 100.0, math.inf)


def test_deficiency_factors():
    adjusted = apply_deficiencies(P, DeficiencyFactors(0.1, 0.2, 0.3))
    assert adjusted.tax_rate == pytest.approx(0.27)
    assert adjusted.initial_wages == pytest.approx(800.0)
    assert adjusted.gov_spending == pytest.approx(70.0)
    # the other parameters stay put
    assert adjusted == dataclasses.replace(
        P,
        tax_rate=adjusted.tax_rate,
        initial_wages=adjusted.initial_wages,
        gov_spending=adjusted.gov_spending,
    )
    with pytest.raises(InvariantViolation):
        DeficiencyFactors(tax_collection=1.1)
    with pytest.raises(InvariantViolation):
        DeficiencyFactors(spending_efficiency=-0.1)


def test_zero_deficiencies_change_nothing():
    assert apply_deficiencies(P, DeficiencyFactors()) == P


def test_total_deficiency_zeroes_everything():
    # a factor of exactly 1 is admissible, but a zeroed wage pool is not
    with pytest.raises(InvariantViolation, match="initial_wages must be finite and > 0, got 0.0"):
        apply_deficiencies(P, DeficiencyFactors(1.0, 1.0, 1.0))
    # the other total losses wipe their levels and still give valid parameters
    no_work_loss = apply_deficiencies(P, DeficiencyFactors(1.0, 0.0, 1.0))
    assert no_work_loss.tax_rate == 0.0
    assert no_work_loss.gov_spending == 0.0
    assert no_work_loss.initial_wages == P.initial_wages


@settings(max_examples=60)
@given(budget_params(), st.integers(0, 50), st.sampled_from(["direct", "incremental"]))
def test_closed_form_matches_iteration(params, n, mode):
    stepped = iterate(params, n, mode)[-1]
    direct = closed_form(params, n, mode)
    assert stepped == pytest.approx(direct, rel=1e-10, abs=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: _geometric_level cancels at a pole 2**-53 below 1 and "
    "at one 2**-52 above it, the draws that make test_closed_form_matches_iteration "
    "fail at random",
)
@pytest.mark.parametrize(
    "params, n",
    [
        # pole 1 - 2**-53: closed_form gives 0.0 and -1.0 where iterate gives
        # 1.0 and -1.1e-16
        (BudgetParams(0.9999999999999999, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0), 0),
        (BudgetParams(0.9999999999999999, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0), 1),
        # pole 1 + 2**-52: closed_form gives 2.0 where iterate gives 1.75
        (BudgetParams(0.0, 1.0, 0.0, 1.0, 2**-52, 1.0, 1.75), 0),
    ],
    ids=["below-0", "below-1", "above-0"],
)
def test_closed_form_matches_iteration_next_to_pole_1(params, n):
    assert closed_form(params, n) == pytest.approx(iterate(params, n)[-1], rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("spending_split", [0.5, 0.75])
def test_closed_form_is_within_8_ulps_away_from_pole_1(spending_split):
    # the clean tax -0.0 cells of tests/data/sweep_budget.json at poles 0.97
    # and 1.045; at 1.045, W0 * pole**20 and the flow's geometric sum nearly
    # cancel (2412 against -2353), which a form adding them apart pays for
    params = BudgetParams(-0.0, spending_split, 0.7, 0.1, 0.2, 100.0, 1000.0)
    c = coefficients(params)
    pole, level = Fraction(c.pole_in_mode("incremental")), Fraction(params.initial_wages)
    for _ in range(20):
        level = pole * level + Fraction(c.constant_flow)
    assert ulps(closed_form(params, 20, "incremental"), level) <= 8


def test_coefficients_give_the_exact_pole_on_fractions():
    # ROADMAP item 2's reproduction: the float pole rounds to 1.0, while the
    # exact pole of the same float inputs lies 3.29e-18 above 1
    inputs = (
        0.005141243201490532,
        0.9478653606090632,
        0.3948234964231735,
        0.014485927088043703,
        0.8212742919913083,
        100.0,
    )
    assert _coefficients(*inputs).pole_in_mode("incremental") == 1.0
    exact = tuple(map(Fraction, inputs))
    pole = _coefficients(*exact).pole_in_mode("incremental")
    assert type(pole) is Fraction and pole - 1 > 0
    # the regrouping behind taxation_range holds exactly on Fractions
    leverage = _leverage(*exact[1:5])
    assert pole - 1 == exact[0] * (1 + leverage) - leverage


@settings(max_examples=60)
@given(budget_params(), st.sampled_from(["direct", "incremental"]))
def test_fixed_point_is_stationary(params, mode):
    fp = fixed_point(params, mode)
    if isinstance(fp, DivergentFixedPoint):
        return
    c = coefficients(params)
    pole = c.pole_in_mode(mode)
    assert pole * fp + c.constant_flow == pytest.approx(fp, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(budget_params(), st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
def test_deficiencies_only_lose_ground(params, et, ew, eg):
    adjusted = apply_deficiencies(params, DeficiencyFactors(et, ew, eg))
    assert adjusted.tax_rate <= params.tax_rate
    assert adjusted.initial_wages <= params.initial_wages
    assert adjusted.gov_spending <= params.gov_spending

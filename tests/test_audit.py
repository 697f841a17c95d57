import pytest

from ecodyn import audit
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

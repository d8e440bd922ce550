import numpy as np
import pytest

from geodisc.checks import SUITES, CheckResult, convergence_suite, run_all, sphere_lift_suite

EXPECTED_SUITES = {
    "closed-form",
    "second-lift",
    "axioms",
    "symplectomorphism",
    "step-symplecticity",
    "free-spline",
    "convergence",
    "sphere-lift",
}


def test_suite_registry():
    assert set(SUITES) == EXPECTED_SUITES


def test_check_result_failed_flag():
    assert CheckResult("s", "c", "fail", 1.0, 0.5).failed
    assert not CheckResult("s", "c", "pass", 0.1, 0.5).failed
    assert not CheckResult("s", "c", "info", 2.0, 0.5).failed


def test_as_dict_schema():
    d = CheckResult("s", "c", "pass", 0.1, 0.5).as_dict()
    assert set(d) == {"suite", "case", "status", "defect", "tolerance"}


def test_selected_suite_only():
    results = run_all(suites=["axioms"])
    assert results and all(r.suite == "axioms" for r in results)
    assert not any(r.failed for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_all(suites=["bogus"])


def test_same_seed_same_defects():
    a = run_all(seed=5, suites=["symplectomorphism"])
    b = run_all(seed=5, suites=["symplectomorphism"])
    assert [r.defect for r in a] == [r.defect for r in b]


def test_convergence_pairs():
    results = convergence_suite(h_values=(0.1, 0.05, 0.025))
    assert len(results) == 2
    for r in results:
        assert "order" in r.case and not r.failed


def test_sphere_lift_reports_both_variants():
    results = sphere_lift_suite(np.random.default_rng(3))
    infos = [r for r in results if r.status == "info"]
    assert len(infos) == 2
    assert not any(r.failed for r in infos)  # informational by construction
    checked = [r for r in results if r.status != "info"]
    assert checked and all(r.status == "pass" for r in checked)


def test_sphere_lift_evaluates_each_curve_once_per_stencil_time(monkeypatch):
    import geodisc.checks as checks

    plain = sphere_lift_suite(np.random.default_rng(7))  # memoized, as shipped
    monkeypatch.setattr(checks, "_memoized", lambda curve: curve)
    unmemoized = sphere_lift_suite(np.random.default_rng(7))
    assert [r.defect for r in plain] == [r.defect for r in unmemoized]

    make_curve, evaluations = checks._sphere_tangent_curve, []

    def counted(rng):
        curve = make_curve(rng)
        return lambda t: evaluations.append(t) or curve(t)

    monkeypatch.undo()
    monkeypatch.setattr(checks, "_sphere_tangent_curve", counted)
    sphere_lift_suite(np.random.default_rng(7))
    # Per sample: t = 0, +-1e-3, +-2e-3 (the order-1 stencil) and +-4e-3
    # (the order-2 stencil, whose +-2e-3 points are the same times).
    assert len(evaluations) == 50 * 7


def test_nan_sample_fails_its_case(monkeypatch):
    import geodisc.checks as checks

    closed_form, calls = checks.midpoint_cotangent_closed_form, []

    def nan_once(x, d, inverse):
        calls.append(1)
        y = closed_form(x, d, inverse)
        return y * np.nan if len(calls) == 5 else y

    monkeypatch.setattr(checks, "midpoint_cotangent_closed_form", nan_once)
    results = run_all(suites=["closed-form"])
    assert [r.status for r in results] == ["fail"] + ["pass"] * 7
    assert np.isnan(results[0].defect)

import numpy as np
import pytest

from geodisc.checks import SUITES, CheckResult, convergence_suite, run_all, sphere_lift_suite
from geodisc.lifts import CotangentLiftedMap

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


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(suites=["convergence", "convergence"]),
        dict(suites=["convergence"], h_values=(0.04,)),
        dict(suites=["convergence"], h_values=(0.02, 0.02)),
        dict(suites=["closed-form"], h_values=(0.0, 0.1)),
        dict(h_values=(2.0, 1.0)),
    ],
    ids=["suite-twice", "one-step", "repeated-step", "step-zero", "step-above-one"],
)
def test_run_all_rejects_what_the_cli_rejects(kwargs):
    with pytest.raises(ValueError):
        run_all(**kwargs)


def test_same_seed_same_defects():
    a = run_all(seed=5, suites=["symplectomorphism"])
    b = run_all(seed=5, suites=["symplectomorphism"])
    assert [r.defect for r in a] == [r.defect for r in b]


def test_each_run_builds_its_phase_maps_once(monkeypatch):
    # The eight suites ask for 11 cotangent lifts; a run builds the two
    # second-order phase maps (n = 1, 3) once, and the next run again.
    built = []
    init = CotangentLiftedMap.__init__
    monkeypatch.setattr(CotangentLiftedMap, "__init__", lambda self, base: built.append(1) or init(self, base))
    counts = []
    for _ in range(2):
        built.clear()
        run_all(seed=71)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 4


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

    make_curves, evaluations = checks._sphere_tangent_curves, []

    def counted(rng, count):
        curves = make_curves(rng, count)

        def evaluated(t):
            z = curves(t)
            evaluations.append(z.shape)
            return z

        return evaluated

    monkeypatch.undo()
    monkeypatch.setattr(checks, "_sphere_tangent_curves", counted)
    sphere_lift_suite(np.random.default_rng(7))
    # Once per stencil time, all 50 curves as rows: t = 0, +-1e-3, +-2e-3
    # (the order-1 stencil) and +-4e-3 (the order-2 stencil, whose +-2e-3
    # points are the same times).
    assert evaluations == [(50, 6)] * 7


def test_nan_sample_fails_its_case(monkeypatch):
    import geodisc.checks as checks

    closed_form, calls = checks.midpoint_cotangent_closed_form, []

    def nan_in_one_row(x, d, inverse):
        calls.append(1)
        y = closed_form(x, d, inverse)
        if len(calls) == 1:  # the forward closed form of the first case
            y[3] = np.nan
        return y

    monkeypatch.setattr(checks, "midpoint_cotangent_closed_form", nan_in_one_row)
    results = run_all(suites=["closed-form"])
    assert [r.status for r in results] == ["fail"] + ["pass"] * 7
    assert np.isnan(results[0].defect)
    assert not any(np.isnan(r.defect) for r in results[1:])

import numpy as np
import pytest

from geodisc import lifts
from geodisc.checks import SUITES, CheckResult, Sampler, convergence_suite, run_all, sphere_lift_suite, symplecto_suite
from geodisc.lifts import CotangentLiftedMap
from geodisc.numeric import jacobian_fd
from conftest import package_memos

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


def test_run_all_calls_every_suite_the_same_way(monkeypatch):
    calls = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda **kwargs: calls.append((sorted(kwargs), kwargs["h_values"])) or [])
    assert run_all(seed=3, h_values=(0.1, 0.05)) == []
    assert calls == [(["h_values", "rng"], (0.1, 0.05))] * len(EXPECTED_SUITES)


def test_each_suite_runs_alone_on_its_defaults():
    alone = [result for suite in SUITES.values() for result in suite(rng=Sampler(5))]
    assert alone == run_all(seed=5)


def test_runs_of_one_suite_joined_equal_the_full_run():
    # As CI's smoke asserts of `check --suite`: each suite draws from its own sampler on the run's seed.
    assert sum((run_all(seed=71, suites=[name]) for name in SUITES), []) == run_all(seed=71)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_all(seed=-1)


def test_a_seed_past_64_bits_runs():
    results = run_all(seed=2**70)
    assert len(results) == 31 and not any(r.failed for r in results)


def test_sampler_repeats_a_seed_and_separates_neighbours():
    for k in (0, 1, 5, 2**64, 2**70):
        a, b, c = Sampler(k), Sampler(k), Sampler(k + 1)
        for draw in (lambda s: s.normal(size=(3, 7)), lambda s: s.uniform(-2.0, 2.0, size=5)):
            x, y, z = draw(a), draw(b), draw(c)
            assert np.array_equal(x, y) and not np.any(x == z)


def test_sampler_shapes_and_uniform_range():
    s = Sampler(3)
    assert s.normal(size=12).shape == (12,) and s.normal(size=(25, 2, 3)).shape == (25, 2, 3)
    u = s.uniform(1.8, 3.3, size=(1000, 10))
    assert u.shape == (1000, 10) and np.all(u >= 1.8) and np.all(u < 3.3)
    assert np.all(s._unit(10_000) < 1.0) and s._unit(1)[0] >= 0.0


def test_sampler_normals_have_mean_zero_and_variance_one():
    N = 100_000
    x = Sampler(0).normal(size=N)  # 5 sigma: sqrt(1/N) for the mean, sqrt(2/N) for the variance
    assert abs(x.mean()) < 5 * np.sqrt(1 / N) and abs(x.var() - 1.0) < 5 * np.sqrt(2 / N)


def test_an_odd_count_of_normals_takes_one_uniform_more():
    s, t = Sampler(9), Sampler(9)
    s.normal(size=3)
    t._unit(4)
    assert np.array_equal(s.uniform(size=2), t.uniform(size=2))


def test_same_seed_same_defects():
    a = run_all(seed=5, suites=["symplectomorphism"])
    b = run_all(seed=5, suites=["symplectomorphism"])
    assert [r.defect for r in a] == [r.defect for r in b]


def test_runs_in_one_process_build_each_cotangent_lift_once(monkeypatch, clear_memos):
    # The eight suites ask for 11 cotangent lifts of four maps; the first run
    # builds those four, and the next run finds them, and every other map,
    # lift and step-block set, in the memo: no memo misses again.
    built = []
    init = CotangentLiftedMap.__init__
    monkeypatch.setattr(CotangentLiftedMap, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    counts, misses = [], []
    for _ in range(2):
        built.clear()
        run_all(seed=71)
        counts.append(len(built))
        misses.append([memo.cache_info().misses for memo in package_memos()])
    assert counts == [4, 0]
    assert misses[1] == misses[0]


def test_free_runs_at_one_step_share_their_step_blocks(monkeypatch, clear_memos):
    # free-spline and the convergence suite's finest run both step the free
    # n = 1 system at h = 0.01: one key (C, S0, no potential, h), one build.
    import geodisc.hamiltonian as hamiltonian

    built, init = [], hamiltonian._StepBlocks.__init__
    monkeypatch.setattr(hamiltonian._StepBlocks, "__init__", lambda self, *key: built.append(key[-1]) or init(self, *key))
    run_all(seed=0, suites=["free-spline", "convergence"])
    assert built == [0.01, 0.04, 0.02]


def test_symplectomorphism_suite_has_one_fd_oracle_case_and_one_exact_case(monkeypatch):
    # The n = 1 case probes all 100 samples in one central-difference call; the
    # affine n = 3 case takes no probes, and its exact Jacobian gives defect 0.
    calls = []
    monkeypatch.setattr(lifts, "jacobian_fd", lambda f, x, eps=None: calls.append(np.shape(x)) or jacobian_fd(f, x, eps))
    fd, exact = symplecto_suite(np.random.default_rng(0))
    assert calls == [(100, 8)]
    assert (fd.case, exact.case) == ("lifted midpoint n=1, finite differences", "lifted midpoint n=3, exact Jacobian")
    assert 0.0 < fd.defect <= 1e-9 and exact.defect == 0.0


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
    monkeypatch.setattr(checks, "cache", lambda curve: curve)
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

"""Acceptance gate: one test per published guarantee, each printing a visible
PASS/FAIL line with its tolerance and (where bounded) its runtime.

Every test here re-measures the quantity it guards; nothing is asserted from
cached values.
"""

import json
import time

import numpy as np

from geodisc import cli
from geodisc.checks import run_all
from geodisc.control import make_free_spline, shoot, simulate

SE2_INIT = np.array([-2.0, -1.5, 0.0, 1.0, 0.0, 0.05, 0.0, 0.02, 0.0, 0.0, 0.1, -0.05])


def _report(capsys, tag: str, label: str, problems: list, elapsed: float | None = None):
    status = "PASS" if not problems else "FAIL"
    note = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"acceptance {tag}: {status}  {label}{note}", flush=True)
    assert not problems, "; ".join(problems)


def _suite_problems(results) -> list:
    return [
        f"{r.suite}/{r.case}: defect {r.defect:.3e} exceeds {r.tolerance:.3e}"
        for r in results
        if r.failed
    ]


def _timed_suites(names):
    t0 = time.perf_counter()
    results = run_all(suites=list(names))
    return results, time.perf_counter() - t0


def test_01_cotangent_lift_matches_closed_form(capsys):
    results, dt = _timed_suites(["closed-form"])
    problems = _suite_problems(results)
    if dt >= 1.0:
        problems.append(f"runtime {dt:.2f}s, bound 1s")
    _report(capsys, "01", "cotangent-lifted midpoint equals its closed form to 1e-12 at 100 points", problems, dt)


def test_02_second_order_lift_closed_form_and_fiber_blocks(capsys):
    results, dt = _timed_suites(["second-lift"])
    _report(
        capsys,
        "02",
        "order-2 lift of the midpoint map: closed form to 1e-9/1e-6, fiber blocks +-I/2 to 1e-7",
        _suite_problems(results),
        dt,
    )


def test_03_discretization_map_axioms(capsys):
    results, dt = _timed_suites(["axioms"])
    _report(
        capsys,
        "03",
        "both defining axioms hold to 1e-7 across the whole map family",
        _suite_problems(results),
        dt,
    )


def test_04_cotangent_lifts_are_symplectic(capsys):
    results, dt = _timed_suites(["symplectomorphism"])
    _report(
        capsys,
        "04",
        "cotangent-lift Jacobians satisfy the symplectomorphism identity to 1e-6 at 100 points",
        _suite_problems(results),
        dt,
    )


def test_05_one_step_map_is_symplectic(capsys):
    results, dt = _timed_suites(["step-symplecticity"])
    _report(
        capsys,
        "05",
        "one-step maps (free and obstacle) preserve the symplectic form to 1e-6 at 20 states",
        _suite_problems(results),
        dt,
    )


def test_06_conservation_and_second_order_convergence(capsys):
    results, dt = _timed_suites(["free-spline", "convergence"])
    problems = _suite_problems(results)
    if dt >= 5.0:
        problems.append(f"runtime {dt:.2f}s, bound 5s")
    _report(
        capsys,
        "06",
        "1e4-step drift (p0 within 1e-12, H within 1e-10) and observed order 2.0+-0.1",
        problems,
        dt,
    )


def test_07_free_boundary_problem(capsys):
    t0 = time.perf_counter()
    prob = make_free_spline(1, ([0.0], [0.0], [1.0], [0.0]), T=1.0, h=0.01)
    res = shoot(prob)
    dt = time.perf_counter() - t0
    problems = []
    if not res.converged or res.defect > 1e-10:
        problems.append(f"defect {res.defect:.3e} exceeds 1e-10 (converged={res.converged})")
    if abs(res.p0[0] - 12.0) / 12.0 > 0.02:
        problems.append(f"p0(0)={res.p0[0]:.6f} not within 2% of 12")
    if abs(res.p1[0] - 6.0) / 6.0 > 0.02:
        problems.append(f"p1(0)={res.p1[0]:.6f} not within 2% of 6")
    if abs(res.cost - 6.0) / 6.0 > 0.01:
        problems.append(f"cost {res.cost:.6f} not within 1% of 6")
    _report(
        capsys,
        "07",
        "rest-to-rest unit translation: defect<=1e-10, costates within 2% of (12,6), cost within 1% of 6",
        problems,
        dt,
    )


def test_08_planar_body_obstacle_run(capsys):
    def run(tau):
        return simulate(3, 0.01, 400, SE2_INIT, obstacle=(tau, 1.0, np.zeros(2)))

    t0 = time.perf_counter()
    rep = run(1e-20)
    rep0 = run(0.0)
    dt = time.perf_counter() - t0
    problems = []
    if len(rep.trajectory.z) != 401:
        problems.append(f"run produced {len(rep.trajectory.z)} states, wanted 401")
    if not rep.min_clearance > 0.0:
        problems.append(f"min clearance {rep.min_clearance:.3e} not positive")
    H0 = rep.trajectory.energies[0]
    bound = 1e-3 * max(1.0, abs(H0))
    if rep.h_drift > bound:
        problems.append(f"H drift {rep.h_drift:.3e} exceeds {bound:.3e}")
    gap = float(np.max(np.abs(rep.trajectory.z - rep0.trajectory.z)))
    if gap > 1e-10:
        problems.append(f"tau=1e-20 and tau=0 runs differ by {gap:.3e} > 1e-10")
    if dt >= 1.0:
        problems.append(f"runtime {dt:.2f}s, bound 1s")
    _report(
        capsys,
        "08",
        "planar-body run: 400 steps, positive clearance, H drift<=1e-3, tau->0 limit to 1e-10",
        problems,
        dt,
    )


def test_09_sphere_second_lift_against_jet_oracle(capsys):
    results, dt = _timed_suites(["sphere-lift"])
    problems = _suite_problems(results)
    infos = [r for r in results if r.status == "info"]
    if len(infos) != 2:
        problems.append(f"expected 2 informational formula comparisons, saw {len(infos)}")
    if any(r.failed for r in infos):
        problems.append("informational comparisons must never count as failures")
    _report(
        capsys,
        "09",
        "sphere order-2 lift matches the jet-pushforward oracle to 1e-7 at 50 points",
        problems,
        dt,
    )


def test_10_check_command_aggregates_everything(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    rc = cli.main(["check"])
    dt = time.perf_counter() - t0
    out, err = capsys.readouterr()
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        report = []
        problems.append("stdout is not a JSON report")
    seen = {entry["suite"] for entry in report}
    needed = {
        "closed-form",
        "second-lift",
        "axioms",
        "symplectomorphism",
        "step-symplecticity",
        "free-spline",
        "convergence",
        "sphere-lift",
    }
    if not needed <= seen:
        problems.append(f"missing suites: {sorted(needed - seen)}")
    if "0 failures" not in err:
        problems.append("stderr summary does not report zero failures")
    _report(capsys, "10", "check command runs every suite and exits 0", problems, dt)

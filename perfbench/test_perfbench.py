"""Tests of the benchmark itself: each output checker accepts a real result
and rejects corrupted ones, the set-up probe stops a command at its first
step, and the tracer counts the free step exactly.

These are not part of the package's test suite (``testpaths`` is ``tests``)::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import islice

import pytest

from geodisc import cli, numeric
from run import HERE, fresh_env, invoke
from spans import Tracer
from workloads import (
    CHECK_CASES,
    STREAMS,
    Outcome,
    check_all,
    check_check_all,
    check_shoot_obstacle,
    check_simulate_free,
    shoot_obstacle,
    simulate_command,
    simulate_free,
)


def edit_csv(path, row, column, transform):
    """Rewrite one cell of a CSV; ``row`` indexes data rows (negative allowed)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    body = lines[1:]
    cells = body[row].split(",")
    col = header.index(column)
    cells[col] = transform(cells[col])
    body[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join([lines[0]] + body) + "\n")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sim")
    init = next(simulate_free(3, str(out_dir))).expect["init"]
    cmd = simulate_command(init, str(out_dir), steps=300)
    return cmd, invoke(cmd.argv)


@pytest.fixture
def sim(simulated, tmp_path):
    cmd, outcome = simulated
    path = tmp_path / "copy.csv"
    shutil.copy(cmd.expect["csv"], path)
    cmd = replace(cmd, expect=dict(cmd.expect, csv=str(path)))
    return cmd, outcome


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_streams_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    argvs = lambda seed: [c.argv for c in islice(STREAMS[name](seed, str(tmp_path)), 6)]
    assert argvs(5) == argvs(5)
    if name != "check-all":
        assert argvs(5) != argvs(6)


def test_simulate_checker_accepts_real_run(sim):
    assert check_simulate_free(*sim) is None


def test_simulate_checker_accepts_cancelling_endpoint(tmp_path):
    # Terms of size ~600 cancel to q(T) = -5.5; rounding scales with the terms.
    init = [-0.7041559284300869, 0.319626719119277, 0.0036657381200651436, 0.11483877662192044]
    cmd = simulate_command(init, str(tmp_path))
    assert check_simulate_free(cmd, invoke(cmd.argv)) is None


@pytest.mark.parametrize(
    "row, column, transform, reason",
    [
        (-1, "q0", lambda c: repr(float(c) * (1 + 1e-10)), "deviates"),
        (150, "p0_0", lambda c: repr(float(c) + 1e-11), "p0 drift"),
        (150, "H", lambda c: repr(float(c) + 1e-9), "H drift"),
        (0, "qdot0", lambda c: repr(float(c) + 1e-15), "initial state"),
        (7, "q0", lambda c: "nan", "non-finite"),
    ],
)
def test_simulate_checker_rejects_corrupted_csv(sim, row, column, transform, reason):
    cmd, outcome = sim
    edit_csv(cmd.expect["csv"], row, column, transform)
    assert reason in check_simulate_free(cmd, outcome)


def test_simulate_checker_rejects_truncated_csv_and_exit_code(sim):
    cmd, outcome = sim
    assert "exit code 1" in check_simulate_free(cmd, Outcome(1, outcome.stdout, "error: x"))
    with open(cmd.expect["csv"]) as fh:
        lines = fh.readlines()
    with open(cmd.expect["csv"], "w") as fh:
        fh.writelines(lines[:-1])
    assert "rows" in check_simulate_free(cmd, outcome)


@pytest.fixture(scope="module")
def shot(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("shoot")
    cmd = next(shoot_obstacle(0, str(out_dir)))
    return cmd, invoke(cmd.argv)


def test_shoot_checker_accepts_real_run(shot):
    assert check_shoot_obstacle(*shot) is None


def test_shoot_checker_rejects_nonconverged_shot(shot):
    cmd, outcome = shot
    stdout = outcome.stdout.replace("converged    = True", "converged    = False")
    assert "converged" in check_shoot_obstacle(cmd, Outcome(0, stdout, ""))
    assert "exit code 1" in check_shoot_obstacle(cmd, Outcome(1, stdout, "error: non-convergence: x"))
    stdout = re.sub(r"defect\s*=.*", "defect       = 3.2e-09", outcome.stdout)
    assert "defect" in check_shoot_obstacle(cmd, Outcome(0, stdout, ""))


@pytest.mark.parametrize(
    "row, column, transform, reason",
    [
        (-1, "q1", lambda c: repr(float(c) + 1e-8), "endpoint"),
        (40, "clearance", lambda c: "-0.001", "clearance"),
        (0, "q0", lambda c: repr(float(c) + 1e-12), "start"),
    ],
)
def test_shoot_checker_rejects_corrupted_csv(shot, tmp_path, row, column, transform, reason):
    cmd, outcome = shot
    path = tmp_path / "copy.csv"
    shutil.copy(cmd.expect["csv"], path)
    cmd = replace(cmd, expect=dict(cmd.expect, csv=str(path)))
    edit_csv(path, row, column, transform)
    assert reason in check_shoot_obstacle(cmd, outcome)


@pytest.fixture(scope="module")
def checked():
    cmd = next(check_all(0, ""))
    return cmd, invoke(cmd.argv)


def test_check_checker_accepts_real_run(checked):
    assert check_check_all(*checked) is None


def _mutated(outcome, mutate):
    report = json.loads(outcome.stdout)
    mutate(report)
    return Outcome(outcome.exit_code, json.dumps(report), outcome.stderr)


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda rep: rep[3].update(status="fail"), "failing"),
        (lambda rep: rep.pop(), "cases"),
        (lambda rep: rep[0].update(defect=1.0), "above its tolerance"),
        (lambda rep: [r.update(suite="closed-form") for r in rep if r["suite"] == "axioms"], "suites"),
    ],
)
def test_check_checker_rejects_failing_report(checked, mutate, reason):
    cmd, outcome = checked
    assert len(json.loads(outcome.stdout)) == CHECK_CASES
    assert reason in check_check_all(cmd, _mutated(outcome, mutate))


def test_check_checker_rejects_nonzero_exit_and_garbage(checked):
    cmd, outcome = checked
    assert "exit code 1" in check_check_all(cmd, Outcome(1, outcome.stdout, "check: 31 cases, 1 failures"))
    assert "not JSON" in check_check_all(cmd, Outcome(0, outcome.stdout[:-10], ""))


def test_tracer_counts_free_steps_and_restores(tmp_path):
    init = next(simulate_free(1, str(tmp_path))).expect["init"]
    cmd = simulate_command(init, str(tmp_path), steps=50)
    originals = (numeric.as_vector, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        outcome = invoke(cmd.argv)
    finally:
        tracer.uninstall()
    assert (numeric.as_vector, cli.main) == originals
    assert check_simulate_free(cmd, outcome) is None
    assert tracer.counts["steps"] == 50
    assert tracer.counts["as_vector_step_calls"] == 21 * 50
    assert tracer.counts["residual_step_evals"] == 2 * 50
    assert tracer.counts["jacobian_refreshes"] == 1
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["lifts.inverse"]["calls"] == totals["maps.inverse"]["calls"] > 100
    assert 0 < totals["cli.main"]["self_s"] < totals["cli.main"]["total_s"]


def probe(argv, *flags):
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), json.dumps(argv), *flags],
        env=fresh_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_setup_probe_stops_before_the_first_step(name, tmp_path):
    cmd = next(STREAMS[name](0, str(tmp_path)))
    report = probe(cmd.argv)
    assert 0 < report["setup_s"] < 5
    assert list(tmp_path.iterdir()) == []  # no artifact was written


def test_run_probe_reports_the_command_and_its_memory(tmp_path):
    init = next(simulate_free(2, str(tmp_path))).expect["init"]
    cmd = simulate_command(init, str(tmp_path), steps=50)
    report = probe(cmd.argv, "--run")
    outcome = Outcome(report["exit_code"], report["stdout"], report["stderr"])
    assert check_simulate_free(cmd, outcome) is None
    assert report["peak_rss_mb"] > 10

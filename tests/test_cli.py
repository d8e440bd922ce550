import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from geodisc import artifacts, checks, cli, control, hamiltonian
from geodisc.artifacts import read_csv_columns
from geodisc.checks import CheckResult
from geodisc.errors import ConfigError


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


SE2_INIT = "-2,-1.5,0,1,0,0.05,0,0.02,0,0,0.1,-0.05"


def assert_one_config_error(capsys, argv, *names):
    """``cli.main(argv)`` returns 2 with one ``config-error`` line on stderr
    naming each of ``names``, and prints nothing on stdout."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: config-error: ")
    assert all(name in err for name in names), err


class TestSimulate:
    def test_free_single_step_csv(self, capsys):
        rc = cli.main(
            ["simulate", "--problem", "free", "--n", "1", "--init", "0,1,2,3", "--h", "0.1", "--steps", "1"]
        )
        assert rc == 0
        cols = read_csv_columns("free-trajectory.csv")
        assert list(cols) == ["t", "q0", "qdot0", "p0_0", "p1_0", "u0", "H", "clearance"]
        assert [float(v) for v in cols["t"]] == [0.0, 0.1]
        row1 = [float(cols[k][1]) for k in ("q0", "qdot0", "p0_0", "p1_0")]
        assert np.allclose(row1, [0.1145, 1.29, 2.0, 2.8], atol=1e-12)
        assert float(cols["H"][0]) == pytest.approx(6.5)
        assert float(cols["u0"][0]) == pytest.approx(3.0)
        assert cols["clearance"] == ["", ""]
        assert "csv: free-trajectory.csv" in capsys.readouterr().out

    def test_overflowing_energy_is_one_error_line(self, capsys, isolated):
        # Finite states whose energy overflows: exit 1 with one typed error
        # line and no CSV, rather than a success reporting H drift = nan.
        rc = cli.main(
            ["simulate", "--problem", "free", "--n", "1", "--h", "0.01", "--steps", "10", "--init=0,0,0,1e200"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == ["error: non-convergence: step 0 at t = 0: energy H = inf is not finite"]
        assert not (isolated / "free-trajectory.csv").exists()

    def test_shot_whose_forward_run_fails_is_one_error_line(self, capsys):
        # The trial costates' forward run ends in NonConvergence (its energy
        # overflows): shoot reports a typed failure, not a traceback.
        rc = cli.main(
            ["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--v0", "0", "--q1", "1e200", "--v1", "0"]
            + ["--T", "1", "--h", "0.01"]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: evaluation-failure: forward integration failed: step 0 ")

    def test_se2_run_with_artifacts(self, capsys):
        rc = cli.main(
            ["simulate", "--init=" + SE2_INIT, "--steps", "40", "--csv-out", "traj.csv", "--svg-out", "traj.svg"]
        )
        assert rc == 0
        lines = open("traj.csv").read().splitlines()
        assert len(lines) == 42
        svg = open("traj.svg").read()
        assert "<polyline" in svg and "<circle" in svg
        out = capsys.readouterr().out
        assert "clearance" in out and "csv: traj.csv" in out

    def test_default_problem_is_the_obstacle_problem_at_n3(self, capsys):
        outputs = []
        for problem in ([], ["--problem", "obstacle", "--n", "3"]):
            csv, svg = f"run{len(problem)}.csv", f"run{len(problem)}.svg"
            assert cli.main(["simulate", *problem, "--init=" + SE2_INIT, "--csv-out", csv, "--svg-out", svg]) == 0
            stdout = capsys.readouterr().out.replace(csv, "<csv>").replace(svg, "<svg>")
            outputs.append((stdout, open(csv, "rb").read(), open(svg, "rb").read()))
        assert outputs[0] == outputs[1]
        assert cli.main(["simulate", "--init=" + SE2_INIT, "--steps", "2"]) == 0
        assert capsys.readouterr().out.endswith("csv: obstacle-trajectory.csv\n")

    def test_removed_problem_and_cost_flags_are_rejected(self, capsys):
        for flags in (["--problem", "se2"], ["--no-potential-in-cost"]):
            assert_one_config_error(capsys, ["simulate", "--init=" + SE2_INIT, *flags], flags[-1])

    def test_rerun_writes_identical_csv(self, capsys):
        flags = ["--problem", "free", "--n", "1", "--init=0.3,-0.2,0.02,-0.1", "--h", "0.01", "--steps", "300"]
        for name in ("a.csv", "b.csv"):
            assert cli.main(["simulate", *flags, "--csv-out", name]) == 0
        assert open("a.csv", "rb").read() == open("b.csv", "rb").read()

    def test_simulate_has_no_tol_flag(self, capsys):
        assert_one_config_error(capsys, ["simulate", "--problem", "free", "--n", "1", "--init", "0,1,2,3", "--tol", "0"], "--tol")

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--problem", "free", "--n", "1", "--init=0,0,0,1", "--st", "2"], ["check", "--se", "3"]],
        ids=["simulate-st", "check-se"],
    )
    def test_abbreviated_flags_are_rejected(self, capsys, isolated, argv):
        # Prefix matching would read --st as --steps and --se as --seed.
        assert_one_config_error(capsys, argv, "unrecognized arguments: " + " ".join(argv[-2:]))
        assert list(isolated.iterdir()) == []

    def test_missing_init_is_config_error(self, capsys):
        rc = cli.main(["simulate"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config-error:")

    def test_nonpositive_h_is_config_error(self, capsys):
        rc = cli.main(["simulate", "--init=" + SE2_INIT, "--h=-0.1"])
        assert rc == 2
        assert "error: config-error:" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["obstacle", "free"], ids=["potential-in-cost", "free"])
    def test_stdout_reports_the_simulate_report(self, capsys, problem):
        n, init = (3, SE2_INIT) if problem == "obstacle" else (1, "0.3,-0.2,0.02,-0.1")
        tau = ["--tau", "1e-2"] if problem == "obstacle" else []  # a free run refuses obstacle settings
        args = ["simulate", "--problem", problem, "--n", str(n), "--init=" + init, *tau, "--steps", "40"]
        assert cli.main(args) == 0
        obstacle = (1e-2, 1.0, np.zeros(2)) if problem == "obstacle" else None
        report = control.simulate(n, 0.01, 40, np.array([float(v) for v in init.split(",")]), obstacle=obstacle)
        V = None if obstacle is None else control.obstacle_potential(*obstacle, n)[0]
        assert report.cost == control.running_cost(report.trajectory, V)
        final = report.trajectory.z[-1]
        assert capsys.readouterr().out.splitlines() == [
            "final q      = [%s]" % " ".join("%.6g" % v for v in final[:n]),
            "final qdot   = [%s]" % " ".join("%.6g" % v for v in final[n : 2 * n]),
            "H drift      = %.6g" % report.h_drift,
            "min clearance= %s" % ("n/a" if V is None else "%.6g" % report.min_clearance),
            "cost J       = %.6g" % report.cost,
            f"csv: {problem}-trajectory.csv",
        ]

    def test_csv_output_is_bit_stable(self):
        args = ["simulate", "--problem", "free", "--n", "1", "--init", "0.3,-1,0.7,2", "--h", "0.05", "--steps", "3"]
        assert cli.main(args + ["--csv-out", "one.csv"]) == 0
        assert cli.main(args + ["--csv-out", "two.csv"]) == 0
        assert open("one.csv", "rb").read() == open("two.csv", "rb").read()


class TestConfigFile:
    def test_flags_override_file(self, isolated):
        cfg = {
            "problem": "free",
            "n": 1,
            "h": 0.1,
            "steps": 4,
            "initial_state": [0, 1, 2, 3],
            "csv_out": "a.csv",
        }
        (isolated / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", "cfg.json", "--steps", "1"]) == 0
        assert len(open("a.csv").read().splitlines()) == 3  # header + 2 states

    def test_invalid_json(self, isolated, capsys):
        (isolated / "bad.json").write_text("{not json")
        assert cli.main(["simulate", "--config", "bad.json"]) == 2
        assert "config-error" in capsys.readouterr().err

    def test_unknown_key(self, isolated, capsys):
        (isolated / "bad.json").write_text('{"stepz": 3}')
        assert cli.main(["simulate", "--config", "bad.json"]) == 2
        assert "stepz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, data",
        [
            ("simulate", {"suites": ["axioms"], "json_out": "zz.json"}),
            ("simulate", {"seed": 5}),
            ("shoot", {"seed": 5}),
            ("check", {"steps": 0}),
            ("check", {"r": -1}),
            ("check", {"h": 0.1}),
        ],
        ids=["simulate-check-keys", "simulate-seed", "shoot-seed", "check-steps", "check-r", "check-h"],
    )
    def test_key_the_command_does_not_read_is_one_error_line(self, isolated, capsys, command, data):
        (isolated / "cfg.json").write_text(json.dumps(data))
        assert cli.main([command, "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        key = sorted(data)[0]
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: config-error: {key}") and f"not a setting of {command}" in err
        assert not (isolated / "zz.json").exists()

    def test_tol_only_for_shoot(self, isolated, capsys):
        (isolated / "sim.json").write_text(
            json.dumps({"problem": "free", "n": 1, "initial_state": [0, 1, 2, 3], "steps": 1, "tol": 0})
        )
        assert cli.main(["simulate", "--config", "sim.json"]) == 2
        assert capsys.readouterr().err.startswith("error: config-error: tol")
        (isolated / "shoot.json").write_text(json.dumps({"tol": 1e-9}))
        assert cli.main([*TestShoot.ARGS, "--config", "shoot.json"]) == 0
        assert "converged    = True" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli.main(["simulate", "--config", "nope.json"]) == 2

    def test_seed_comes_from_flags_and_file_alone(self, monkeypatch, isolated):
        monkeypatch.setenv("GEODISC_SEED", "77")
        assert cli.load_config(cli.build_parser().parse_args(["check"])).seed == 0
        (isolated / "seed.json").write_text('{"seed": 5}')
        assert cli.load_config(cli.build_parser().parse_args(["check", "--config", "seed.json"])).seed == 5
        assert cli.load_config(cli.build_parser().parse_args(["check", "--config", "seed.json", "--seed", "3"])).seed == 3

    def test_integral_float_counts_as_an_integer(self, isolated):
        (isolated / "steps.json").write_text('{"steps": 2.0, "csv_out": "two.csv"}')
        assert cli.main(["simulate", "--config", "steps.json", "--init=" + SE2_INIT]) == 0
        assert len(read_csv_columns("two.csv")["t"]) == 3


class TestShoot:
    ARGS = ["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--v0", "0", "--q1", "1", "--v1", "0", "--T", "1", "--h", "0.1"]

    def test_free_boundary_problem(self, capsys):
        rc = cli.main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged    = True" in out
        p0 = float(out.split("p0(0)")[1].split("[")[1].split("]")[0])
        assert abs(p0 - 12.0) / 12.0 < 0.02
        cols = read_csv_columns("free-shoot.csv")
        assert len(cols["t"]) == 11

    def test_zero_tolerance_fails_but_writes_csv(self, capsys):
        rc = cli.main(self.ARGS + ["--tol", "0", "--csv-out", "best.csv"])
        assert rc == 1
        assert "error: non-convergence:" in capsys.readouterr().err
        assert len(read_csv_columns("best.csv")["t"]) == 11


class TestMalformedInput:
    SHOOT = ["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--v0", "0", "--q1", "1", "--v1", "0", "--h", "0.1"]
    #: Config files with a value of the wrong type or a removed key, each
    #: read by ``simulate --config <name>.json`` below.
    BAD_CONFIGS = {
        "problem-se2": '{"problem": "se2"}',
        "cost-flag-key": '{"include_potential_in_cost": false}',
        "discretization-int": '{"discretization": 3}',
        "csv-out-int": '{"csv_out": 5}',
        "svg-out-list": '{"svg_out": ["a.svg"]}',
        "steps-fractional": '{"steps": 2.7}',
        "steps-bool": '{"steps": true}',
        "n-string": '{"n": "3"}',
        "h-bool": '{"h": true}',
        "center-number": '{"center": 5}',
        "center-bool": '{"center": [true, 0]}',
        "steps-huge": '{"steps": 1e300}',
        "json-list": '[{"steps": 2}]',
    }
    FREE = ["simulate", "--problem", "free", "--n", "1", "--steps", "3", "--init=1,2,0,0"]

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--problem", "obstacle", "--center", "0,0,0", "--init=" + SE2_INIT],
            ["simulate", "--problem", "obstacle", "--n", "1", "--init=2.5,0,0,0"],
            ["simulate", "--init=" + SE2_INIT, "--r", "nan"],
            ["simulate", "--init=" + SE2_INIT, "--tau", "nan"],
            ["simulate", "--init=" + SE2_INIT, "--tau", "inf"],
            SHOOT + ["--T", "nan"],
            SHOOT + ["--T", "1", "--tol", "nan"],
            ["check", "--suite", "convergence", "--h", "0,0.1"],
            ["check", "--suite", "convergence", "--h", "2,1"],
            ["simulate", "--config", "null-h.json", "--init=" + SE2_INIT],
            ["check", "--suite", "convergence", "--h", "0.04"],
            ["check", "--suite", "convergence", "--h", "0.02,0.02"],
            ["check", "--suite", "convergence", "--suite", "convergence"],
            ["check", "--suite", "bogus"],
            ["check", "--config", "suites-5.json"],
            ["check", "--config", "seed-fractional.json"],
            ["check", "--seed=-1"],
            ["check", "--config", "seed-negative.json"],
            ["simulate", "--steps", "100000000000000000000", "--init=" + SE2_INIT],
            SHOOT + ["--T", "1e9"],
            ["simulate", "--problem", "free", "--n", "-1", "--init=1,2,3,4"],
            ["simulate", "--problem", "free", "--n", "0", "--init=1,2,3,4"],
            ["simulate", "--n", "0", "--init=" + SE2_INIT],
            ["shoot", "--problem", "free", "--n", "0", "--q0", "0", "--v0", "0", "--q1", "1", "--v1", "0"],
            ["simulate", "--init=" + SE2_INIT, "--center="],
            ["simulate", "--init=" + SE2_INIT, "--discretization", "theta:abc"],
            ["simulate", "--init=" + SE2_INIT, "--steps", "0"],
            ["simulate", "--init=" + SE2_INIT, "--r", "0"],
            SHOOT + ["--T", "1", "--tol", "-1"],
            ["simulate", "--init=1,2,3,4"],
            ["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--v0", "0", "--v1", "0", "--T", "1", "--h", "0.1"],
            ["shoot", "--problem", "free", "--n", "1", "--q0=0,0", "--v0", "0", "--q1", "1", "--v1", "0", "--T", "1"],
            FREE + ["--tau", "5"],
            FREE + ["--r", "-1"],
            FREE + ["--center", "7,7"],
            SHOOT + ["--T", "1", "--steps", "7"],
            *(["simulate", "--config", f"{name}.json", "--init=" + SE2_INIT] for name in BAD_CONFIGS),
        ],
        ids=[
            "center-3", "obstacle-n1", "r-nan", "tau-nan", "tau-inf", "T-nan", "tol-nan", "h-zero", "h-2", "json-null",
            "h-single", "h-repeated", "suite-twice", "suite-unknown", "suites-number", "seed-fractional",
            "seed-negative-flag", "seed-negative-config",
            "steps-huge-flag", "shoot-steps-huge", "n-negative", "n-zero", "obstacle-n-zero", "shoot-n-zero",
            "center-empty", "theta-abc", "steps-zero", "r-zero", "tol-negative", "init-length", "shoot-no-q1",
            "q0-length", "free-tau", "free-r-negative", "free-center", "shoot-steps-beside-T",
            *BAD_CONFIGS,
        ],
    )
    def test_is_one_config_error_line(self, capsys, args, isolated):
        (isolated / "null-h.json").write_text('{"h": null}')
        (isolated / "suites-5.json").write_text('{"suites": 5}')
        (isolated / "seed-fractional.json").write_text('{"seed": 0.5}')
        (isolated / "seed-negative.json").write_text('{"seed": -3}')
        for name, text in self.BAD_CONFIGS.items():
            (isolated / f"{name}.json").write_text(text)
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: config-error:")
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize(
        "args, data, message",
        [
            (FREE + ["--tau", "5", "--r", "2", "--center", "7,7"], None, "tau, r, center: not read by the free problem"),
            (FREE, {"r": -1}, "r: not read by the free problem"),
            (FREE[:1] + FREE[3:], {"problem": "free", "center": [7, 7]}, "center: not read by the free problem"),
            (SHOOT + ["--T", "1", "--steps", "7"], None, "steps: not read beside T"),
            (SHOOT + ["--T", "1"], {"steps": 7}, "steps: not read beside T"),
        ],
        ids=["free-flags", "free-r-key", "free-problem-key", "shoot-steps-flag", "shoot-steps-key"],
    )
    def test_a_setting_the_run_does_not_read_is_refused(self, capsys, isolated, args, data, message):
        # Whether it comes from a flag or a config key, and whatever its value.
        if data is not None:
            (isolated / "cfg.json").write_text(json.dumps(data))
            args = args + ["--config", "cfg.json"]
        assert_one_config_error(capsys, args, "error: config-error: " + message)
        assert [p.name for p in isolated.iterdir()] == ["cfg.json"] * (data is not None)

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--problem", "free", "--n", "1", "--steps", "2", "--init=0,0,0,1", "--csv-out", "absent/x.csv"],
            ["simulate", "--init=" + SE2_INIT, "--steps", "2", "--svg-out", "absent/x.svg"],
            ["check", "--suite", "axioms", "--json-out", "absent/x.json"],
            ["plot", "run.csv", "absent/x.svg"],
        ],
        ids=["csv", "svg", "json", "plot-svg"],
    )
    def test_unwritable_output_is_one_config_error_line(self, capsys, args, isolated):
        (isolated / "run.csv").write_text("q0,q1\n0,0\n1,1\n")
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: config-error: cannot write {args[-1]}: No such file or directory\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--init=" + SE2_INIT, "--steps", "2"],
            ["shoot", "--problem", "free", "--n", "2", "--q0", "0,0", "--v0", "0,0", "--q1", "1,1", "--v1", "0,0", "--T", "1"],
        ],
        ids=["simulate", "shoot"],
    )
    def test_unwritable_svg_leaves_no_csv(self, capsys, args, isolated):
        rc = cli.main([*args, "--csv-out", "left.csv", "--svg-out", "absent/o.svg"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: config-error: cannot write absent/o.svg: No such file or directory\n"
        assert list(isolated.iterdir()) == []  # no CSV and no temp file

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--problem", "free", "--init", "1,2,0,0", "--steps", "3"],
            ["shoot", "--problem", "free", "--q0", "0", "--v0", "0", "--q1", "1", "--v1", "0", "--T", "1", "--h", "0.1"],
        ],
        ids=["simulate", "shoot"],
    )
    def test_an_svg_of_one_coordinate_is_refused_before_any_output(self, capsys, args, spelling, isolated):
        # The SVG plots (q0, q1): with n = 1 there is no q1 to plot.
        if spelling == "flag":
            args = [*args, "--svg-out", "a.svg"]
        else:
            (isolated / "svg.json").write_text('{"svg_out": "a.svg"}')
            args = [*args, "--config", "svg.json"]
        rc = cli.main([*args, "--csv-out", "a.csv"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: config-error: the SVG plots (q0, q1): --svg-out needs n >= 2, got n=1\n"
        assert sorted(p.name for p in isolated.iterdir()) == ([] if spelling == "flag" else ["svg.json"])

    def test_unwritable_json_prints_no_report(self, capsys, isolated):
        rc = cli.main(["check", "--suite", "axioms", "--json-out", "absent/x.json"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and len(err.splitlines()) == 1
        assert list(isolated.iterdir()) == []

    @pytest.mark.parametrize(
        "error, raised, message",
        [
            (OSError(28, "No space left on device"), ConfigError, "^cannot write new.svg: No space left on device$"),
            (ValueError("bad rows"), ValueError, "^bad rows$"),
        ],
        ids=["os-error", "other-error"],
    )
    def test_a_failed_output_keeps_the_earlier_file(self, isolated, error, raised, message):
        # The first output is staged beside old.csv; the second fails, and
        # neither the staged file nor a change to old.csv is left behind.
        (isolated / "old.csv").write_text("old\n")

        def failing(path):
            raise error

        new = lambda path: open(path, "w").write("new\n")
        with pytest.raises(raised, match=message):
            cli._write((new, "old.csv"), (failing, "new.svg"))
        assert [p.name for p in isolated.iterdir()] == ["old.csv"] and (isolated / "old.csv").read_text() == "old\n"

    @pytest.mark.parametrize(
        "args, outputs",
        [
            (["simulate", "--init=" + SE2_INIT, "--steps", "20", "--csv-out", "a.csv", "--svg-out", "a.svg"], 2),
            (["shoot", "--problem", "free", "--n", "2", "--q0", "0,0", "--v0", "0,0", "--q1", "1,1", "--v1", "0,0",
              "--T", "1", "--csv-out", "s.csv", "--svg-out", "s.svg"], 2),
            (["check", "--suite", "axioms", "--json-out", "c.json"], 1),
            (["plot", "run.csv", "p.svg"], 1),
        ],
        ids=["simulate", "shoot", "check", "plot"],
    )
    def test_each_output_is_staged_once(self, capsys, monkeypatch, isolated, args, outputs):
        (isolated / "run.csv").write_text("q0,q1\n0,0\n1,1\n")
        staged = []
        mkstemp = cli.tempfile.mkstemp
        monkeypatch.setattr(cli.tempfile, "mkstemp", lambda **kw: staged.append(kw) or mkstemp(**kw))
        assert cli.main(args) == 0
        assert len(staged) == outputs
        assert not [p for p in isolated.iterdir() if p.name.startswith(".geodisc-")]

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
    def test_outputs_get_the_permissions_of_the_umask(self, capsys, isolated, umask):
        old = os.umask(umask)
        try:
            rc = cli.main(["simulate", "--init=" + SE2_INIT, "--steps", "5", "--csv-out", "ok.csv", "--svg-out", "ok.svg"])
            (isolated / "touched").touch()
        finally:
            os.umask(old)
        assert rc == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in isolated.iterdir()}
        assert modes == dict.fromkeys(["ok.csv", "ok.svg", "touched"], 0o666 & ~umask)

    @pytest.mark.parametrize("first", [False, True], ids=["svg", "csv"])
    def test_a_directory_target_writes_nothing(self, capsys, isolated, first):
        (isolated / "adir").mkdir()
        (isolated / "left.csv").write_text("old\n")
        csv, svg = ("adir", "left.svg") if first else ("left.csv", "adir")
        rc = cli.main(["simulate", "--init=" + SE2_INIT, "--steps", "5", "--csv-out", csv, "--svg-out", svg])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: config-error: cannot write adir: Is a directory\n"
        assert sorted(p.name for p in isolated.iterdir()) == ["adir", "left.csv"]
        assert (isolated / "left.csv").read_text() == "old\n" and not list((isolated / "adir").iterdir())

    @pytest.mark.parametrize("svg", ["same.out", "./same.out"], ids=["same", "dot-slash"])
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--init=" + SE2_INIT, "--steps", "5"],
            ["shoot", "--problem", "free", "--n", "2", "--q0", "0,0", "--v0", "0,0", "--q1", "1,1", "--v1", "0,0", "--T", "1"],
        ],
        ids=["simulate", "shoot"],
    )
    def test_two_outputs_on_one_file_write_nothing(self, capsys, isolated, args, svg):
        # Written one after the other, the SVG would replace the CSV.
        rc = cli.main([*args, "--csv-out", "same.out", "--svg-out", svg])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: config-error: two outputs name one file: same.out and {svg}\n"
        assert list(isolated.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--init=" + SE2_INIT, "--csv-out", "left.csv", "--svg-out", "adir"], "cannot write adir: Is a directory"),
            (
                ["simulate", "--init=" + SE2_INIT, "--csv-out", "left.csv", "--svg-out", "absent/o.svg"],
                "cannot write absent/o.svg: No such file or directory",
            ),
            (
                ["simulate", "--init=" + SE2_INIT, "--csv-out", "same.out", "--svg-out", "./same.out"],
                "two outputs name one file: same.out and ./same.out",
            ),
            (FREE, "cannot write free-trajectory.csv: Is a directory"),
            (SHOOT + ["--T", "1", "--csv-out", "absent/x.csv"], "cannot write absent/x.csv: No such file or directory"),
            (["check", "--json-out", "absent/x.json"], "cannot write absent/x.json: No such file or directory"),
            (["check", "--suite", "axioms", "--json-out", "adir"], "cannot write adir: Is a directory"),
            (["plot", "run.csv", "absent/x.svg"], "cannot write absent/x.svg: No such file or directory"),
            (["simulate", "--init=" + SE2_INIT, "--csv-out", "afile/x.csv"], "cannot write afile/x.csv: Not a directory"),
            (["plot", "run.csv", "run.csv"], "the CSV and the SVG name one file: run.csv and run.csv"),
            (["plot", "./run.csv", "run.csv"], "the CSV and the SVG name one file: ./run.csv and run.csv"),
        ],
        ids=[
            "simulate-dir", "simulate-absent", "simulate-same", "default-csv-dir", "shoot", "check", "check-dir", "plot",
            "simulate-parent-file", "plot-onto-its-csv", "plot-onto-its-csv-dot",
        ],
    )
    def test_a_refused_output_is_refused_before_any_work(self, capsys, monkeypatch, isolated, args, message):
        # No step, no suite and no CSV read: a run is not computed to be thrown away.
        (isolated / "adir").mkdir()
        (isolated / "free-trajectory.csv").mkdir()
        (isolated / "run.csv").write_text("q0,q1\n0,0\n1,1\n")
        (isolated / "afile").write_text("")
        calls = []
        counted = lambda name, fn: lambda *a, **kw: calls.append(name) or fn(*a, **kw)
        monkeypatch.setattr(hamiltonian, "step_residual", counted("step", hamiltonian.step_residual))
        for suite, fn in list(checks.SUITES.items()):
            monkeypatch.setitem(checks.SUITES, suite, counted(suite, fn))
        monkeypatch.setattr(artifacts, "read_csv_columns", counted("read", artifacts.read_csv_columns))
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: config-error: {message}\n"
        assert calls == []
        assert sorted(p.name for p in isolated.iterdir()) == ["adir", "afile", "free-trajectory.csv", "run.csv"]
        assert not list((isolated / "adir").iterdir()) and not list((isolated / "free-trajectory.csv").iterdir())
        assert (isolated / "run.csv").read_text() == "q0,q1\n0,0\n1,1\n" and (isolated / "afile").read_text() == ""

    @pytest.mark.parametrize(
        "args, data, message",
        [
            (
                ["simulate", "--init=" + SE2_INIT, "--discretization", "foo"],
                None,
                "unknown discretization 'foo' (want midpoint or theta:<x>)",
            ),
            (["simulate", "--init=" + SE2_INIT], {"h": "abc"}, "h: expected a number, got 'abc'"),
            (SHOOT + ["--T", "1"], {"tol": [1]}, "tol: expected a number, got [1]"),
        ],
        ids=["discretization-foo", "h-string", "tol-list"],
    )
    def test_a_bad_value_is_named_in_one_config_error_line(self, capsys, isolated, args, data, message):
        if data is not None:
            (isolated / "cfg.json").write_text(json.dumps(data))
            args = [*args, "--config", "cfg.json"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: config-error: {message}\n"

    @pytest.mark.parametrize(
        "data",
        [["--v0", "0", "--v1", "0", "--T", "1e-300", "--h", "1e-301"], ["--v0", "1e308", "--v1", "1e308", "--T", "1", "--h", "0.5"]],
        ids=["T-tiny", "v-huge"],
    )
    def test_overflowing_cubic_guess_is_one_error_line(self, capsys, data):
        # The interpolating cubic's costates, the default shooting guess, overflow.
        rc = cli.main(["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--q1", "1", *data])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: bad-discretization: the cubic guess overflows")
        assert f"v0=[{float(data[1])}]" in err and f"T={float(data[5]):g}" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--init=0,1,2,3", "--seed", "99"],
            ["shoot", "--seed", "99"],
            ["check", "--suite", "closed-form", "--r", "-1"],
            ["check", "--steps", "0"],
            ["check", "--problem", "free"],
        ],
        ids=["simulate-seed", "shoot-seed", "check-r", "check-steps", "check-problem"],
    )
    def test_a_flag_the_command_does_not_read_is_rejected(self, capsys, args):
        assert_one_config_error(capsys, args, args[-2])

    @pytest.mark.parametrize(
        "args, names",
        [
            (["simulate", "--steps", "abc"], ["--steps", "'abc'"]),
            (["check", "--seed", "1.5"], ["--seed", "'1.5'"]),
            (["simulate", "--bogus", "1"], ["--bogus"]),
            (["simulate", "--problem", "se2"], ["--problem", "'se2'"]),
            ([], ["command"]),
            (["plot", "a.csv"], ["svg"]),
        ],
        ids=["steps-abc", "seed-fractional", "unknown-flag", "problem-se2", "no-command", "plot-one-path"],
    )
    def test_a_usage_error_is_one_config_error_line(self, capsys, isolated, args, names):
        # The argument parser's own errors read like every other failure:
        # no usage block, exit 2, no output written.
        assert_one_config_error(capsys, args, *names)
        assert list(isolated.iterdir()) == []

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: geodisc")

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize(
        "args, name",
        [
            (["simulate", "--problem", "free", "--n", "1", "--init=1,2,0,0", "--steps", "3"], "csv_out"),
            (["simulate", "--problem", "free", "--n", "2", "--init=1,2,0,0,0,0,0,0", "--steps", "3"], "svg_out"),
            (["check", "--suite", "closed-form"], "json_out"),
        ],
        ids=["csv", "svg", "json"],
    )
    def test_an_empty_output_path_is_one_config_error_line(self, capsys, isolated, args, name, spelling):
        # An empty path once meant "the default CSV name" or "no SVG/JSON".
        if spelling == "flag":
            args = [*args, "--" + name.replace("_", "-"), ""]
        else:
            (isolated / "empty.json").write_text(json.dumps({name: ""}))
            args = [*args, "--config", "empty.json"]
        assert_one_config_error(capsys, args, f"{name}: expected a nonempty string, got ''")
        assert sorted(p.name for p in isolated.iterdir()) == ([] if spelling == "flag" else ["empty.json"])


class TestCheck:
    def test_repeated_main_calls_build_one_parser(self, capsys):
        # The parser is built once per process; a repeated --suite appends to
        # a fresh list on every call, so it never carries into the next one.
        cli.build_parser.cache_clear()
        counts = []
        for _ in range(3):
            assert cli.main(["check", "--suite", "axioms", "--suite", "closed-form"]) == 0
            counts.append(len(json.loads(capsys.readouterr().out)))
        assert cli.build_parser.cache_info().misses == 1
        assert counts == [17] * 3
        assert cli.build_parser().parse_args(["check"]).suites is None

    def test_report_schema_and_success(self, capsys):
        rc = cli.main(["check", "--suite", "closed-form", "--suite", "axioms", "--json-out", "report.json"])
        out, err = capsys.readouterr()
        assert rc == 0
        report = json.loads(out)
        assert isinstance(report, list) and report
        for entry in report:
            assert set(entry) == {"suite", "case", "status", "defect", "tolerance"}
            assert entry["status"] in ("pass", "info")
            assert entry["suite"] in ("closed-form", "axioms")
        assert json.load(open("report.json")) == report
        assert "0 failures" in err

    @pytest.mark.parametrize(
        "args",
        [["--suite", "closed-form,axioms"], ["--suite", "closed-form", "--suite", "axioms"], ["--config", "suites.json"]],
        ids=["comma-flag", "two-flags", "comma-config"],
    )
    def test_suite_lists_split_on_commas_everywhere(self, capsys, args, isolated):
        (isolated / "suites.json").write_text('{"suites": "closed-form,axioms"}')
        assert cli.main(["check", *args]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report) == 17 and {entry["suite"] for entry in report} == {"closed-form", "axioms"}

    def test_convergence_h_flag(self, capsys):
        rc = cli.main(["check", "--suite", "convergence", "--h", "0.1,0.05"])
        out, _ = capsys.readouterr()
        assert rc == 0
        report = json.loads(out)
        assert len(report) == 1 and "order" in report[0]["case"]

    def test_failing_suite_sets_exit_code(self, monkeypatch, capsys):
        stub = lambda **_: [CheckResult("closed-form", "stub", "fail", 1.0, 0.0)]
        monkeypatch.setitem(checks.SUITES, "closed-form", stub)
        rc = cli.main(["check", "--suite", "closed-form"])
        assert rc == 1
        assert "1 failures" in capsys.readouterr().err

    def test_nan_defect_fails_the_command(self, monkeypatch, capsys):
        closed_form = checks.midpoint_cotangent_closed_form
        nan_at = lambda x, d, inverse: closed_form(x, d, inverse) * np.where(x[..., :1] > 2.0, np.nan, 1.0)
        monkeypatch.setattr(checks, "midpoint_cotangent_closed_form", nan_at)
        assert cli.main(["check", "--suite", "closed-form"]) == 1
        out, err = capsys.readouterr()
        assert "failures" in err and "0 failures" not in err
        assert any(c["status"] == "fail" and c["defect"] != c["defect"] for c in json.loads(out))

    def test_unknown_suite_is_config_error(self, capsys):
        assert cli.main(["check", "--suite", "bogus"]) == 2

    def test_sphere_lift_suite_alone(self, capsys):
        rc = cli.main(["check", "--suite", "sphere-lift"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert {entry["suite"] for entry in json.loads(out)} == {"sphere-lift"}


SHOOT = "shoot --problem obstacle --n 3 --tau 1e-3 --r 1 --center 0,0 --q0=-2,-1.2,0 --v0 1,0,0 --q1=2,-1.15,0 --v1 1,0,0 --T 4 --h 0.01"


def test_a_warm_process_writes_the_outputs_of_a_cold_one(capsys, clear_memos, isolated):
    # Maps, lifts and step blocks built by one command serve the next ones
    # and change no output: check, a theta:0.3 simulate, the documented shot
    # and check again, in one process, then the shot once more from empty memos.
    simulate = "simulate --problem free --n 1 --h 0.01 --steps 500 --init=0.3,-0.2,0.02,-0.1 --discretization theta:0.3"
    for command in ("check --seed 0 --json-out cold.json", simulate, f"{SHOOT} --csv-out warm.csv",
                    "check --seed 0 --json-out warm.json"):
        assert cli.main(command.split()) == 0
    clear_memos()
    assert cli.main(f"{SHOOT} --csv-out cold.csv".split()) == 0
    capsys.readouterr()
    assert (isolated / "cold.json").read_bytes() == (isolated / "warm.json").read_bytes()
    assert (isolated / "cold.csv").read_bytes() == (isolated / "warm.csv").read_bytes()


class TestPlot:
    def make_csv(self, init="2.5,0,0,0,1,0,0,0,0,1,0,0", *flags):
        # The default start accelerates along x while it moves along y, so
        # its path curves and spans the plane.
        rc = cli.main(
            ["simulate", "--problem", "obstacle", f"--init={init}", "--h", "0.05", "--steps", "10", "--csv-out", "o.csv", *flags]
        )
        assert rc == 0

    def test_roundtrip_with_inferred_circle(self, capsys):
        self.make_csv()
        assert cli.main(["plot", "o.csv", "o.svg"]) == 0
        svg = open("o.svg").read()
        assert "<circle" in svg
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 11

    @pytest.mark.parametrize("center", ["0,0", "0.5,2", "-3,1.25"])
    def test_replot_draws_the_simulated_circle(self, center):
        # The circle is fitted to the clearance column wherever its center is.
        self.make_csv(SE2_INIT, f"--center={center}", "--tau", "1e-3", "--h", "0.01", "--steps", "400", "--svg-out", "a.svg")
        assert cli.main(["plot", "o.csv", "b.svg"]) == 0
        assert "<circle" in open("a.svg").read()
        assert open("a.svg").read() == open("b.svg").read()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_clearance_draws_no_circle(self, isolated, cell):
        (isolated / "n.csv").write_text(f"q0,q1,clearance\n0,0,{cell}\n2,0,3\n0,2,3\n")
        assert cli.main(["plot", "n.csv", "n.svg"]) == 0
        assert "<circle" not in open("n.svg").read()

    def test_positions_on_a_line_draw_no_circle(self):
        # Clearances along a line do not fix a circle (the fit has rank 2).
        self.make_csv("2.5,0,0,0,1,0,0,0,0,0,0,0")
        assert cli.main(["plot", "o.csv", "o.svg"]) == 0
        assert "<circle" not in open("o.svg").read()

    def test_missing_column(self, isolated, capsys):
        (isolated / "m.csv").write_text("a,b\n1,2\n")
        assert cli.main(["plot", "m.csv", "m.svg"]) == 2
        assert "missing column" in capsys.readouterr().err

    def test_ragged_rows(self, isolated):
        (isolated / "r.csv").write_text("q0,q1\n1\n")
        assert cli.main(["plot", "r.csv", "r.svg"]) == 2

    def test_nonnumeric_cells(self, isolated):
        (isolated / "x.csv").write_text("q0,q1\nfoo,bar\n")
        assert cli.main(["plot", "x.csv", "x.svg"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("q0,q1,clearance\n", "no data rows"), ("q0,q1,clearance\n0,0,3\n1,0,abc\n", "non-numeric clearance cell")],
        ids=["header-only", "clearance-text"],
    )
    def test_a_csv_without_a_plot_is_one_config_error_line(self, capsys, isolated, text, message):
        (isolated / "c.csv").write_text(text)
        assert_one_config_error(capsys, ["plot", "c.csv", "c.svg"], f"error: config-error: c.csv: {message}\n")
        assert [p.name for p in isolated.iterdir()] == ["c.csv"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["q0", "q1"])
    def test_non_finite_positions_are_refused(self, capsys, isolated, cell, column):
        rows = {"q0": ["0", "1", "0"], "q1": ["0", "0", "1"]}
        rows[column][1] = cell
        (isolated / "p.csv").write_text("q0,q1,clearance\n" + "".join(f"{a},{b},3\n" for a, b in zip(*rows.values())))
        assert_one_config_error(capsys, ["plot", "p.csv", "p.svg"], "p.csv: non-finite position cell")
        assert sorted(p.name for p in isolated.iterdir()) == ["p.csv"]

    def test_missing_file(self):
        assert cli.main(["plot", "absent.csv", "out.svg"]) == 2



FOOTPRINT = """
import contextlib, io, json, sys
import numpy

BASE = set(sys.modules)  # what numpy loads on import (numpy.random among it before numpy 2.0)
from geodisc import cli, hamiltonian


class FirstStep(BaseException):
    pass


def loaded():
    watched = ("numpy.random", "secrets", "_hashlib")
    return sorted(name for name in set(sys.modules) - BASE if name.startswith("geodisc.") or name in watched)


def first_step(*args, **kwargs):
    raise FirstStep(loaded())


argv = json.loads(sys.argv[1])
if argv[0] != "check":
    hamiltonian.step_residual = first_step
try:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv):
            sys.exit("the command failed")
    print(json.dumps({"stopped": False, "modules": loaded()}))
except FirstStep as stop:
    print(json.dumps({"stopped": True, "modules": stop.args[0]}))
"""

RUN_MODULES = ["geodisc.artifacts", "geodisc.control"]
#: numpy.random loads OpenSSL through secrets -> hmac -> hashlib -> _hashlib; the check suites draw without it.
NUMPY_RANDOM = ["numpy.random", "secrets", "_hashlib"]


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (["check", "--seed", "0"], [], ["geodisc.artifacts", "geodisc.control", *NUMPY_RANDOM]),
        (["simulate", "--problem", "free", "--n", "1", "--steps", "3", "--init=1,2,0,0"], RUN_MODULES,
         ["geodisc.checks", *NUMPY_RANDOM]),
        (["shoot", "--problem", "free", "--n", "1", "--q0", "0", "--v0", "0", "--q1", "1", "--v1", "0", "--T", "1"],
         RUN_MODULES, ["geodisc.checks", *NUMPY_RANDOM]),
    ],
    ids=["check", "simulate", "shoot"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, loaded, not_loaded, isolated):
    # In a fresh interpreter: check never loads the problems or the writers,
    # and simulate and shoot load all they run before their first step
    # (hamiltonian.step_residual), and never the check suites.  No command
    # loads numpy.random or OpenSSL.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)], env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    modules = set(report["modules"])
    assert report["stopped"] == (argv[0] != "check")
    assert set(loaded) <= modules and not set(not_loaded) & modules, modules


CLOSED_STDOUT_COMMANDS = {
    "check": ["check", "--suite", "closed-form"],
    "simulate": ["simulate", "--problem", "free", "--n", "1", "--steps", "2", "--init=0,0,0,1", "--csv-out", "s.csv"],
}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", sorted(CLOSED_STDOUT_COMMANDS))
def test_closed_stdout_is_one_error_line(command, buffered):
    # The pipe's read end is closed before the command starts, so its first
    # write to stdout (unbuffered), or the flush of what it buffered, fails
    # with EPIPE, as in `geodisc check | head -1` when head has gone.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        argv = [sys.executable, "-m", "geodisc.cli", *CLOSED_STDOUT_COMMANDS[command]]
        run = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert run.returncode == 1
    errors = [line for line in run.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: broken-pipe: ")
    assert "Traceback" not in run.stderr

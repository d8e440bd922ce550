import json

import numpy as np
import pytest

from geodisc import checks, cli, control
from geodisc.artifacts import read_csv_columns
from geodisc.checks import CheckResult


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


SE2_INIT = "-2,-1.5,0,1,0,0.05,0,0.02,0,0,0.1,-0.05"


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
            with pytest.raises(SystemExit):
                cli.main(["simulate", "--init=" + SE2_INIT, *flags])
            assert flags[-1] in capsys.readouterr().err

    def test_rerun_writes_identical_csv(self, capsys):
        flags = ["--problem", "free", "--n", "1", "--init=0.3,-0.2,0.02,-0.1", "--h", "0.01", "--steps", "300"]
        for name in ("a.csv", "b.csv"):
            assert cli.main(["simulate", *flags, "--csv-out", name]) == 0
        assert open("a.csv", "rb").read() == open("b.csv", "rb").read()

    def test_simulate_has_no_tol_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--problem", "free", "--n", "1", "--init", "0,1,2,3", "--tol", "0"])
        assert "--tol" in capsys.readouterr().err

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
        args = ["simulate", "--problem", problem, "--n", str(n), "--init=" + init, "--tau", "1e-2", "--steps", "40"]
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
        "seed-fractional": '{"seed": 0.5}',
        "h-bool": '{"h": true}',
        "center-number": '{"center": 5}',
        "center-bool": '{"center": [true, 0]}',
        "steps-huge": '{"steps": 1e300}',
    }

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
            ["simulate", "--steps", "100000000000000000000", "--init=" + SE2_INIT],
            SHOOT + ["--T", "1e9"],
            *(["simulate", "--config", f"{name}.json", "--init=" + SE2_INIT] for name in BAD_CONFIGS),
        ],
        ids=[
            "center-3", "obstacle-n1", "r-nan", "tau-nan", "tau-inf", "T-nan", "tol-nan", "h-zero", "h-2", "json-null",
            "h-single", "h-repeated", "suite-twice", "suite-unknown", "suites-number",
            "steps-huge-flag", "shoot-steps-huge", *BAD_CONFIGS,
        ],
    )
    def test_is_one_config_error_line(self, capsys, args, isolated):
        (isolated / "null-h.json").write_text('{"h": null}')
        (isolated / "suites-5.json").write_text('{"suites": 5}')
        for name, text in self.BAD_CONFIGS.items():
            (isolated / f"{name}.json").write_text(text)
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: config-error:")
        assert "Traceback" not in err and "Warning" not in err


class TestCheck:
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
        stub = lambda rng, phase_map: [CheckResult("closed-form", "stub", "fail", 1.0, 0.0)]
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


class TestPlot:
    def make_csv(self):
        rc = cli.main(
            [
                "simulate", "--problem", "obstacle", "--init", "2.5,0,0,0,1,0,0,0,0,0,0,0",
                "--h", "0.05", "--steps", "10", "--csv-out", "o.csv",
            ]
        )
        assert rc == 0

    def test_roundtrip_with_inferred_circle(self, capsys):
        self.make_csv()
        assert cli.main(["plot", "o.csv", "o.svg"]) == 0
        svg = open("o.svg").read()
        assert "<circle" in svg
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 11

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

    def test_missing_file(self):
        assert cli.main(["plot", "absent.csv", "out.svg"]) == 2

"""Command-line front end: simulate | shoot | check | plot.

Configuration comes from an optional JSON file plus flags; flags win.  The
environment variable GEODISC_SEED overrides the configured seed for the
randomized check suites.  Exit codes: 0 success, 1 solver or suite failure,
2 configuration error.  Every failure prints a single line of the form
``error: <kind>: message`` on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .artifacts import read_csv_columns, write_trajectory_csv, write_xy_svg, _atomic_write_text
from .checks import run_all, validate_run
from .control import make_free_spline, make_obstacle_problem, shoot, simulate
from .errors import (
    BadDiscretization,
    ConfigError,
    GeodiscError,
    NonConvergence,
    StartInsideObstacle,
)
from .lifts import second_order_phase_map
from .maps import midpoint_map, theta_map

Array = np.ndarray

PROBLEM_KINDS = ("free", "obstacle", "se2")

#: Errors that mean the run was set up wrong, as opposed to failing numerically.
_CONFIG_ERRORS = (ConfigError, BadDiscretization, StartInsideObstacle)


def _parse_floats(value, name: str) -> Array:
    if isinstance(value, str):
        parts = [p for p in re.split(r"[,\s]+", value.strip()) if p]
    else:
        parts = list(value)
    try:
        out = np.array([float(p) for p in parts], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}") from exc
    if out.size == 0 or not np.all(np.isfinite(out)):
        raise ConfigError(f"{name}: expected a nonempty list of finite numbers")
    return out


@dataclass
class ExperimentConfig:
    """Everything a CLI run needs; see the module docstring for precedence."""

    problem: str = "se2"
    n: int | None = None
    h: float = 0.01
    steps: int = 400
    tau: float = 1e-20
    r: float = 1.0
    center: Array = field(default_factory=lambda: np.zeros(2))
    initial_state: Array | None = None
    q_start: Array | None = None
    qdot_start: Array | None = None
    q_end: Array | None = None
    qdot_end: Array | None = None
    T: float | None = None
    discretization: str = "midpoint"
    csv_out: str | None = None
    svg_out: str | None = None
    json_out: str | None = None
    seed: int = 0
    tol: float = 1e-10
    include_potential_in_cost: bool = True
    suites: list[str] | None = None
    h_values: Sequence[float] = (0.04, 0.02, 0.01)

    def base_map(self, n: int):
        spec = self.discretization
        if spec == "midpoint":
            return midpoint_map(n)
        if spec.startswith("theta:"):
            try:
                theta = float(spec.split(":", 1)[1])
                return theta_map(n, theta)
            except ValueError as exc:
                raise ConfigError(f"bad discretization {spec!r}") from exc
        raise ConfigError(f"unknown discretization {spec!r} (want midpoint or theta:<x>)")

    @property
    def dim(self) -> int:
        if self.n is not None:
            return self.n
        return 3 if self.problem in ("se2", "obstacle") else 1

    @property
    def obstacle(self):
        """(tau, r, center) for the obstacle problems, else None."""
        return (self.tau, self.r, self.center) if self.problem in ("obstacle", "se2") else None

    @property
    def boundary(self):
        return (self.q_start, self.qdot_start, self.q_end, self.qdot_end)

    def horizon(self) -> float:
        return self.T if self.T is not None else self.steps * self.h

    def validate(self, command: str) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.problem!r}")
        for name in ("h", "tau", "r", "T", "tol"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.h <= 0:
            raise ConfigError(f"h must be positive, got {self.h}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.r <= 0:
            raise ConfigError(f"obstacle radius must be positive, got {self.r}")
        if self.center.size != 2:
            raise ConfigError(f"the obstacle center needs 2 numbers, got {self.center.size}")
        if self.tol < 0:
            raise ConfigError("tol must be nonnegative")
        try:
            validate_run(self.suites, self.h_values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.base_map(1)  # validates the discretization string
        n = self.dim
        if self.problem == "se2" and n != 3:
            raise ConfigError("the se2 problem is three-dimensional (x, y, theta)")
        if self.problem == "obstacle" and n < 2:
            raise ConfigError(f"the obstacle acts on (x, y): the obstacle problem needs n >= 2, got n={n}")
        have_boundary = any(v is not None for v in self.boundary)
        if self.initial_state is not None and have_boundary:
            raise ConfigError("give either an initial state or boundary data, not both")
        if command == "simulate":
            if self.initial_state is None:
                raise ConfigError("simulate needs --init (flat state q,qdot,p0,p1)")
            if self.initial_state.size != 4 * n:
                raise ConfigError(
                    f"initial state needs {4 * n} numbers for n={n}, got {self.initial_state.size}"
                )
        if command == "shoot":
            if any(v is None for v in self.boundary):
                raise ConfigError("shoot needs --q0, --v0, --q1 and --v1")
            for label, v in zip(("q0", "v0", "q1", "v1"), self.boundary):
                if v.size != n:
                    raise ConfigError(f"--{label} needs {n} numbers, got {v.size}")


_VECTOR_FIELDS = ("initial_state", "q_start", "qdot_start", "q_end", "qdot_end", "center")


def _coerce_field(name: str, value):
    if name in _VECTOR_FIELDS:
        return _parse_floats(value, name)
    if name == "h_values":
        return tuple(float(v) for v in _parse_floats(value, name))
    if name == "suites":
        items = [value] if isinstance(value, str) else value
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise ConfigError(f"suites: expected a list of suite names, got {value!r}")
        return [s for item in items for s in re.split(r"[,\s]+", item.strip()) if s]
    if name in ("n", "steps", "seed"):
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: expected an integer, got {value!r}") from exc
    if name in ("h", "tau", "r", "T", "tol"):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: expected a number, got {value!r}") from exc
    return value


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    field_names = {f.name for f in fields(ExperimentConfig)}
    merged: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - field_names
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        nulls = sorted(k for k, v in data.items() if v is None)
        if nulls:
            raise ConfigError(f"{nulls[0]}: expected a value, got null")
        if args.command == "simulate" and "tol" in data:
            raise ConfigError("tol is the shoot command's terminal defect tolerance; simulate does not take it")
        merged.update(data)

    # argparse attribute -> config field
    alias = {
        "init": "initial_state",
        "q0": "q_start",
        "v0": "qdot_start",
        "q1": "q_end",
        "v1": "qdot_end",
        "suite": "suites",
    }
    for attr, value in vars(args).items():
        if attr in ("command", "config", "csv", "svg"):
            continue
        name = alias.get(attr, attr)
        if name in field_names and value is not None:
            merged[name] = value

    merged = {k: _coerce_field(k, v) for k, v in merged.items()}
    cfg = ExperimentConfig(**merged)

    env_seed = os.environ.get("GEODISC_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ConfigError(f"GEODISC_SEED must be an integer, got {env_seed!r}") from exc
    cfg.validate(args.command)
    return cfg


# ---------------------------------------------------------------------------
# commands


def _write_artifacts(cfg: ExperimentConfig, traj, clearances, command: str) -> str:
    """Write the trajectory CSV with its clearances (None without an
    obstacle), and the XY-path SVG when asked for.  Returns the closing
    ``csv:`` line."""
    csv_path = cfg.csv_out or f"{cfg.problem}-{command}.csv"
    write_trajectory_csv(csv_path, traj, clearances)
    line = f"csv: {csv_path}"
    if cfg.svg_out and cfg.dim >= 2:
        circle = (float(cfg.center[0]), float(cfg.center[1]), cfg.r) if clearances is not None else None
        write_xy_svg(cfg.svg_out, traj.positions()[:, :2], circle=circle)
        line += f"  svg: {cfg.svg_out}"
    return line


def cmd_simulate(cfg: ExperimentConfig) -> int:
    n = cfg.dim
    report = simulate(
        n,
        cfg.h,
        cfg.steps,
        cfg.initial_state,
        base=cfg.base_map(n),
        obstacle=cfg.obstacle,
        include_potential_in_cost=cfg.include_potential_in_cost,
    )
    csv_line = _write_artifacts(cfg, report.trajectory, report.clearances, "trajectory")
    final = report.trajectory.z[-1]
    print("final q      = [%s]" % " ".join("%.6g" % v for v in final[:n]))
    print("final qdot   = [%s]" % " ".join("%.6g" % v for v in final[n : 2 * n]))
    print("H drift      = %.6g" % report.h_drift)
    print("min clearance= %s" % ("n/a" if report.min_clearance is None else "%.6g" % report.min_clearance))
    print("cost J       = %.6g" % report.cost)
    print(csv_line)
    return 0


def cmd_shoot(cfg: ExperimentConfig) -> int:
    n = cfg.dim
    T = cfg.horizon()
    if cfg.obstacle is not None:
        prob = make_obstacle_problem(
            n,
            *cfg.obstacle,
            cfg.boundary,
            T,
            cfg.h,
            include_potential_in_cost=cfg.include_potential_in_cost,
        )
    else:
        prob = make_free_spline(n, cfg.boundary, T, cfg.h)
    C = second_order_phase_map(n, base=cfg.base_map(n))
    result = shoot(prob, C=C, tol=cfg.tol)
    traj = result.trajectory
    clearances = None if prob.clearance is None else prob.clearance(traj.positions())
    csv_line = _write_artifacts(cfg, traj, clearances, "shoot")

    print("converged    = %s" % result.converged)
    print("p0(0)        = [%s]" % " ".join("%.10g" % v for v in result.p0))
    print("p1(0)        = [%s]" % " ".join("%.10g" % v for v in result.p1))
    print("defect       = %.6g" % result.defect)
    print("cost J       = %.6g" % result.cost)
    print(csv_line)
    if not result.converged:
        message = " ".join((result.message or "terminal defect above tolerance").split())
        print(f"error: non-convergence: {message}", file=sys.stderr)
        return 1
    return 0


def cmd_check(cfg: ExperimentConfig) -> int:
    results = run_all(seed=cfg.seed, suites=cfg.suites, h_values=cfg.h_values)
    payload = json.dumps([r.as_dict() for r in results], indent=2)
    print(payload)
    if cfg.json_out:
        _atomic_write_text(cfg.json_out, [payload + "\n"])
    failures = sum(r.failed for r in results)
    print(f"check: {len(results)} cases, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_plot(csv_path: str, svg_path: str) -> int:
    try:
        cols = read_csv_columns(csv_path)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for needed in ("q0", "q1"):
        if needed not in cols:
            raise ConfigError(f"{csv_path}: missing column {needed!r}")
    try:
        xy = np.array([[float(a), float(b)] for a, b in zip(cols["q0"], cols["q1"])])
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: non-numeric position cell") from exc
    if xy.shape[0] < 1:
        raise ConfigError(f"{csv_path}: no data rows")

    circle = None
    cells = cols.get("clearance", [])
    filled = [(row, cell) for row, cell in enumerate(cells) if cell != ""]
    if filled:
        try:
            r2 = np.median([xy[i] @ xy[i] - float(cell) for i, cell in filled])
        except ValueError as exc:
            raise ConfigError(f"{csv_path}: non-numeric clearance cell") from exc
        if r2 > 0:
            circle = (0.0, 0.0, float(np.sqrt(r2)))
    write_xy_svg(svg_path, xy, circle=circle)
    print(f"svg: {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument(
        "--problem",
        choices=PROBLEM_KINDS,
        help="se2 (the default) is the obstacle problem with n=3 in a Euclidean (x, y, theta) chart; "
        "it does not use the SE(2) exponential map",
    )
    p.add_argument("--n", type=int, help="configuration dimension")
    p.add_argument("--steps", type=int)
    p.add_argument("--tau", type=float, help="obstacle potential strength")
    p.add_argument("--r", type=float, help="obstacle radius")
    p.add_argument("--center", help="obstacle center, e.g. '0,0'")
    p.add_argument("--discretization", help="midpoint (default) or theta:<x>")
    p.add_argument("--csv-out", dest="csv_out")
    p.add_argument("--svg-out", dest="svg_out")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--no-potential-in-cost",
        dest="include_potential_in_cost",
        action="store_const",
        const=False,
        default=None,
        help="keep the obstacle potential out of the reported cost",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodisc",
        description="Symplectic integrators for acceleration-controlled systems, "
        "built from cotangent-lifted discretization maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward integration from an initial phase state")
    _add_common(p)
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--init", help="flat initial state q,qdot,p0,p1 (4n numbers)")

    p = sub.add_parser("shoot", help="solve a two-point boundary problem by single shooting")
    _add_common(p)
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--T", type=float, help="horizon (default steps*h)")
    p.add_argument("--q0", help="start position (n numbers)")
    p.add_argument("--v0", help="start velocity")
    p.add_argument("--q1", help="end position")
    p.add_argument("--v1", help="end velocity")
    p.add_argument("--tol", type=float, help="terminal defect tolerance")

    p = sub.add_parser("check", help="run the verification suites, print a JSON report")
    _add_common(p)
    p.add_argument("--suite", action="append", help="suite name; repeatable (default: all)")
    p.add_argument("--h", dest="h_values", help="comma list of step sizes for the convergence suite")
    p.add_argument("--json-out", dest="json_out", help="also write the report to this file")

    p = sub.add_parser("plot", help="render a trajectory CSV as an SVG")
    p.add_argument("csv")
    p.add_argument("svg")
    return parser


def _error_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            return cmd_plot(args.csv, args.svg)
        cfg = load_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "shoot":
            return cmd_shoot(cfg)
        return cmd_check(cfg)
    except _CONFIG_ERRORS as exc:
        print(f"error: {_error_kind(exc)}: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except GeodiscError as exc:
        print(f"error: {_error_kind(exc)}: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

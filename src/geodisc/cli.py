"""Command-line front end: simulate | shoot | check | plot.

Configuration comes from an optional JSON file plus flags; flags win.  Each
command takes only the settings it reads: its flags, and in its config file
the same settings under their field names (``init`` is ``initial_state``,
``q0``/``v0``/``q1``/``v1`` are ``q_start``/``qdot_start``/``q_end``/
``qdot_end``, ``suite`` is ``suites`` and check's ``h`` is ``h_values``).  The
problem is ``obstacle`` (the default, n = 3: the planar body in a Euclidean
(x, y, theta) chart) or ``free`` (n = 1 by default).  Exit codes: 0 success,
1 solver or suite failure or a stdout closed early, 2 configuration error, a
usage error or a config-file value of the wrong type included.  Every failure
prints a single line of the form ``error: <kind>: message`` on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from .errors import BadDiscretization, ConfigError, GeodiscError, StartInsideObstacle
from .lifts import second_order_phase_map
from .maps import midpoint_map, theta_map
from .numeric import rowdot

Array = np.ndarray

PROBLEM_KINDS = ("free", "obstacle")
MAX_STEPS = 10**6  # a run stores every state: 10^6 steps at n = 3 take 96 MB

#: Errors that mean the run was set up wrong, as opposed to failing numerically.
_CONFIG_ERRORS = (ConfigError, BadDiscretization, StartInsideObstacle)


def _parse_floats(value, name: str) -> Array:
    try:
        parts = [p for p in re.split(r"[,\s]+", value.strip()) if p] if isinstance(value, str) else list(value)
        if any(isinstance(p, bool) for p in parts):
            raise TypeError("a bool is not a number")
        out = np.array([float(p) for p in parts], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}") from exc
    if out.size == 0 or not np.all(np.isfinite(out)):
        raise ConfigError(f"{name}: expected a nonempty list of finite numbers")
    return out


@dataclass
class ExperimentConfig:
    """Everything a CLI run needs; see the module docstring for precedence."""

    problem: str = "obstacle"
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
        return 3 if self.problem == "obstacle" else 1

    @property
    def obstacle(self):
        """(tau, r, center) for the obstacle problem, else None."""
        return (self.tau, self.r, self.center) if self.problem == "obstacle" else None

    @property
    def boundary(self):
        return (self.q_start, self.qdot_start, self.q_end, self.qdot_end)

    def horizon(self) -> float:
        return self.T if self.T is not None else self.steps * self.h

    def validate(self, command: str) -> None:
        if command != "check":  # the CSV a run writes, named after the problem and command by default
            self.csv_out = self.csv_out or f"{self.problem}-{'trajectory' if command == 'simulate' else command}.csv"
        _check_outputs(*filter(None, (self.csv_out, self.svg_out, self.json_out)))
        if command == "check":
            from .checks import validate_run
            try:
                validate_run(self.suites, self.h_values, self.seed)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            return
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
        if self.steps > MAX_STEPS or command == "shoot" and self.horizon() > MAX_STEPS * self.h:
            raise ConfigError(f"a run takes at most {MAX_STEPS} steps")
        if self.r <= 0:
            raise ConfigError(f"obstacle radius must be positive, got {self.r}")
        if self.center.size != 2:
            raise ConfigError(f"the obstacle center needs 2 numbers, got {self.center.size}")
        if self.tol < 0:
            raise ConfigError("tol must be nonnegative")
        self.base_map(1)  # validates the discretization string
        n = self.dim
        if n < 1:
            raise ConfigError(f"n must be >= 1, got n={n}")
        if self.problem == "obstacle" and n < 2:
            raise ConfigError(f"the obstacle acts on (x, y): the obstacle problem needs n >= 2, got n={n}")
        if self.svg_out and n < 2:
            raise ConfigError(f"the SVG plots (q0, q1): --svg-out needs n >= 2, got n={n}")
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
_STRING_FIELDS = ("problem", "discretization", "csv_out", "svg_out", "json_out")


def _coerce_field(name: str, value):
    """``value`` as config field ``name`` wants it; a value of the wrong
    type, such as a bool or a fractional number for an integer, raises
    ConfigError."""
    if name in _STRING_FIELDS:
        if not isinstance(value, str) or not value and name.endswith("_out"):
            raise ConfigError(f"{name}: expected a {'nonempty ' * name.endswith('_out')}string, got {value!r}")
        return value
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
        if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        return int(value)
    if name in ("h", "tau", "r", "T", "tol"):
        if not isinstance(value, bool):
            try:
                return float(value)
            except (TypeError, ValueError):
                pass
        raise ConfigError(f"{name}: expected a number, got {value!r}")


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The command's settings from its config file and flags (flags win);
    a config key that is not one of the command's settings raises ConfigError."""
    settings = {a: value for a, value in vars(args).items() if a not in ("command", "config")}
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(settings))
        if unknown:
            raise ConfigError(
                f"{', '.join(unknown)}: not a setting of {args.command} (its settings: {', '.join(sorted(settings))})"
            )
        nulls = sorted(k for k, v in data.items() if v is None)
        if nulls:
            raise ConfigError(f"{nulls[0]}: expected a value, got null")
        merged.update(data)
    merged.update((name, value) for name, value in settings.items() if value is not None)

    merged = {k: _coerce_field(k, v) for k, v in merged.items()}
    obstacle = [k for k in ("tau", "r", "center") if k in merged and merged.get("problem") == "free"]
    if obstacle:
        raise ConfigError(f"{', '.join(obstacle)}: not read by the free problem, which has no obstacle")
    if "steps" in merged and "T" in merged:
        raise ConfigError("steps: not read beside T, which sets shoot's horizon (T / h steps)")
    cfg = ExperimentConfig(**merged)
    cfg.validate(args.command)
    return cfg


# ---------------------------------------------------------------------------
# commands


def _check_outputs(*paths: str) -> None:
    """Refuse, before any work, outputs that name one file twice, a directory or a file whose parent is no directory."""
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ConfigError("two outputs name one file: " + " and ".join(paths))
    for path in paths:
        try:  # "dir/." resolves only through a directory: ENOENT or ENOTDIR otherwise
            os.stat(os.path.join(os.path.dirname(path), "."))
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


def _write(*outputs) -> None:
    """Write every output ``(write, path, *args)`` as ``write(path, *args)``,
    or none, on paths that :func:`_check_outputs` has passed: each is
    written once, to a new temp file beside its path with the permissions the
    umask gives a new file, and the temp files replace their paths once all
    are written.  A failure to write a path is raised as ConfigError naming it."""
    staged = []
    os.umask(umask := os.umask(0))  # no call reads the umask without setting it
    try:
        for write, path, *args in outputs:
            fd, tmp = tempfile.mkstemp(prefix=".geodisc-", dir=os.path.dirname(path) or ".")
            os.close(fd)
            staged.append(tmp)
            os.chmod(tmp, 0o666 & ~umask)
            write(tmp, *args)
        for tmp, (_, path, *_) in zip(staged, outputs):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _write_artifacts(cfg: ExperimentConfig, traj, clearances) -> str:
    """Write the trajectory CSV with its clearances (None without an
    obstacle), and the XY-path SVG when asked for, all or none.  Returns the
    closing ``csv:`` line."""
    from .artifacts import write_trajectory_csv, write_xy_svg
    outputs = [(write_trajectory_csv, cfg.csv_out, traj, clearances)]
    line = f"csv: {cfg.csv_out}"
    if cfg.svg_out:
        circle = (float(cfg.center[0]), float(cfg.center[1]), cfg.r) if clearances is not None else None
        outputs.append((write_xy_svg, cfg.svg_out, traj.positions()[:, :2], circle))
        line += f"  svg: {cfg.svg_out}"
    _write(*outputs)
    return line


def cmd_simulate(cfg: ExperimentConfig) -> int:
    from . import artifacts, control  # artifacts too: a run loads all it uses before its first step
    n = cfg.dim
    report = control.simulate(n, cfg.h, cfg.steps, cfg.initial_state, base=cfg.base_map(n), obstacle=cfg.obstacle)
    csv_line = _write_artifacts(cfg, report.trajectory, report.clearances)
    final = report.trajectory.z[-1]
    print("final q      = [%s]" % " ".join("%.6g" % v for v in final[:n]))
    print("final qdot   = [%s]" % " ".join("%.6g" % v for v in final[n : 2 * n]))
    print("H drift      = %.6g" % report.h_drift)
    print("min clearance= %s" % ("n/a" if report.min_clearance is None else "%.6g" % report.min_clearance))
    print("cost J       = %.6g" % report.cost)
    print(csv_line)
    return 0


def cmd_shoot(cfg: ExperimentConfig) -> int:
    from . import artifacts, control  # artifacts too: a run loads all it uses before its first step
    n = cfg.dim
    T = cfg.horizon()
    if cfg.obstacle is not None:
        prob = control.make_obstacle_problem(n, *cfg.obstacle, cfg.boundary, T, cfg.h)
    else:
        prob = control.make_free_spline(n, cfg.boundary, T, cfg.h)
    C = second_order_phase_map(n, base=cfg.base_map(n))
    result = control.shoot(prob, C=C, tol=cfg.tol)
    traj = result.trajectory
    clearances = None if prob.clearance is None else prob.clearance(traj.positions())
    csv_line = _write_artifacts(cfg, traj, clearances)

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
    from .checks import run_all
    results = run_all(seed=cfg.seed, suites=cfg.suites, h_values=cfg.h_values)
    payload = json.dumps([r.as_dict() for r in results], indent=2)
    if cfg.json_out:
        from .artifacts import write_bytes
        _write((write_bytes, cfg.json_out, [(payload + "\n").encode()]))
    print(payload)
    failures = sum(r.failed for r in results)
    print(f"check: {len(results)} cases, {failures} failures", file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_plot(csv_path: str, svg_path: str) -> int:
    if os.path.realpath(csv_path) == os.path.realpath(svg_path):
        raise ConfigError(f"the CSV and the SVG name one file: {csv_path} and {svg_path}")
    _check_outputs(svg_path)
    from .artifacts import read_csv_columns, write_xy_svg
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
    if not np.isfinite(xy).all():
        raise ConfigError(f"{csv_path}: non-finite position cell")
    if xy.shape[0] < 1:
        raise ConfigError(f"{csv_path}: no data rows")

    circle = None
    filled = [(row, cell) for row, cell in enumerate(cols.get("clearance", [])) if cell != ""]
    if filled:
        try:
            clearance = np.array([float(cell) for _, cell in filled])
        except ValueError as exc:
            raise ConfigError(f"{csv_path}: non-numeric clearance cell") from exc
        # clearance = |xy - c|^2 - r^2, so |xy|^2 - clearance = 2 c . xy + (r^2 - |c|^2):
        # linear in (c, r^2 - |c|^2), fitted by least squares over the filled rows.
        P = xy[[row for row, _ in filled]]
        A, b = np.column_stack([2.0 * P, np.ones(len(P))]), rowdot(P, P) - clearance
        if np.isfinite(b).all():  # b is not finite wherever A is not
            (cx, cy, e), _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
            r2 = e + cx * cx + cy * cy
            if rank == 3 and r2 > 0:  # positions that span the plane fix the circle
                circle = (cx, cy, float(np.sqrt(r2)))
    _write((write_xy_svg, svg_path, xy, circle))
    print(f"svg: {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_problem(p: argparse.ArgumentParser) -> None:
    """The config file and the problem flags of simulate and shoot."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument(
        "--problem",
        choices=PROBLEM_KINDS,
        help="obstacle (the default; n=3 is the planar body in a Euclidean (x, y, theta) chart, "
        "not the SE(2) exponential map) or free",
    )
    p.add_argument("--n", type=int, help="configuration dimension")
    p.add_argument("--steps", type=int)
    p.add_argument("--tau", type=float, help="obstacle potential strength")
    p.add_argument("--r", type=float, help="obstacle radius")
    p.add_argument("--center", help="obstacle center, e.g. '0,0'")
    p.add_argument("--discretization", help="midpoint (default) or theta:<x>, first order (H kept to O(h)) unless "
                   "x = 0.5, the midpoint: second order, H kept to O(h^2) with a potential, a quadratic H to rounding")
    p.add_argument("--csv-out", dest="csv_out")
    p.add_argument("--svg-out", dest="svg_out")


class _Parser(argparse.ArgumentParser):
    """A parser, subcommands included, that takes only whole flag names and
    whose usage errors raise ConfigError."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


@cache  # one parser per process: parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geodisc",
        description="Symplectic integrators for acceleration-controlled systems, "
        "built from cotangent-lifted discretization maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward integration from an initial phase state")
    _add_problem(p)
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--init", dest="initial_state", metavar="INIT", help="flat initial state q,qdot,p0,p1 (4n numbers)")

    p = sub.add_parser("shoot", help="solve a two-point boundary problem by single shooting")
    _add_problem(p)
    p.add_argument("--h", type=float, help="step size")
    p.add_argument("--T", type=float, help="horizon (default steps*h)")
    p.add_argument("--q0", dest="q_start", metavar="Q0", help="start position (n numbers)")
    p.add_argument("--v0", dest="qdot_start", metavar="V0", help="start velocity")
    p.add_argument("--q1", dest="q_end", metavar="Q1", help="end position")
    p.add_argument("--v1", dest="qdot_end", metavar="V1", help="end velocity")
    p.add_argument("--tol", type=float, help="terminal defect tolerance")

    p = sub.add_parser("check", help="run the verification suites, print a JSON report")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, help="seed of every suite's samples (default 0)")
    p.add_argument("--suite", dest="suites", metavar="SUITE", action="append", help="suite name; repeatable (default: all)")
    p.add_argument("--h", dest="h_values", help="comma list of step sizes for the convergence suite")
    p.add_argument("--json-out", dest="json_out", help="also write the report to this file")

    p = sub.add_parser("plot", help="render a trajectory CSV as an SVG")
    p.add_argument("csv")
    p.add_argument("svg")
    return parser


def _error_kind(exc: BaseException) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "plot":
            code = cmd_plot(args.csv, args.svg)
        else:
            code = {"simulate": cmd_simulate, "shoot": cmd_shoot, "check": cmd_check}[args.command](load_config(args))
        sys.stdout.flush()  # a reader that left early fails here, not in the exit-time flush
        return code
    except GeodiscError as exc:
        print(f"error: {_error_kind(exc)}: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2 if isinstance(exc, _CONFIG_ERRORS) else 1
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # what is left in the buffer goes nowhere at exit
        os.close(devnull)
        print("error: broken-pipe: stdout was closed before the output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

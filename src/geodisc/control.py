"""Acceleration-controlled optimal control problems and their solvers.

Two problem families: the free spline (minimum integrated squared
acceleration between fixed endpoint positions and velocities) and the same
with a repulsive obstacle potential V(q) on (x, y) added to the running cost,
|u|^2 / 2 + V(q).  With n = 3 the obstacle problem is the planar body in a
Euclidean chart q = (x, y, theta).

A forward run from a phase state is :func:`simulate`.  Boundary-value
problems are solved by single shooting: Newton iteration on the
initial costates (p0(0), p1(0)) of the forward symplectic flow, with exact
discrete sensitivities.  Each forward integration also records the tangent
block d z_N / d(p0(0), p1(0)) of the discrete variational equation, so one
integration gives both the endpoint defect and its 2n x 2n Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import BadDiscretization, EvaluationFailure, NonConvergence, ObstaclePenetration, SingularPotential
from .errors import StartInsideObstacle
from .hamiltonian import SINGULAR_CLEARANCE, Potential, Trajectory, integrate, obstacle_potential, second_order_hamiltonian
from .lifts import CotangentLiftedMap, second_order_phase_map
from .maps import DiscretizationMap
from .numeric import as_vector, newton_solve

Array = np.ndarray


def grid_steps(T: float, h: float) -> int:
    """Number of steps N with T = N h, rejecting grids that do not divide."""
    if not (np.isfinite(T) and np.isfinite(h) and h > 0 and T > 0):
        raise BadDiscretization(f"need a finite positive horizon and step, got T={T}, h={h}")
    ratio = T / h
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise BadDiscretization(f"horizon T={T} is not an integer multiple of h={h}")
    return n


@dataclass(frozen=True)
class OCProblem:
    """A two-point boundary problem for an acceleration-controlled system.

    ``potential`` enters the running cost and shapes the dynamics through the
    Hamiltonian, and ``clearance`` measures the states' distance to the
    obstacle; the free spline has neither.
    """

    n: int
    T: float
    h: float
    q_start: Array
    qdot_start: Array
    q_end: Array
    qdot_end: Array
    potential: Potential | None = None
    clearance: Callable[[Array], Array] | None = None

    def __post_init__(self):
        for name in ("q_start", "qdot_start", "q_end", "qdot_end"):
            v = as_vector(getattr(self, name), name=name)
            if v.size != self.n:
                raise ValueError(f"{name} must have dimension {self.n}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "steps", grid_steps(self.T, self.h))
        data = (self.q_start, self.qdot_start, self.q_end, self.qdot_end)
        with np.errstate(all="ignore"):
            finite = np.isfinite(hermite_costates(*data, self.T)).all()
        if not finite:
            named = "q0=%s, v0=%s, q1=%s, v1=%s" % tuple(v.tolist() for v in data)
            raise BadDiscretization(f"the cubic guess overflows for {named} and T={self.T:g}")

    steps: int = field(init=False, default=0)


def make_free_spline(n: int, boundary, T: float, h: float) -> OCProblem:
    """Problem with running cost |u|^2 / 2 and the four endpoint conditions
    ``boundary`` = (q_start, qdot_start, q_end, qdot_end)."""
    q0, v0, q1, v1 = boundary
    return OCProblem(n=n, T=float(T), h=float(h), q_start=q0, qdot_start=v0, q_end=q1, qdot_end=v1)


def make_obstacle_problem(n: int, tau: float, r: float, center, boundary, T: float, h: float) -> OCProblem:
    """Free-spline problem plus the repulsive potential tau/(|xy-c|^2 - r^2).

    Both boundary positions must be strictly outside the obstacle.
    """
    V, clearance = obstacle_potential(tau, r, center, n)
    for label, q in (("start", boundary[0]), ("end", boundary[2])):
        if clearance(as_vector(q)) <= 0:
            raise StartInsideObstacle(f"boundary {label} position lies inside the obstacle")
    return replace(make_free_spline(n, boundary, T, h), potential=V, clearance=clearance)


def hermite_costates(q0, v0, q1, v1, T: float) -> tuple[Array, Array]:
    """Initial costates of the interpolating cubic: p1(0) = qddot(0) and
    p0(0) = -qdddot.  This is the exact free-spline solution, and serves as
    the default shooting guess elsewhere."""
    q0, v0, q1, v1 = (as_vector(z) for z in (q0, v0, q1, v1))
    d = q1 - q0
    p1 = 6.0 * d / T**2 - (4.0 * v0 + 2.0 * v1) / T
    p0 = 12.0 * d / T**3 - 6.0 * (v0 + v1) / T**2
    return p0, p1


def running_cost(traj: Trajectory, potential: Potential | None = None) -> float:
    """Quadrature of |u|^2 / 2 (+ V(q) when given) along the trajectory by
    the rectangle at each step's left state, matching the piecewise control
    reconstruction."""
    u = traj.controls
    vals = 0.5 * np.einsum("ij,ij->i", u, u)
    if potential is not None:
        vals = vals + potential.value(traj.positions())
    return float(traj.h * np.sum(vals[:-1]))


@dataclass
class ShootingResult:
    p0: Array
    p1: Array
    trajectory: Trajectory
    defect: float
    cost: float
    converged: bool
    message: str = ""


def shoot(
    prob: OCProblem,
    C: CotangentLiftedMap | None = None,
    guess: tuple | None = None,
    tol: float = 1e-10,
) -> ShootingResult:
    """Solve the two-point boundary problem by single shooting.

    Newton iteration runs on the endpoint map (p0(0), p1(0)) -> (q(T) - q_end,
    qdot(T) - qdot_end).  Its Jacobian is exact to rounding: each forward
    integration, on step blocks built once per process, records the tangent
    block of the discrete flow with respect to the initial costates, carried
    only when Newton reads it, and the last integration is kept, so a Newton
    iteration costs one integration and the returned trajectory reuses the
    converged one.  The default guess is the interpolating-cubic costate
    pair, which is exact for the free spline.  Obstacle problems damp Newton
    trials whose forward flow penetrates the obstacle; a guess whose own flow
    already penetrates raises ObstaclePenetration.

    On NonConvergence (such as tol not met in 40 Newton iterations) the
    best iterate found is returned with converged=False
    rather than raising.  A trial whose forward integration fails is a bad
    probe point (EvaluationFailure): obstacle problems damp away from it,
    and a guess whose own integration fails raises it.  A singular step
    linearization raises SingularJacobian once Newton reads its Jacobian.
    """
    n = prob.n
    if C is None:
        C = second_order_phase_map(n)
    H = second_order_hamiltonian(n, prob.potential)
    if guess is None:
        guess = hermite_costates(prob.q_start, prob.qdot_start, prob.q_end, prob.qdot_end, prob.T)
    x0 = np.concatenate([as_vector(guess[0]), as_vector(guess[1])])
    if x0.size != 2 * n:
        raise ValueError(f"costate guess must have {2 * n} entries")
    tangent0 = np.vstack([np.zeros((2 * n, 2 * n)), np.eye(2 * n)])
    last: dict[bytes, Trajectory] = {}  # the latest flow, keyed on the bits of x

    def flow(x: Array) -> Trajectory:
        key = x.tobytes()
        if key not in last:
            z0 = np.concatenate([prob.q_start, prob.qdot_start, x])
            try:
                traj = integrate(C, H, prob.h, prob.steps, z0, tangent=tangent0)
            except SingularPotential as exc:
                raise ObstaclePenetration(str(exc)) from exc
            except NonConvergence as exc:
                # A failed forward run is a bad trial costate, not a Newton
                # stall: its best iterate is a phase state, not a costate.
                raise EvaluationFailure(f"forward integration failed: {exc}") from exc
            last.clear()
            last[key] = traj
        return last[key]

    target = np.concatenate([prob.q_end, prob.qdot_end])
    residual = lambda x: flow(x).z[-1, : 2 * n] - target
    jacobian = lambda x: flow(x).tangent[: 2 * n]
    message = ""  # no message: Newton converged
    try:
        x, _ = newton_solve(residual, x0, jacobian, tol, 40, backtracking=prob.potential is not None)
    except NonConvergence as exc:
        x, message = exc.x_best, str(exc)

    traj = flow(x)
    defect = float(np.max(np.abs(traj.z[-1, : 2 * n] - target)))
    return ShootingResult(
        p0=x[:n], p1=x[n:], trajectory=traj, defect=defect, cost=running_cost(traj, prob.potential),
        converged=not message and defect <= tol, message=message,
    )


@dataclass
class SimulationReport:
    """A forward run: its trajectory, the squared clearances of its states
    (None without an obstacle), the largest energy drift |H_k - H_0| and
    the discrete cost."""

    trajectory: Trajectory
    clearances: Array | None
    h_drift: float
    cost: float

    @property
    def min_clearance(self) -> float | None:
        return None if self.clearances is None else float(np.min(self.clearances))


def simulate(
    n: int,
    h: float,
    steps: int,
    z0,
    base: DiscretizationMap | None = None,
    obstacle: tuple | None = None,
) -> SimulationReport:
    """Forward run of the second-order system on R^n from the flat phase
    state z0 = (q, qdot, p0, p1), one-step method from the lifted ``base``
    (the midpoint map when None).

    ``obstacle`` = (tau, r, center) adds the potential of
    :func:`~geodisc.hamiltonian.obstacle_potential` to the dynamics and to the running cost.
    Raises SingularPotential if the flow reaches the obstacle boundary.
    """
    V = clearance = None
    if obstacle is not None:
        V, clearance = obstacle_potential(*obstacle, n)
    C = second_order_phase_map(n, base=base)
    traj = integrate(C, second_order_hamiltonian(n, V), h, steps, z0)
    return SimulationReport(
        trajectory=traj,
        clearances=None if clearance is None else clearance(traj.positions()),
        h_drift=float(np.max(np.abs(traj.energies - traj.energies[0]))),
        cost=running_cost(traj, V),
    )

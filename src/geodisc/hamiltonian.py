"""Implicit symplectic one-step method driven by a cotangent-lifted
discretization map, specialized to second-order (acceleration-controlled)
systems.

Phase points live on T*(TQ) with Q = R^n and are ordered
(q, qdot, p0, p1); m = (q, qdot) is the tangent-bundle point and p = (p0, p1)
its conjugate momenta.  For the running cost |qddot|^2 / 2 + V(q) the
Hamiltonian is

    H(q, qdot, p0, p1) = |p1|^2 / 2 + p0 . qdot - V(q),

whose flow enforces qddot = p1 (so p1 is the control) and q'''' + grad V = 0.

One step of size h solves, with (m, p, mdot, pdot) the lifted-map preimage of
the step endpoints (z0, z1),

    mdot = h dH/dp(m, p),      pdot = -h dH/dm(m, p)

for z1 by a chord Newton iteration on the closed-form Jacobian of these
relations, inverted once and reused.  With the midpoint-family lifts this is an
implicit midpoint scheme on the phase space and conserves quadratic first
integrals to machine precision.  Differentiating the step relations at the
converged z1 (the discrete variational equation) gives the exact step
derivative dz1/dz0, which :func:`integrate` can carry along a run.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, SingularJacobian, TooFewPoints
from .lifts import CotangentLiftedMap
from .numeric import as_vector, taylor_derivatives

Array = np.ndarray
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian on T*M with closed-form partial gradients and Hessian.

    ``dim`` is the dimension of M; phase points split as (m, p) with m and p of
    that length.  ``hessian(m, p)`` is the 2 dim x 2 dim matrix of second
    derivatives in the order (m, p).
    """

    dim: int
    value: Callable[[Array, Array], float]
    grad_m: Callable[[Array, Array], Array]
    grad_p: Callable[[Array, Array], Array]
    hessian: Callable[[Array, Array], Array]


def second_order_hamiltonian(
    n: int,
    potential: Callable[[Array], float] | None = None,
    grad_potential: Callable[[Array], Array] | None = None,
    hess_potential: Callable[[Array], Array] | None = None,
) -> HamiltonianSystem:
    """Hamiltonian |p1|^2/2 + p0 . qdot - V(q) on T*(T R^n).

    ``potential``, ``grad_potential`` and ``hess_potential`` (the n x n
    Hessian of V) must be supplied together; omitting all three gives the
    free (quartically flat) system.
    """
    given = [f is not None for f in (potential, grad_potential, hess_potential)]
    if any(given) and not all(given):
        raise ValueError("supply potential, grad_potential and hess_potential together or not at all")

    def value(m: Array, p: Array) -> float:
        q, qdot = m[:n], m[n:]
        p0, p1 = p[:n], p[n:]
        v = float(potential(q)) if potential is not None else 0.0
        return 0.5 * float(p1 @ p1) + float(p0 @ qdot) - v

    def grad_m(m: Array, p: Array) -> Array:
        q = m[:n]
        out = np.empty(2 * n)
        out[:n] = -np.asarray(grad_potential(q), dtype=float) if grad_potential is not None else 0.0
        out[n:] = p[:n]
        return out

    def grad_p(m: Array, p: Array) -> Array:
        out = np.empty(2 * n)
        out[:n] = m[n:]
        out[n:] = p[n:]
        return out

    # Coordinates (q, qdot, p0, p1): d2H/dqdot dp0 = I and d2H/dp1^2 = I
    # everywhere; only the q block, -Hess V, depends on the point.
    eye = np.eye(n)
    free_hessian = np.zeros((4 * n, 4 * n))
    free_hessian[n : 2 * n, 2 * n : 3 * n] = eye
    free_hessian[2 * n : 3 * n, n : 2 * n] = eye
    free_hessian[3 * n :, 3 * n :] = eye

    def hessian(m: Array, p: Array) -> Array:
        out = free_hessian.copy()
        if hess_potential is not None:
            out[:n, :n] = -np.asarray(hess_potential(m[:n]), dtype=float)
        return out

    return HamiltonianSystem(dim=2 * n, value=value, grad_m=grad_m, grad_p=grad_p, hessian=hessian)


@dataclass(frozen=True)
class SecondOrderState:
    """A phase point (q, qdot, p0, p1) of a second-order system."""

    q: Array
    qdot: Array
    p0: Array
    p1: Array

    def __post_init__(self):
        for name in ("q", "qdot", "p0", "p1"):
            object.__setattr__(self, name, as_vector(getattr(self, name), name=name))
        n = self.q.size
        if any(getattr(self, name).size != n for name in ("qdot", "p0", "p1")):
            raise ValueError("all four components must share one dimension")

    @property
    def n(self) -> int:
        return self.q.size

    def flat(self) -> Array:
        return np.concatenate([self.q, self.qdot, self.p0, self.p1])

    @classmethod
    def from_flat(cls, z, n: int) -> "SecondOrderState":
        z = np.asarray(z, dtype=float)
        if z.size != 4 * n:
            raise ValueError(f"expected {4 * n} entries, got {z.size}")
        return cls(z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :])


class _StateView(Sequence):
    """The rows of a trajectory's state array as :class:`SecondOrderState`
    objects, built on access."""

    def __init__(self, z: Array):
        self._z = z

    def __len__(self) -> int:
        return self._z.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return SecondOrderState.from_flat(self._z[k], self._z.shape[1] // 4)


@dataclass
class Trajectory:
    """States produced by :func:`integrate`: row k of the (steps + 1) x 4n
    array ``z`` is the flat state (q, qdot, p0, p1) at time k h, with its
    energy in ``energies[k]``.

    ``states``, ``controls`` (the control of the second-order problem is
    u = qddot = p1) and ``positions()`` are views of ``z``.  ``tangent`` is
    the final state's tangent block d z_N / d z_0 . T_0 when :func:`integrate`
    was given an initial block T_0, else None."""

    h: float
    z: Array
    energies: Array
    tangent: Array | None = None

    @property
    def n(self) -> int:
        return self.z.shape[1] // 4

    @property
    def steps(self) -> int:
        return self.z.shape[0] - 1

    @property
    def times(self) -> Array:
        return self.h * np.arange(self.z.shape[0])

    @property
    def states(self) -> Sequence[SecondOrderState]:
        return _StateView(self.z)

    @property
    def controls(self) -> Array:
        return self.z[:, 3 * self.n :]

    def positions(self) -> Array:
        return self.z[:, : self.n]


def trajectory_from_positions(q_samples, h: float) -> Trajectory:
    """Wrap raw position samples as a Trajectory with zeroed momenta, mostly
    for residual postprocessing of externally produced curves."""
    q = np.asarray(q_samples, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    z = np.zeros((q.shape[0], 4 * q.shape[1]))
    z[:, : q.shape[1]] = q
    return Trajectory(h=float(h), z=z, energies=np.zeros(q.shape[0]))


# ---------------------------------------------------------------------------
# Legendre transform of second-order Lagrangians


def _partial_gradient(L, args: tuple[Array, ...], which: int) -> Array:
    """Gradient of L with respect to one vector argument, by central differences."""
    x = args[which]
    eps = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    g = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = eps
        hi = list(args)
        lo = list(args)
        hi[which] = x + bump
        lo[which] = x - bump
        g[i] = (float(L(*hi)) - float(L(*lo))) / (2 * eps)
    return g


def legendre_second_order(L) -> Callable[..., SecondOrderState]:
    """Momenta of a second-order Lagrangian L(q, qdot, qddot).

    Returns a function of the third-order jet (q, qdot, qddot, qdddot) giving
    the state with

        p1 = dL/dqddot,
        p0 = dL/dqdot - d/dt (dL/dqddot),

    the time derivative taken along the jet.  Derivatives of the black-box L
    come from finite differences.
    """

    def transform(q, qdot, qddot, qdddot) -> SecondOrderState:
        q, qdot, qddot, qdddot = (as_vector(z) for z in (q, qdot, qddot, qdddot))

        def p1_along(t: float) -> Array:
            a = q + t * qdot + 0.5 * t * t * qddot + t**3 / 6.0 * qdddot
            b = qdot + t * qddot + 0.5 * t * t * qdddot
            c = qddot + t * qdddot
            return _partial_gradient(L, (a, b, c), 2)

        p1, dp1 = taylor_derivatives(p1_along, 0.0, 1)
        p0 = _partial_gradient(L, (q, qdot, qddot), 1) - dp1
        return SecondOrderState(q, qdot, p0, p1)

    return transform


def lagrangian_energy(L, q, qdot, qddot, qdddot) -> float:
    """Energy qdot . p0 + qddot . p1 - L of a second-order Lagrangian along a
    third-order jet."""
    state = legendre_second_order(L)(q, qdot, qddot, qdddot)
    return float(state.qdot @ state.p0) + float(np.asarray(qddot, dtype=float) @ state.p1) - float(
        L(state.q, state.qdot, as_vector(qddot))
    )


# ---------------------------------------------------------------------------
# the one-step method


def step_residual(C: CotangentLiftedMap, H: HamiltonianSystem, h: float, z0) -> Callable[[Array], Array]:
    """Residual in the unknown right endpoint z1 whose root defines one step.

    z0 is checked here, once per step; the residual evaluates the unchecked
    flat inverse of the lifted map."""
    d = C.dim
    if H.dim != d:
        raise ValueError(f"Hamiltonian lives on T*R^{H.dim} but the map expects dimension {d}")
    z0 = as_vector(z0, name="z0")
    if z0.size != 2 * d:
        raise ValueError(f"phase points have {2 * d} coordinates, got {z0.size}")

    def residual(z1: Array) -> Array:
        w = C.inverse_flat(np.concatenate([z0, z1]))
        m, p = w[:d], w[d : 2 * d]
        return np.concatenate([w[2 * d : 3 * d] - h * H.grad_p(m, p), w[3 * d :] + h * H.grad_m(m, p)])

    return residual


def _step_jacobian(C: CotangentLiftedMap, H: HamiltonianSystem, h: float, z0: Array, z1: Array) -> Array:
    """d R / d(z0, z1) of the step residual R at (z0, z1), in closed form.

    With (m, p, mdot, pdot) the lifted-map preimage of (z0, z1), dR/d(m, p,
    mdot, pdot) holds -h d2H/dp d(m, p) and h d2H/dm d(m, p) beside the
    identity on (mdot, pdot), and the chain rule goes through the lifted
    map's inverse Jacobian.  Its z1 block is the chord Jacobian.
    """
    d = C.dim
    y = np.concatenate([z0, z1])
    w = C.inverse_flat(y)
    K = C.inverse_jacobian_flat(y)
    S = H.hessian(w[:d], w[d : 2 * d])
    return K[2 * d :] + np.concatenate([-h * S[d:], h * S[:d]]) @ K[: 2 * d]


def _inverse(J: Array) -> Array:
    try:
        return np.linalg.inv(J)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian("one-step linearization is singular") from exc


def _chord_newton(residual, jacobian, x0: Array, J_inv: Array | None, tol: float, max_iter: int):
    """Newton iteration reusing one inverted Jacobian, refreshed only on stalls.

    ``jacobian(x)`` is the residual's Jacobian at x; it is inverted once per
    refresh and applied by matrix-vector products.  ``J_inv`` is a carried
    inverse (None to start from the Jacobian at x0).  Returns (solution,
    inverse_used) so callers integrating many steps can carry it across
    steps.  The tolerance never goes below 8 eps ||x0||_inf, the rounding
    level of the state (for tol = 1e-12 that floor takes over above
    ||x0||_inf ~ 560).
    """
    tol = max(tol, 8.0 * _EPS * float(np.abs(x0).max()))
    x = x0
    r = residual(x)
    norm = float(np.abs(r).max())
    best_x, best_norm = x, norm
    refreshed = J_inv is None
    if J_inv is None:
        J_inv = _inverse(jacobian(x))
    for it in range(max_iter):
        if norm <= tol:
            # One last correction so long integrations are not limited by tol.
            return x - J_inv @ r, J_inv
        x = x - J_inv @ r
        r = residual(x)
        new_norm = float(np.abs(r).max())
        if new_norm < best_norm:
            best_x, best_norm = x, new_norm
        if new_norm > 0.5 * norm and new_norm > tol and not refreshed:
            # Insufficient contraction: the carried Jacobian is stale.
            J_inv = _inverse(jacobian(x))
            refreshed = True
        norm = new_norm
    if norm <= tol:
        return x - J_inv @ r, J_inv
    raise NonConvergence(
        f"one-step solve stalled at residual {best_norm:.3e} (tol {tol:.1e})",
        x_best=best_x.copy(),
        residual_norm=best_norm,
        iterations=max_iter,
    )


def symplectic_step(
    C: CotangentLiftedMap,
    H: HamiltonianSystem,
    h: float,
    z0,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> Array:
    """Advance one step of size h from the phase point z0 (flat, length 4n).

    The Newton iteration starts from z1 = z0 and reuses the closed-form
    Jacobian of the residual at that point (exact for the affine systems
    arising from midpoint-family lifts), inverted once."""
    z0 = as_vector(z0, name="z0")
    residual = step_residual(C, H, h, z0)
    chord = lambda z1: _step_jacobian(C, H, h, z0, z1)[:, 2 * C.dim :]
    z1, _ = _chord_newton(residual, chord, z0, None, tol, max_iter)
    return z1


def integrate(
    C: CotangentLiftedMap,
    H: HamiltonianSystem,
    h: float,
    steps: int,
    z0,
    tol: float = 1e-12,
    max_iter: int = 50,
    tangent: Array | None = None,
) -> Trajectory:
    """Run ``steps`` steps of the one-step method, recording energy and control
    at every state.

    The inverse of the residual's closed-form Jacobian is carried across
    steps and refreshed only when a step stalls, which makes the affine (free
    and nearly free) cases cost one inversion per run and matrix-vector
    products per step.

    ``tangent``, an optional 4n x k block T_0 of directions at z0, is carried
    through the discrete variational equation T_{k+1} = (dz_{k+1}/dz_k) T_k
    and returned as ``Trajectory.tangent``; the states are the same with or
    without it.  A step that stalls raises NonConvergence naming its index k
    and its start time k h.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    d = C.dim
    if d % 2 != 0:
        raise ValueError("second-order trajectories need an even-dimensional base")
    z0 = as_vector(z0, name="z0") if not isinstance(z0, SecondOrderState) else z0.flat()
    if tangent is not None:
        tangent = np.asarray(tangent, dtype=float)
        if tangent.ndim != 2 or tangent.shape[0] != 2 * d:
            raise ValueError(f"tangent must be a matrix with {2 * d} rows, got shape {tangent.shape}")
    z = np.empty((steps + 1, z0.size))
    z[0] = z0
    energies = np.empty(steps + 1)
    energies[0] = H.value(z0[:d], z0[d:])
    J_inv = None
    for k in range(steps):
        zk = z[k]
        residual = step_residual(C, H, h, zk)
        chord = lambda z1, zk=zk: _step_jacobian(C, H, h, zk, z1)[:, 2 * d :]
        try:
            z1, J_inv = _chord_newton(residual, chord, zk, J_inv, tol, max_iter)
        except NonConvergence:
            # One retry with a fresh Jacobian before giving up.
            try:
                z1, J_inv = _chord_newton(residual, chord, zk, None, tol, max_iter)
            except NonConvergence as exc:
                raise NonConvergence(
                    f"step {k} at t = {k * h:.6g}: {exc}",
                    x_best=exc.x_best,
                    residual_norm=exc.residual_norm,
                    iterations=exc.iterations,
                ) from exc
        if tangent is not None:
            A = _step_jacobian(C, H, h, zk, z1)
            try:
                tangent = -np.linalg.solve(A[:, 2 * d :], A[:, : 2 * d] @ tangent)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian("one-step linearization is singular at the converged step") from exc
        z[k + 1] = z1
        energies[k + 1] = H.value(z1[:d], z1[d:])
    return Trajectory(h=h, z=z, energies=energies, tangent=tangent)


def fourth_order_residual(traj: Trajectory, grad_potential=None) -> Array:
    """Infinity norms of the centered fourth-difference defect
    (q_{k-2} - 4 q_{k-1} + 6 q_k - 4 q_{k+1} + q_{k+2})/h^4 + grad V(q_k)
    at the interior nodes k = 2 .. N-2."""
    q = traj.positions()
    if q.shape[0] < 5:
        raise TooFewPoints("need at least five states for a fourth difference")
    h4 = traj.h**4
    out = []
    for k in range(2, q.shape[0] - 2):
        r = (q[k - 2] - 4 * q[k - 1] + 6 * q[k] - 4 * q[k + 1] + q[k + 2]) / h4
        if grad_potential is not None:
            r = r + np.asarray(grad_potential(q[k]), dtype=float)
        out.append(float(np.max(np.abs(r))))
    return np.asarray(out)

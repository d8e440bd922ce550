"""Implicit symplectic one-step method driven by a cotangent-lifted
discretization map, specialized to second-order (acceleration-controlled)
systems.

Phase points live on T*(TQ) with Q = R^n and are ordered
(q, qdot, p0, p1); m = (q, qdot) is the tangent-bundle point and p = (p0, p1)
its conjugate momenta.  For the running cost |qddot|^2 / 2 + V(q) the
Hamiltonian is

    H(q, qdot, p0, p1) = |p1|^2 / 2 + p0 . qdot - V(q),

whose flow enforces qddot = p1 (so p1 is the control) and q'''' + grad V = 0.
With x = (m, p) it is x . S0 x / 2 + U(q): a constant quadratic part and the
remainder U = -V (see :class:`HamiltonianSystem`).

One step of size h solves, with w = (m, p, mdot, pdot) the lifted-map
preimage of the step endpoints (z0, z1) and JJ the canonical symplectic
matrix, the relations (mdot, pdot) = h JJ grad H(m, p), that is

    R(z1) = L w - h JJ grad U(m, p) = 0,      L = [-h JJ S0 | I],

for z1 by a chord Newton iteration on the closed-form Jacobian of R, inverted
once and reused.  When the lifted map's inverse is affine, w = K (z0, z1) + k
(every constant-Jacobian base), L is folded into it once per run: with
A0 = L K0, A1 = L K1 and c = L k, a step computes b = A0 z0 + c once, a free
residual is A1 z1 + b, and U adds h grad U (= -h grad V) on the n p0 rows.
Any other base takes w from the lifted map's inverse in the same formula.
With the midpoint-family lifts this is an implicit midpoint scheme on the
phase space and conserves quadratic first integrals to machine precision.
Differentiating the step relations at the converged z1 (the discrete
variational equation) gives the exact step derivative dz1/dz0, which
:func:`integrate` can carry along a run.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence, SingularJacobian, TooFewPoints
from .lifts import CotangentLiftedMap, canonical_symplectic_matrix
from .numeric import as_vector, taylor_derivatives

Array = np.ndarray
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A Hamiltonian H(x) = x . S0 x / 2 + U(q) on T*M, x = (m, p).

    ``dim`` is the dimension of M; phase points split as (m, p) with m and p
    of that length, and q = m[:dim // 2] is the position half of
    m = (q, qdot).  ``S0`` is the constant symmetric 2 dim x 2 dim Hessian of
    the quadratic part, stored read-only.  The optional remainder U of q
    comes with its closed-form gradient and Hessian; for
    :func:`second_order_hamiltonian` it is -V(q).  :meth:`values` evaluates
    H on rows of phase points and :meth:`value` on one; :meth:`gradient`
    (over x) and :meth:`hessian` (in the order (m, p)) come from the same
    parts.  The one-step method reads S0 and the remainder directly.
    """

    dim: int
    S0: Array
    remainder: Callable[[Array], float] | None = None
    grad_remainder: Callable[[Array], Array] | None = None
    hess_remainder: Callable[[Array], Array] | None = None

    def __post_init__(self):
        S0 = np.array(self.S0, dtype=float)
        if S0.shape != (2 * self.dim, 2 * self.dim):
            raise ValueError(f"S0 must be {2 * self.dim} x {2 * self.dim}, got shape {S0.shape}")
        S0.setflags(write=False)
        object.__setattr__(self, "S0", S0)
        given = [f is not None for f in (self.remainder, self.grad_remainder, self.hess_remainder)]
        if any(given) and not all(given):
            raise ValueError("supply remainder, grad_remainder and hess_remainder together or not at all")

    def values(self, x: Array) -> Array:
        """H at each row of the 2-D array x of phase points (m, p)."""
        v = 0.5 * np.sum((x @ self.S0) * x, axis=1)
        if self.remainder is not None:
            v += [self.remainder(q) for q in x[:, : self.dim // 2]]
        return v

    def value(self, m: Array, p: Array) -> float:
        return float(self.values(np.concatenate([m, p])[None, :])[0])

    def gradient(self, m: Array, p: Array) -> Array:
        x = np.concatenate([m, p])
        g = self.S0 @ x
        if self.grad_remainder is not None:
            k = self.dim // 2
            g[:k] += self.grad_remainder(x[:k])
        return g

    def hessian(self, m: Array, p: Array) -> Array:
        S = self.S0.copy()
        if self.hess_remainder is not None:
            k = self.dim // 2
            S[:k, :k] += self.hess_remainder(np.asarray(m, dtype=float)[:k])
        return S


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
    # Coordinates (q, qdot, p0, p1): d2H/dqdot dp0 = I and d2H/dp1^2 = I
    # everywhere; only the q block, -Hess V, depends on the point.
    eye = np.eye(n)
    S0 = np.zeros((4 * n, 4 * n))
    S0[n : 2 * n, 2 * n : 3 * n] = eye
    S0[2 * n : 3 * n, n : 2 * n] = eye
    S0[3 * n :, 3 * n :] = eye
    if potential is None:
        return HamiltonianSystem(dim=2 * n, S0=S0)
    return HamiltonianSystem(
        dim=2 * n,
        S0=S0,
        remainder=lambda q: -float(potential(q)),
        grad_remainder=lambda q: -np.asarray(grad_potential(q), dtype=float),
        hess_remainder=lambda q: -np.asarray(hess_potential(q), dtype=float),
    )


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


class _StepBlocks:
    """The step relations of one (C, H, h) as matrices, built once per run.

    ``L`` = [-h JJ S0 | I] maps the lifted-map preimage w to the quadratic
    part of the residual.  When C's inverse is affine, y -> K y + k, L is
    folded into it: ``LK`` = L K with column halves ``A0``, ``A1`` (the z0 and
    z1 blocks), ``c`` = L k, and the q rows ``Kq`` = K[:n], ``kq`` = k[:n] of
    the preimage (n = d / 2, the remainder's coordinates), again split into
    ``Kq0``, ``Kq1``.  For any other C these are None.
    """

    def __init__(self, C: CotangentLiftedMap, H: HamiltonianSystem, h: float):
        d = C.dim
        if H.dim != d:
            raise ValueError(f"Hamiltonian lives on T*R^{H.dim} but the map expects dimension {d}")
        self.L = np.hstack([-h * (canonical_symplectic_matrix(d) @ H.S0), np.eye(2 * d)])
        self.LK = self.A0 = self.A1 = self.c = self.Kq = self.Kq0 = self.Kq1 = self.kq = None
        if C.affine_inverse is not None:
            K, k = C.affine_inverse
            n = d // 2
            self.LK, self.c, self.Kq, self.kq = self.L @ K, self.L @ k, K[:n], k[:n]
            for a in (self.L, self.LK, self.c):
                a.setflags(write=False)
            self.A0, self.A1 = self.LK[:, : 2 * d], self.LK[:, 2 * d :]
            self.Kq0, self.Kq1 = self.Kq[:, : 2 * d], self.Kq[:, 2 * d :]


def step_residual(
    C: CotangentLiftedMap, H: HamiltonianSystem, h: float, z0, *, blocks: _StepBlocks | None = None
) -> Callable[[Array], Array]:
    """Residual R(z1) = L w - h JJ grad U(m, p) whose root defines one step.

    z0 is checked here, once per step; the residual evaluates the folded
    blocks, or the unchecked flat inverse of the lifted map when that is not
    affine.  ``blocks`` passes the matrices built once per run for this
    (C, H, h); without it they are built here."""
    if blocks is None:
        blocks = _StepBlocks(C, H, h)
    d = C.dim
    z0 = as_vector(z0, name="z0")
    if z0.size != 2 * d:
        raise ValueError(f"phase points have {2 * d} coordinates, got {z0.size}")
    n, grad = d // 2, H.grad_remainder
    rows = slice(d, d + n)  # the pdot rows of q: the only nonzero rows of -h JJ grad U

    if blocks.LK is None:
        L = blocks.L

        def residual(z1: Array) -> Array:
            w = C.inverse_flat(np.concatenate([z0, z1]))
            R = L @ w
            if grad is not None:
                R[rows] += h * grad(w[:n])
            return R

        return residual

    A1, Kq1 = blocks.A1, blocks.Kq1
    b = blocks.A0 @ z0 + blocks.c
    if grad is None:
        return lambda z1: A1 @ z1 + b
    bq = blocks.Kq0 @ z0 + blocks.kq

    def residual(z1: Array) -> Array:
        R = A1 @ z1 + b
        R[rows] += h * grad(Kq1 @ z1 + bq)
        return R

    return residual


def _step_jacobian(
    C: CotangentLiftedMap,
    H: HamiltonianSystem,
    h: float,
    z0: Array,
    z1: Array,
    *,
    blocks: _StepBlocks | None = None,
) -> Array:
    """d R / d(z0, z1) of the step residual R at (z0, z1), in closed form.

    It is L K, with K the lifted map's inverse Jacobian, plus the rank-n term
    h Hess U(q) K[:n] (n = d / 2) on the pdot rows of q (the p0 rows of the
    second-order system).  Its z1 block is the chord Jacobian.
    With an affine inverse L K is the prebuilt ``blocks.LK`` (returned
    read-only when there is no remainder)."""
    if blocks is None:
        blocks = _StepBlocks(C, H, h)
    hess, n = H.hess_remainder, C.dim // 2
    y = np.concatenate([z0, z1])
    if blocks.LK is None:
        K = C.inverse_jacobian_flat(y)
        A, Kq = blocks.L @ K, K[:n]
        q = None if hess is None else C.inverse_flat(y)[:n]
    else:
        A, Kq = blocks.LK, blocks.Kq
        q = None if hess is None else Kq @ y + blocks.kq
    if hess is None:
        return A
    A = A.copy()
    A[C.dim : C.dim + n] += h * (hess(q) @ Kq)
    return A


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
    ||x0||_inf ~ 560).  The first residual that is not finite ends the
    attempt: iterating from it would only spread inf and nan.
    """
    tol = max(tol, 8.0 * _EPS * float(np.abs(x0).max()))
    x = x0
    r = residual(x)
    norm = float(np.abs(r).max())
    best_x, best_norm = x, norm

    def failed(reason: str, iterations: int) -> NonConvergence:
        return NonConvergence(
            f"one-step solve {reason} (tol {tol:.1e})",
            x_best=best_x.copy(),
            residual_norm=best_norm,
            iterations=iterations,
        )

    if not math.isfinite(norm):
        raise failed("met a non-finite residual at its starting point", 0)
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
        if not math.isfinite(new_norm):
            raise failed(f"met a non-finite residual at iteration {it + 1}, best residual {best_norm:.3e}", it + 1)
        if new_norm < best_norm:
            best_x, best_norm = x, new_norm
        if new_norm > 0.5 * norm and new_norm > tol and not refreshed:
            # Insufficient contraction: the carried Jacobian is stale.
            J_inv = _inverse(jacobian(x))
            refreshed = True
        norm = new_norm
    if norm <= tol:
        return x - J_inv @ r, J_inv
    raise failed(f"stalled at residual {best_norm:.3e}", max_iter)


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
    blocks = _StepBlocks(C, H, h)
    residual = step_residual(C, H, h, z0, blocks=blocks)
    chord = lambda z1: _step_jacobian(C, H, h, z0, z1, blocks=blocks)[:, 2 * C.dim :]
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

    The step matrices are built once per call.  The inverse of the
    residual's closed-form Jacobian is carried across steps and refreshed
    only when a step stalls, which makes the affine (free and nearly free)
    cases cost one inversion per run and matrix-vector products per step.
    The energies are evaluated once over all states after the last step.

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
    blocks = _StepBlocks(C, H, h)
    z = np.empty((steps + 1, z0.size))
    z[0] = z0
    energies = np.empty(steps + 1)  # beside z: allocated after the loop it raised peak memory
    J_inv = None
    for k in range(steps):
        zk = z[k]
        residual = step_residual(C, H, h, zk, blocks=blocks)
        chord = lambda z1, zk=zk: _step_jacobian(C, H, h, zk, z1, blocks=blocks)[:, 2 * d :]
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
            A = _step_jacobian(C, H, h, zk, z1, blocks=blocks)
            try:
                tangent = -np.linalg.solve(A[:, 2 * d :], A[:, : 2 * d] @ tangent)
            except np.linalg.LinAlgError as exc:
                raise SingularJacobian("one-step linearization is singular at the converged step") from exc
        z[k + 1] = z1
    for i in range(0, steps + 1, 256):  # blocks of rows: no temporary the size of z
        energies[i : i + 256] = H.values(z[i : i + 256])
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

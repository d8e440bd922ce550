"""Implicit symplectic one-step method driven by a cotangent-lifted
discretization map, specialized to second-order (acceleration-controlled)
systems.

Phase points live on T*(TQ) with Q = R^n and are ordered
(q, qdot, p0, p1); m = (q, qdot) is the tangent-bundle point and p = (p0, p1)
its conjugate momenta.  For the running cost |qddot|^2 / 2 + V(q) the
Hamiltonian is

    H(q, qdot, p0, p1) = |p1|^2 / 2 + p0 . qdot - V(q),

whose flow enforces qddot = p1 (so p1 is the control) and q'''' + grad V = 0.
With x = (m, p) it is x . S0 x / 2 - V(q): a constant quadratic part and the
:class:`Potential` V (see :class:`HamiltonianSystem`).  The lifted map C
lives on T*M, so ``C.dim`` = 2 ``H.dim`` = 4n, the length of a phase point.

One step of size h solves, with w = (m, p, mdot, pdot) the lifted-map
preimage of the step endpoints (z0, z1) and JJ the canonical symplectic
matrix, the relations (mdot, pdot) = h JJ grad H(m, p), that is

    R(z1) = L w + h JJ grad V(q) = 0,      L = [-h JJ S0 | I],

for z1.  When the lifted map's inverse is linear, w = K (z0, z1) (every
base with an ``affine`` form, which has no offset), L is folded into it once
per (C, S0, h): with A0 = L K0 and A1 = L K1, a step computes b = A0 z0 once,
a free residual is A1 z1 + b, and V adds -h grad V on the n p0 rows.
Any other base takes w from the lifted map's inverse in the same formula.
An affine step is linear but for grad V at one preimage q: it has n
unknowns, not 4n (:attr:`_StepBlocks.one_step`).

One step from each row of starts (k, 4n) is :func:`symplectic_step`, a run
:func:`integrate`.  On an affine lifted map both solve steps in those n
unknowns by one fixed-point kernel, :func:`_window`, and check each against
its full residual; a step that fails goes to the chord iteration,
:func:`geodisc.numeric.newton_solve` on its chord policy, which also takes
step 0 of every run and every step on a non-affine lifted map, one start at
a time: a row of :func:`symplectic_step` that fails takes a one-start call.  With the
midpoint-family lifts this is an implicit midpoint scheme, conserving
quadratic first integrals to rounding; the discrete variational equation
gives the exact step derivative dz1/dz0, which :func:`integrate`
can carry along a run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable

import numpy as np

from .errors import GeodiscError, NonConvergence, SingularJacobian, SingularPotential
from .lifts import CotangentLiftedMap, canonical_symplectic_matrix
from .numeric import as_vector, matvec, newton_solve, read_only

Array = np.ndarray
_EPS = float(np.finfo(float).eps)
#: Potential denominators at or below this are treated as "on the obstacle".
SINGULAR_CLEARANCE = 1e-9


@dataclass(frozen=True)
class Potential:
    """A potential V(q) with its closed-form gradient and n x n Hessian.

    Each takes points q of shape (..., n), one per row (a 1-D q is one
    point), and returns one value, gradient (..., n) or Hessian (..., n, n)
    per point."""

    value: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hess: Callable[[Array], Array]


def obstacle_potential(tau: float, r: float, center, n: int) -> tuple[Potential, Callable[[Array], Array]]:
    """Repulsive potential tau / (|xy - center|^2 - r^2) on the first two
    coordinates, with closed-form gradient and Hessian and a clearance function.

    Returns (V, clearance): the :class:`Potential` V and
    clearance(q) = |xy - center|^2 - r^2, which like V takes points q of
    shape (..., n), one per row, and returns one value per point.  V's
    value, gradient and Hessian raise SingularPotential once a clearance
    drops to ~0, so a caller can never see a nonpositive clearance from a
    state that evaluated cleanly; a nan clearance passes, for the caller's
    own finiteness checks to report.
    """
    if n < 2:
        raise ValueError("obstacle potential needs at least coordinates (x, y)")
    if r <= 0:
        raise ValueError("obstacle radius must be positive")
    c = as_vector(center, name="center")
    if c.size != 2:
        raise ValueError("obstacle center must have exactly two components")

    def offsets(q) -> tuple[Array, Array]:
        d = np.asarray(q, dtype=float)[..., :2] - c
        x, y = d[..., 0], d[..., 1]
        return d, x * x + y * y - r * r

    def clearance(q):
        return offsets(q)[1]

    def checked(q) -> tuple[Array, Array]:
        d, s = offsets(q)
        inside = s <= SINGULAR_CLEARANCE
        if inside.any() if inside.ndim else inside:  # one point: the plain test is the cheap one
            worst = float(np.min(np.where(inside, s, np.inf)))
            raise SingularPotential(f"state at squared clearance {worst:.3e} is on or inside the obstacle")
        return d, s

    def V(q):
        return tau / checked(q)[1]

    def gradV(q) -> Array:
        d, s = checked(q)
        g = np.zeros(d.shape[:-1] + (n,))
        g[..., :2] = d * (-2.0 * tau / (s * s))[..., None]
        return g

    eye2 = np.eye(2)

    def hessV(q) -> Array:
        # -2 tau / s^2 I + 8 tau d d^T / s^3 on the (x, y) block, d = xy - center.
        d, s = checked(q)
        a, b = 8.0 * tau / (s * s * s), 2.0 * tau / (s * s)
        out = np.zeros(d.shape[:-1] + (n, n))
        out[..., :2, :2] = a[..., None, None] * (d[..., :, None] * d[..., None, :]) - b[..., None, None] * eye2
        return out

    return Potential(V, gradV, hessV), clearance


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """A Hamiltonian H(x) = x . S0 x / 2 - V(q) on T*M, x = (m, p).

    ``dim`` is the dimension of M; phase points split as (m, p) with m and p
    of that length, and q = m[:dim // 2] is the position half of
    m = (q, qdot).  ``S0`` is the constant symmetric 2 dim x 2 dim Hessian of
    the quadratic part, stored read-only.  ``potential`` is the optional V
    of q (None: V = 0).  :meth:`values` evaluates H on rows of phase points.
    The one-step method reads S0 and the potential directly.
    """

    dim: int
    S0: Array
    potential: Potential | None = None

    def __post_init__(self):
        S0 = np.array(self.S0, dtype=float)
        if S0.shape != (2 * self.dim, 2 * self.dim):
            raise ValueError(f"S0 must be {2 * self.dim} x {2 * self.dim}, got shape {S0.shape}")
        S0.setflags(write=False)
        object.__setattr__(self, "S0", S0)

    def values(self, x: Array) -> Array:
        """H at each phase point (m, p) of x, shape (..., 2 dim)."""
        v = 0.5 * np.sum((x @ self.S0) * x, axis=-1)
        if self.potential is not None:
            v = v - self.potential.value(x[..., : self.dim // 2])
        return v


def second_order_hamiltonian(n: int, potential: Potential | None = None) -> HamiltonianSystem:
    """Hamiltonian |p1|^2/2 + p0 . qdot - V(q) on T*(T R^n); without a
    ``potential`` the free (quartically flat) system."""
    # Coordinates (q, qdot, p0, p1): d2H/dqdot dp0 = I and d2H/dp1^2 = I
    # everywhere; only the q block, -Hess V, depends on the point.
    eye = np.eye(n)
    S0 = np.zeros((4 * n, 4 * n))
    S0[n : 2 * n, 2 * n : 3 * n] = eye
    S0[2 * n : 3 * n, n : 2 * n] = eye
    S0[3 * n :, 3 * n :] = eye
    return HamiltonianSystem(dim=2 * n, S0=S0, potential=potential)


@dataclass
class Trajectory:
    """States produced by :func:`integrate`: row k of the (steps + 1) x 4n
    array ``z`` is the flat state (q, qdot, p0, p1) at time k h, with its
    energy in ``energies[k]``.

    ``controls`` (the control of the second-order problem is u = qddot = p1)
    and ``positions()`` are views of ``z``.  ``tangent`` is the final
    state's tangent block d z_N / d z_0 . T_0 when :func:`integrate` was
    given an initial block T_0, else None.  It is evaluated on first read by
    ``linearization``, which :func:`integrate` records, and kept; condensed
    steps enter it as a pairwise product tree, not one step at a time."""

    h: float
    z: Array
    energies: Array
    linearization: Callable[[], Array] | None = field(default=None, repr=False)

    @cached_property
    def tangent(self) -> Array | None:
        return None if self.linearization is None else self.linearization()

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
    def controls(self) -> Array:
        return self.z[:, 3 * self.n :]

    def positions(self) -> Array:
        return self.z[:, : self.n]


# ---------------------------------------------------------------------------
# the one-step method


class _StepBlocks:
    """The step relations of one (C, dim, S0, potential or not, h) as matrices, all they read of a Hamiltonian
    (S0 by its bytes): looked up by :func:`_step_blocks`, built once for the few latest keys, and read-only.

    ``L`` = [-h JJ S0 | I] maps the lifted-map preimage w to the quadratic
    part of the residual.  When C's inverse is linear, y -> K y, L is folded
    into it: ``LK`` = L K with column halves ``A0``, ``A1`` (the z0 and z1
    blocks), and the q rows of the preimage (``n`` = d / 2, the potential's
    coordinates), views ``Kq0``, ``Kq1`` of K[:n].  For any other C these
    are None.  ``condensed`` holds the relation solved for the rows and
    preimages of ``window`` steps: _WINDOW with a potential, _ROWS without
    one, where a window has no fixed point and is one product; ``one_step``
    holds the same terms for one step.
    """

    def __init__(self, C: CotangentLiftedMap, dim: int, S0: bytes, potential: bool, h: float):
        d = C.dim // 2
        if dim != d:
            raise ValueError(f"Hamiltonian lives on T*R^{dim} but the map expects dimension {d}")
        self.h, self.window, self.n = h, _WINDOW if potential else _ROWS, d // 2
        S0 = np.frombuffer(S0).reshape(2 * d, 2 * d)
        (self.L,) = read_only(np.hstack([-h * (canonical_symplectic_matrix(d) @ S0), np.eye(2 * d)]))
        self.LK = self.A0 = self.A1 = self.Kq0 = self.Kq1 = None
        if C.affine is not None:
            K = C.affine[1]
            (self.LK,) = read_only(self.L @ K)
            self.A0, self.A1 = self.LK[:, : 2 * d], self.LK[:, 2 * d :]
            self.Kq0, self.Kq1 = K[: self.n, : 2 * d], K[: self.n, 2 * d :]

    @cached_property
    def one_step(self) -> tuple[Array, ...]:
        """For a linear inverse, the folded step relation
        A0 z0 + A1 z1 - h E grad V(q) = 0 (E the n p0 rows,
        q = Kq0 z0 + Kq1 z1) solved for z1 and q with J = A1^-1:

            z1 = z0 + D z0 + h W grad V(q),    q = Gq z0 + h P grad V(q),

        D = M - I = -J (A0 + A1), W = J E, Gq = Kq0 + Kq1 M and P = Kq1 W.
        Returns (D, hW, Gq, hP), built on first use: the terms (Z, T, G, K)
        of :attr:`condensed` at b = 1."""
        J = _solve(self.A1)
        d, D = self.A1.shape[0], -(J @ (self.A0 + self.A1))
        M, hW = np.eye(d) + D, self.h * J[:, d // 2 : d // 2 + self.n]
        return read_only(D, hW, self.Kq0 + self.Kq1 @ M, self.Kq1 @ hW)

    @cached_property
    def condensed(self) -> tuple[Array, ...]:
        """The relation of :attr:`one_step` over a window of B = _WINDOW steps:
        from z_k, with g_i = grad V(q_{k+i}) stacked as g, the rows and their
        preimages are

            z_{k+1..k+B} = z_k + Z z_k + T g,    q_{k..k+B-1} = G z_k + K g:

        Z stacks M^j - I (j = 1 .. B), G stacks Gq M^j (j < B), and T and K
        are block lower-triangular Toeplitz in M^j hW and in Gq M^(j-1) hW
        with hP on K's diagonal; b < B steps take the leading rows and
        columns.  Z goes on to j = ``window`` (without a potential a window
        is 256 steps and only Z is read).  Returns (Z, T, G, K, hW, hP, M,
        Gq), built on first use.  The first B powers are built as M^j - I
        from the O(h) increment D, so their rounding scales with h instead of
        biasing every row by eps |z_k| (Hairer, Lubich & Wanner, Geometric
        Numerical Integration, 2nd ed., VIII.5); the later ones B at a time
        from M^(i+j) - I = Z_i + Z_j + Z_j Z_i, one product each."""
        D, hW, Gq, hP = self.one_step
        d, n, B, R = D.shape[0], self.n, _WINDOW, self.window
        Z = np.zeros((R + 1, d, d))  # Z[j] = M^j - I
        for j in range(B):
            Z[j + 1] = Z[j] + D + D @ Z[j]
        P = Z[1 : B + 1].reshape(B * d, d)
        for i in range(B, R, B):
            Z[i + 1 : i + B + 1] = Z[i] + Z[1 : B + 1] + (P @ Z[i]).reshape(B, d, d)
        Wp = hW + Z[:B] @ hW  # Wp[j] = M^j hW
        G = Gq + Gq @ Z[:B]
        T, K = _toeplitz(Wp), _toeplitz(np.concatenate([hP[None], Gq @ Wp[: B - 1]]))
        Z, G = Z[1:].reshape(R * d, d), G.reshape(B * n, d)
        return read_only(Z, T, G, K, hW, hP, np.eye(d) + D, Gq)


_blocks = lru_cache(maxsize=8)(_StepBlocks)


def _step_blocks(C: CotangentLiftedMap, H: HamiltonianSystem, h: float) -> _StepBlocks:
    """The step blocks of (C, H, h) from the memo of the eight latest keys (C, dim, S0, potential or not, h), C
    matched by identity: all Hamiltonians with H's S0 and some potential share one build, and all with none another."""
    return _blocks(C, H.dim, H.S0.tobytes(), H.potential is not None, h)


def _toeplitz(blocks: Array) -> Array:
    """The block lower-triangular Toeplitz matrix with blocks[j] on its j-th block subdiagonal: block
    row i is the window i .. i + B - 1 of the reversed blocks and B - 1 zero blocks, read backwards."""
    B, r, c = blocks.shape
    T = np.lib.stride_tricks.sliding_window_view(np.concatenate([blocks[::-1], np.zeros((B - 1, r, c))]), B, axis=0)
    return T[::-1].transpose(0, 1, 3, 2).reshape(B * r, B * c)  # T[::-1][i, :, :, l] = blocks[i - l]


def step_residual(C: CotangentLiftedMap, H: HamiltonianSystem, h: float, z0) -> Callable[[Array], Array]:
    """Residual R(z1) = L w + h JJ grad V(q) whose root defines one step.

    z0 is checked here, once per step; the residual evaluates the folded
    blocks, or the unchecked flat inverse of the lifted map when that is not
    affine.  z0 may also be rows (k, 4n), one start per row, and the
    residual then maps rows z1 of the same shape to one residual row each.
    The matrices are those of :func:`_step_blocks` for this (C, H, h)."""
    blocks = _step_blocks(C, H, h)
    d = C.dim // 2
    z0 = np.asarray(z0, dtype=float) if np.ndim(z0) == 2 else as_vector(z0, name="z0")
    if z0.ndim == 2 and not np.isfinite(z0).all():
        raise ValueError("z0 contains non-finite entries")
    if z0.shape[-1] != 2 * d:
        raise ValueError(f"phase points have {2 * d} coordinates, got {z0.shape[-1]}")
    n, V = d // 2, H.potential
    rows = slice(d, d + n)  # the pdot rows of q: the only nonzero rows of h JJ grad V

    if blocks.LK is None:
        L = blocks.L

        def residual(z1: Array) -> Array:
            w = C.inverse_flat(np.concatenate([z0, z1], axis=-1))
            R = matvec(L, w)
            if V is not None:
                R[..., rows] -= h * V.grad(w[..., :n])
            return R

        return residual

    A1, Kq1 = blocks.A1, blocks.Kq1
    b = matvec(blocks.A0, z0)
    if V is None:
        return lambda z1: matvec(A1, z1) + b
    bq = matvec(blocks.Kq0, z0)

    def residual(z1: Array) -> Array:
        R = matvec(A1, z1) + b
        R[..., rows] -= h * V.grad(matvec(Kq1, z1) + bq)
        return R

    return residual


def _step_jacobian(C: CotangentLiftedMap, H: HamiltonianSystem, h: float, z0: Array, z1: Array) -> Array:
    """d R / d(z0, z1) of the step residual R at one pair (z0, z1), in closed form.

    It is L K, with K the lifted map's inverse Jacobian at y = (z0, z1), plus
    the rank-n term -h Hess V(q) K[:n] (n = d / 2, q the first n entries of
    the preimage of y) on the pdot rows of q (the p0 rows of the second-order
    system).  Its z1 block is the chord Jacobian."""
    V, d, n = H.potential, C.dim // 2, C.dim // 4
    y = np.concatenate([z0, z1])
    K = C.inverse_jacobian_flat(y)
    A = _step_blocks(C, H, h).L @ K
    if V is not None:
        A[d : d + n] += h * (-V.hess(C.inverse_flat(y)[:n]) @ K[:n])
    return A


def _solve(A: Array, B: Array | None = None) -> Array:
    """A^-1 B, or A^-1 without B, raising SingularJacobian for a singular A."""
    try:
        return np.linalg.inv(A) if B is None else np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian("one-step linearization is singular") from exc


def _floor(tol: float, z: Array, axis: int = -1, out: Array | None = None) -> Array:
    """The one-step tolerance at each state (row; column with ``axis=0``) of z: max(tol, 8 eps ||z||_inf), never
    below the rounding level of the state (for tol = 1e-12 the second term takes over above ||z||_inf ~ 560);
    ``out`` takes |z|."""
    return np.maximum(tol, 8.0 * _EPS * np.abs(z, out=out).max(axis=axis))


def _chord_newton(residual, jacobian, x0: Array, J_inv: Array | None, tol: float):
    """:func:`~geodisc.numeric.newton_solve`'s chord policy, its default 50 iterations at most, from one start x0
    against its :func:`_floor`; returns (solution, inverse used), and words a failure as the one-step solve's."""
    try:
        return newton_solve(residual, x0, jacobian, _floor(tol, x0), chord=True, J_inv=J_inv)
    except (NonConvergence, SingularJacobian) as exc:
        exc.args = (str(exc).replace("Newton", "one-step" if isinstance(exc, SingularJacobian) else "one-step solve"),)
        raise


def symplectic_step(
    C: CotangentLiftedMap,
    H: HamiltonianSystem,
    h: float,
    z0,
    tol: float = 1e-12,
) -> Array:
    """Advance one step of size h from the phase point z0 (flat, length 4n),
    or from every row of z0 (shape (k, 4n)); the result has z0's shape.

    On an affine lifted map each row takes a one-step window from grad V = 0
    (:func:`_window` in the terms of :attr:`_StepBlocks.one_step`) and keeps
    it when the window settled and its full residual is finite and within
    :func:`_floor`, the chord iteration's own test.  A start that fails goes
    through the chord iteration from z1 = z0, with the closed-form Jacobian
    of the residual there, inverted once.  A row that fails, and every row
    when the rows' check raises or the map is not affine, takes its own
    one-start call, whose NonConvergence gains "of row i" and ``row`` = i."""
    residual = step_residual(C, H, h, z0)
    z0 = np.asarray(z0, dtype=float)
    z1, ok, blocks = z0.copy(), np.zeros(z0.shape[:-1], dtype=bool), _step_blocks(C, H, h)  # a failed row keeps z0
    if blocks.LK is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            ok = _window(blocks.one_step, H.potential, z0, 1, np.zeros(z0.shape[:-1] + (blocks.n,)), z1[..., None, :])[1]
            try:
                ok &= np.abs(residual(z1)).max(axis=-1) <= _floor(tol, z0)
            except GeodiscError:  # then every row goes alone
                ok[...] = False
    if ok.all():
        return z1
    if z0.ndim == 1:
        chord = lambda x: _step_jacobian(C, H, h, z0, x)[:, C.dim :]
        return _chord_newton(residual, chord, z0, None, tol)[0]
    for i in np.flatnonzero(~ok):
        try:
            z1[i] = symplectic_step(C, H, h, z0[i], tol)
        except NonConvergence as exc:
            exc.args, exc.row = (str(exc).replace("one-step solve", f"one-step solve of row {i}", 1),), int(i)
            raise
    return z1


_ROWS = 256  # the window without a potential, and the most steps one tangent factor carries
_WINDOW = 32  # condensed steps solved together as one window with a potential
_SPAN = 8  # windows per check of the condensed steps and per block of the energies
_SWEEPS = 30  # fixed-point sweeps per window before it fails


def _verified_steps(blocks: _StepBlocks, z: Array, k: int, end: int, tol: float, hG: Array | None = None) -> int:
    """Number of leading steps k .. end - 1 of z whose full residual A0 z_k + A1 z_{k+1}, plus ``hG`` (-h grad V
    at the step's preimage, a row per step) on the p0 rows, is finite and within :func:`_floor`: the steps as columns,
    so each maximum runs along whole rows, in two arrays of their size (a broadcast sum would buffer a third)."""
    tmp = z[k:end].T.copy()
    floor = _floor(tol, tmp, axis=0, out=tmp)
    R = blocks.A0 @ z[k:end].T
    R += np.matmul(blocks.A1, z[k + 1 : end + 1].T, out=tmp)
    if hG is not None:
        d = R.shape[0] // 2
        R[d : d + hG.shape[1]] += hG.T
    failed = np.flatnonzero(~(np.abs(R, out=R).max(axis=0, out=tmp[0]) <= floor))  # a nan fails too
    return end - k if failed.size == 0 else int(failed[0])


def _row_gradients(grad: Callable[[Array], Array], Q: Array) -> Array:
    """grad at every row of Q in one call.  When that call raises a
    GeodiscError (a row on a singular set, such as the obstacle), the rows
    are taken one at a time and the gradient is nan at each row that
    raises, so that its step fails its check (or its window's sweeps)."""
    try:
        return grad(Q)
    except GeodiscError:
        G = np.full(Q.shape, np.nan)
        for i, q in enumerate(Q):
            try:
                G[i] = grad(q)
            except GeodiscError:
                pass
        return G


def _window(terms: tuple[Array, ...], V: Potential | None, z0: Array, b: int, g: Array, out: Array) -> tuple[Array, Array]:
    """Solve b condensed steps from each start of z0 (one state, or rows (k, 4n)) as one window in the terms
    (Z, T, G, K) of :attr:`_StepBlocks.condensed` (:attr:`_StepBlocks.one_step` at b = 1): write the rows
    z0 + Z z0 + T g of each start that settles into ``out`` (..., b, 4n) and return (last gradients, settled
    mask).  Every product is a ``matvec``, so each start has the bits of a one-start call.  Without a potential
    g = 0; with one, the fixed point g = grad V(G z0 + K g) is swept from each start's last gradient ``g``
    (..., n), one gradient call on the open starts and one matvec a sweep.  A start leaves with its gradients once
    a sweep moves its preimages by at most 4 eps of their size (settled), by no less than the sweep before (failed,
    as on a nan) or when its gradient raises a GeodiscError (on rows, its own row's: :func:`_row_gradients`)."""
    Z, T, G, K = terms[:4]
    dz, n = z0.shape[-1], g.shape[-1]
    rows = matvec(Z[: b * dz], z0)
    ok = (np.ones if V is None else np.zeros)(z0.shape[:-1], dtype=bool)  # with a potential, ok once settled
    if V is not None:
        base, K, gs = matvec(G[: b * n], z0), K[: b * n, : b * n], np.empty(z0.shape[:-1] + (b * n,))
        gs.reshape(g.shape[:-1] + (b, n))[:] = g[..., None, :]
        lone = z0.ndim == 1  # one start: no row fallback for its gradient and no count of open starts
        grad = V.grad if lone else partial(_row_gradients, V.grad)
        Q, last, i = base + matvec(K, gs), np.inf, ...  # the open starts' preimages and last changes, their index
        for _ in range(_SWEEPS):
            try:
                go = grad(Q.reshape(-1, n)).reshape(Q.shape)
            except GeodiscError:  # only a lone start's call raises; nan fails it
                go = np.full(Q.shape, np.nan)
            Q, moved = base + matvec(K, go), Q
            change = np.abs(Q - moved).max(axis=-1)
            stay = (change < last) & (change > 4.0 * _EPS * np.abs(Q).max(axis=-1))
            if (not stay) if lone else (np.count_nonzero(stay) < stay.size or not stay.size):  # a start leaves
                ok[i], gs[i] = change < last, go
                if lone or not stay.any():
                    break
                i, base, Q, change = np.arange(ok.size)[i][stay], base[stay], Q[stay], change[stay]
            last = change
        rows += matvec(T[: b * dz, : b * n], gs)
        g = gs[..., -n:]
    np.add(rows.reshape(out.shape), z0[..., None, :], out=out, where=ok[..., None, None])
    return g, ok


def _condensed_steps(blocks: _StepBlocks, V: Potential | None, z: Array, k: int, tol: float, carry: list | None) -> int:
    """Advance rows k, k + 1, ... of z by condensed steps, as far as they verify.

    Windows of up to ``blocks.window`` steps (:func:`_window`) start from the
    previous window's last gradient (0 on entry); a failed window is halved,
    and a failed one-step window ends its span at that step.  After each span
    of up to _SPAN windows :func:`_verified_steps` checks every step's full
    residual, with a potential at the gradients of the rows' preimages q_k
    taken in one call; ``carry`` (None: no tangent) gains the linearization
    of the verified steps, :func:`_condensed_tangent`, in factors of up to
    _ROWS steps.  Returns the first step that failed (the step count when
    none did)."""
    steps, g, b = z.shape[0] - 1, np.zeros(blocks.n), blocks.window
    while k < steps:
        j, end = k, min(k + _SPAN * blocks.window, steps)
        while j < end:
            b = min(b, end - j)
            solved, ok = _window(blocks.condensed, V, z[j], b, g, z[j + 1 : j + b + 1])
            if ok:
                g, j, b = solved, j + b, min(2 * b, blocks.window)
            elif b > 1:
                b //= 2
            else:
                break
        if j == k:
            return k
        Q = hG = None
        if V is not None:
            Q = z[k:j] @ blocks.Kq0.T
            Q += z[k + 1 : j + 1] @ blocks.Kq1.T
            hG = -blocks.h * _row_gradients(V.grad, Q)
        verified = _verified_steps(blocks, z, k, j, tol, hG)
        if carry is not None:  # a tangent factor per _ROWS steps
            for i in range(0, verified, _ROWS):
                carry.append(partial(_condensed_tangent, blocks, V, min(_ROWS, verified - i), None if Q is None else Q[i:]))
        k += verified
        if k < end:
            return k
    return k


def _condensed_tangent(blocks: _StepBlocks, V: Potential | None, steps: int, Q: Array | None, tangent: Array) -> Array:
    """``tangent`` carried over ``steps`` condensed steps with preimages Q by Phi_k = M - hW (Hs_k D_k^-1) Gq,
    Hs_k = -Hess V(q_k), D_k = I + hP Hs_k (the Hessians in one call, the D_k in one batched inverse), the maps
    multiplied as a pairwise tree, log2(b) batched products for b steps, written into the maps and one half-size
    buffer in turn.  Without a potential every Phi_k is M, and the product is T + (M^b - I) T with the blocks' power."""
    Z, *_, hW, hP, M, Gq = blocks.condensed
    if V is None:
        return tangent + Z[(steps - 1) * len(M) : steps * len(M)] @ tangent
    Hs = -V.hess(Q[:steps])
    Phi = hW @ ((Hs @ _solve(np.eye(hP.shape[0]) + hP @ Hs)) @ Gq)
    Phi, spare = np.subtract(M, Phi, out=Phi), np.empty((steps // 2, *M.shape))  # Phi[i] = dz_{k+i+1} / dz_{k+i}
    while len(Phi) > 1:  # an odd leading map goes into the tangent, the rest pair up into the other buffer
        if len(Phi) % 2:
            tangent, Phi = Phi[0] @ tangent, Phi[1:]
        Phi, spare = np.matmul(Phi[1::2], Phi[0::2], out=spare[: len(Phi) // 2]), Phi
    return Phi[0] @ tangent


def _chord_tangent(C, H, h, z0: Array, z1: Array, tangent: Array) -> Array:
    """``tangent`` carried over the step z0 -> z1 by dz1/dz0 = -(dR/dz1)^-1 dR/dz0."""
    A = _step_jacobian(C, H, h, z0, z1)
    return -_solve(A[:, C.dim :], A[:, : C.dim] @ tangent)


def integrate(
    C: CotangentLiftedMap,
    H: HamiltonianSystem,
    h: float,
    steps: int,
    z0,
    tol: float = 1e-12,
    tangent: Array | None = None,
) -> Trajectory:
    """Run ``steps`` steps of the one-step method, recording energy and control
    at every state.

    The step matrices are looked up by :func:`_step_blocks`, so every run of
    one (C, S0, h) shares one build.  Step 0 runs the chord iteration, on
    every map: taken condensed, it would let a free ``shoot --tol 0``
    converge at defect 0 instead of stalling, turn a shooting guess through
    the obstacle from ObstaclePenetration into a stalled EvaluationFailure,
    and move every output at rounding level.  The inverse of the residual's
    closed-form Jacobian is carried across chord steps and refreshed only
    when a step stalls.  On an affine lifted map
    the later steps are condensed a window at a time
    (:func:`_condensed_steps`: 32 steps with a potential, 256 without) and
    checked once per eight windows: each step's full residual must be finite
    and within max(tol, 8 eps ||z_k||_inf), the chord iteration's own floor.
    A step that fails goes to the chord iteration and the windows resume
    after it, so a stall or a non-finite state ends in the same
    NonConvergence as on the chord path.  A run steps with numpy's overflow
    and invalid-value warnings silenced: the finiteness tests report such a
    state.  The energies are evaluated after the last step, eight windows'
    rows at a time; a state whose energy is not finite raises NonConvergence
    naming its step and time.

    ``tangent``, an optional 4n x k block T_0 of directions at z0, is carried
    through the discrete variational equation T_{k+1} = (dz_{k+1}/dz_k) T_k
    and returned as ``Trajectory.tangent``, built on its first read, in the
    run's error state, from what the run records (a chord step's endpoints, a
    condensed factor's steps and preimages); the states are the same with or
    without it, and a singular linearization raises SingularJacobian there.
    A stalled step raises NonConvergence naming k and its time k h, after one
    retry with a fresh Jacobian when the failed solve carried an inverse.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    d = C.dim // 2
    if d % 2 != 0:
        raise ValueError("second-order trajectories need an even-dimensional base")
    z0 = as_vector(z0, name="z0")
    if tangent is not None:
        tangent = np.array(tangent, dtype=float)  # a copy: it is read when the tangent is
        if tangent.ndim != 2 or tangent.shape[0] != 2 * d:
            raise ValueError(f"tangent must be a matrix with {2 * d} rows, got shape {tangent.shape}")
        if not np.isfinite(tangent).all():
            raise ValueError("tangent contains non-finite entries")
    blocks = _step_blocks(C, H, h)
    carry = None if tangent is None else []
    z = np.empty((steps + 1, z0.size))
    z[0] = z0
    energies = np.empty(steps + 1)  # beside z: allocated after the loop it raised peak memory
    J_inv = None
    k = 0
    quiet = partial(np.errstate, over="ignore", invalid="ignore")
    with quiet():
        while k < steps:
            zk = z[k]
            residual = step_residual(C, H, h, zk)
            chord = lambda z1, zk=zk: _step_jacobian(C, H, h, zk, z1)[:, 2 * d :]
            try:
                z1, J_inv = _chord_newton(residual, chord, zk, J_inv, tol)
            except NonConvergence:  # a carried inverse gets one retry with a fresh Jacobian
                try:
                    if J_inv is None:
                        raise
                    z1, J_inv = _chord_newton(residual, chord, zk, None, tol)
                except NonConvergence as exc:
                    exc.args = (f"step {k} at t = {k * h:.6g}: {exc}",)
                    raise
            if carry is not None:
                carry.append(partial(_chord_tangent, C, H, h, zk.copy(), z1))
            z[k + 1] = z1
            k += 1
            if blocks.LK is not None:
                k = _condensed_steps(blocks, H.potential, z, k, tol, carry)
        span = _SPAN * blocks.window
        for i in range(0, steps + 1, span):  # blocks of rows: no temporary the size of z
            energies[i : i + span] = H.values(z[i : i + span])
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        k = int(bad[0])
        message = f"step {k} at t = {k * h:.6g}: energy H = {energies[k]} is not finite"
        raise NonConvergence(message, x_best=z[k].copy())

    def linearization() -> Array:
        with quiet():
            return reduce(lambda T, step: step(T), carry, tangent)

    return Trajectory(h=h, z=z, energies=energies, linearization=None if carry is None else linearization)

"""Discretization maps: smooth maps TQ -> Q x Q that turn a point-with-velocity
into a pair of nearby points.

Every map here satisfies the two defining conditions

    (1)  forward(q, 0) = (q, q)
    (2)  d/dv forward_2 - d/dv forward_1 = identity on the fiber at v = 0,

whose defects :func:`axiom_defects` measures by finite differences (the
tolerance that judges them lives in :mod:`geodisc.checks`).  For maps on
embedded or group manifolds the fiber has its own meaning (tangent vectors
to the sphere, body velocities on SE(2)); ``fiber_basis_fn`` and
``fiber_frame_fn`` tell the checker which directions to probe and how fiber
vectors are identified with chart tangent vectors.

A map is given by its flat maps on rows (..., 2 dim), (q, v) -> (q_minus,
q_plus) and back, which the checked ``forward``/``inverse`` join and split,
or by its ``affine`` form alone, which gives them; higher-order lifts are
maps of this type too.  Every function a map is built from takes one point
or a stack of points, one per row, and gives each row the bits of its
one-point value; so do the map's flat and checked views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainViolation
from .numeric import jacobian_fd, matvec, read_only, rowdot

Array = np.ndarray

#: How far off the constraint set structured inputs may sit before being rejected.
MANIFOLD_TOL = 1e-8

#: The memo of every constructor of maps and lifts: a map is a frozen value, so a process builds each
#: (constructor, arguments) once and keeps the latest 32; typed, so that an order 1.0 is not a valid order 1.
memoized = lru_cache(maxsize=32, typed=True)


@dataclass(frozen=True, eq=False)
class DiscretizationMap:
    """A discretization map on a manifold charted in R^dim, given by its flat maps or its ``affine`` form.

    ``forward_flat`` maps rows x = (q, v) of shape (..., 2 dim) to the point
    pairs (q_minus, q_plus); ``inverse_flat`` recovers x from such a pair.
    ``jacobian_fn(x)``, when given, returns the 2 dim x 2 dim matrix
    d(q_minus, q_plus)/d(q, v) of every row.  ``affine = (F, f, K, k)``, made
    read-only, states that the map is x -> F x + f with inverse y -> K y + k,
    and gives each flat map and ``jacobian_fn`` (read-only views of F) that
    is not given: lifts place these matrices, and the one-step method folds
    (K, k) into its step.  The flat maps are unchecked, so that lifts and finite
    differences may probe the smooth ambient extension; the checked
    ``forward`` and ``inverse`` views check finiteness and lengths and run
    ``validate_fn(q, v)`` on the structured inputs.
    """

    dim: int
    forward_flat: Callable[[Array], Array] | None = None
    inverse_flat: Callable[[Array], Array] | None = None
    jacobian_fn: Callable[[Array], Array] | None = None
    affine: tuple[Array, Array, Array, Array] | None = None
    fiber_basis_fn: Callable[[Array], Array] | None = None
    fiber_frame_fn: Callable[[Array], Array] | None = None
    validate_fn: Callable[[Array, Array], None] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.affine is not None:
            F, f, K, k = read_only(*self.affine)
            fill = object.__setattr__  # the fields not given, on a frozen instance
            fill(self, "forward_flat", self.forward_flat or (lambda x: matvec(F, np.asarray(x, dtype=float)) + f))
            fill(self, "inverse_flat", self.inverse_flat or (lambda y: matvec(K, np.asarray(y, dtype=float)) + k))
            fill(self, "jacobian_fn", self.jacobian_fn or (lambda x: np.broadcast_to(F, x.shape[:-1] + F.shape)))
        elif self.forward_flat is None or self.inverse_flat is None:
            raise ValueError(f"{self.name or 'map'} needs its flat maps or its affine form")

    def _points(self, x, name: str) -> Array:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise ValueError(f"{name} contains non-finite entries")
        if x.shape[-1] != self.dim:
            raise ValueError(f"{self.name or 'map'} expects vectors of length {self.dim}")
        return x

    def _split(self, y: Array, first: str, second: str) -> tuple[Array, Array]:
        return self._points(y[..., : self.dim], first), self._points(y[..., self.dim :], second)

    def forward(self, q, v) -> tuple[Array, Array]:
        """Checked forward: finite inputs and outputs, ``validate_fn`` on every row."""
        q, v = np.broadcast_arrays(self._points(q, "q"), self._points(v, "v"))
        if self.validate_fn is not None:
            self.validate_fn(q, v)
        return self._split(self.forward_flat(np.concatenate([q, v], axis=-1)), "q_minus", "q_plus")

    def inverse(self, q_minus, q_plus) -> tuple[Array, Array]:
        pair = np.broadcast_arrays(self._points(q_minus, "q_minus"), self._points(q_plus, "q_plus"))
        return self._split(self.inverse_flat(np.concatenate(pair, axis=-1)), "q", "v")

    def jacobian_forward_flat(self, x) -> Array:
        """d(q_minus, q_plus)/d(q, v) at x = (q, v), closed form if available,
        else central FD."""
        x = np.asarray(x, dtype=float)
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(x), dtype=float)
        return jacobian_fd(self.forward_flat, x)

    def inverse_jacobian_flat(self, y) -> Array:
        """d(q, v)/d(q_minus, q_plus) at y, one matrix per row: K of an affine
        map, else central differences of ``inverse_flat``."""
        y = np.asarray(y, dtype=float)
        if self.affine is None:
            return jacobian_fd(self.inverse_flat, y)
        return np.broadcast_to(self.affine[2], y.shape[:-1] + self.affine[2].shape).copy()


def _flat(fn: Callable[[Array, Array], tuple[Array, Array]], dim: int) -> Callable[[Array], Array]:
    """The flat map x -> (a, b) of rows (..., 2 dim) of a (q, v) -> (a, b) formula."""

    def flat(x) -> Array:
        x = np.asarray(x, dtype=float)
        a, b = fn(x[..., :dim], x[..., dim:])
        return np.concatenate([np.atleast_1d(a), np.atleast_1d(b)], axis=-1)

    return flat


# ---------------------------------------------------------------------------
# flat-space maps


@memoized
def midpoint_map(n: int) -> DiscretizationMap:
    """(q, v) -> (q - v/2, q + v/2) on R^n: the theta map at theta = 1/2,
    whose (1 - 1/2) a + b/2 rounds exactly as (a + b)/2."""
    return replace(theta_map(n, 0.5), name=f"midpoint(n={n})")


@memoized
def theta_map(n: int, theta: float) -> DiscretizationMap:
    """(q, v) -> (q - theta v, q + (1 - theta) v); theta = 1/2 is the midpoint map."""
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    eye = np.eye(n)
    F, f = np.block([[eye, -theta * eye], [eye, (1.0 - theta) * eye]]), np.zeros(2 * n)
    K = np.block([[(1.0 - theta) * eye, theta * eye], [-eye, eye]])
    return DiscretizationMap(
        dim=n,
        forward_flat=_flat(lambda q, v: (q - theta * v, q + (1.0 - theta) * v), n),
        inverse_flat=_flat(lambda a, b: ((1.0 - theta) * a + theta * b, b - a), n),
        affine=(F, f, K, -K @ f),
        name=f"theta(n={n}, theta={theta})",
    )


# ---------------------------------------------------------------------------
# unit sphere S^2 in R^3


def _check_sphere_point(q, what="q"):
    qq = rowdot(q, q)
    bad = np.abs(qq - 1.0) > MANIFOLD_TOL
    if bad.any():
        raise DomainViolation(f"{what} is not on the unit sphere (|{what}|^2 = {qq[bad][0]:.12f})")


def _check_sphere_tangent(q, xi):
    """A sphere map's ``validate_fn``: q on the sphere and xi tangent to it at q."""
    _check_sphere_point(q)
    qxi = rowdot(q, xi)
    bad = np.abs(qxi) > MANIFOLD_TOL
    if bad.any():
        raise DomainViolation(f"xi is not tangent to the sphere at q (q . xi = {qxi[bad][0]:.3e})")


def _sphere_tangent_basis(q: Array) -> Array:
    """Deterministic orthonormal basis (u, q x u) of the tangent plane at q."""
    axis = np.eye(3)[np.argmin(np.abs(q), axis=-1)]
    u = axis - rowdot(axis, q)[..., None] * q
    u = u / np.sqrt(rowdot(u, u))[..., None]
    return np.stack([u, np.cross(q, u)], axis=-2)


@memoized
def sphere_initial_point_map() -> DiscretizationMap:
    """Sphere map keeping the first output at the base point:
    (q, xi) -> (q, (q + xi)/|q + xi|)."""

    def forward(q, xi):
        w = q + xi
        nw = np.sqrt(rowdot(w, w))[..., None]
        if np.any(nw < 1e-12):
            raise DomainViolation("q + xi vanishes, no direction to normalize")
        return q.copy(), w / nw

    def inverse(a, b):
        _check_sphere_point(a, "q_minus")
        _check_sphere_point(b, "q_plus")
        d = rowdot(a, b)[..., None]
        if np.any(d <= 1e-12):
            raise DomainViolation("inverse needs the pair on one open hemisphere (q . q_plus > 0)")
        return a.copy(), b / d - a

    def jac(x):
        w = x[..., :3] + x[..., 3:]
        nw = np.sqrt(rowdot(w, w))[..., None]
        what = w / nw
        M = (np.eye(3) - what[..., :, None] * what[..., None, :]) / nw[..., None]
        J = np.zeros(M.shape[:-2] + (6, 6))
        J[..., :3, :3] = np.eye(3)
        J[..., 3:, :3] = J[..., 3:, 3:] = M
        return J

    return DiscretizationMap(
        dim=3,
        forward_flat=_flat(forward, 3),
        inverse_flat=_flat(inverse, 3),
        jacobian_fn=jac,
        fiber_basis_fn=_sphere_tangent_basis,
        validate_fn=_check_sphere_tangent,
        name="sphere-initial-point",
    )


def _sphere_exp(q: Array, eta: Array) -> Array:
    r = np.sqrt(rowdot(eta, eta))[..., None]
    # np.sinc(r/pi) = sin(r)/r, stable through r = 0.
    return np.cos(r) * q + np.sinc(r / math.pi) * eta


@memoized
def sphere_geodesic_midpoint_map() -> DiscretizationMap:
    """Sphere map placing (q, xi) at the geodesic midpoint of the output pair:
    (q, xi) -> (exp_q(-xi/2), exp_q(xi/2))."""

    def forward(q, xi):
        return _sphere_exp(q, -0.5 * xi), _sphere_exp(q, 0.5 * xi)

    def inverse(a, b):
        _check_sphere_point(a, "q_minus")
        _check_sphere_point(b, "q_plus")
        m = a + b
        nm = np.sqrt(rowdot(m, m))[..., None]
        if np.any(nm < 1e-9):
            raise DomainViolation("cannot invert: endpoints are antipodal or a quarter turn apart")
        q = m / nm
        qb = rowdot(q, b)[..., None]
        w = b - qb * q
        nw = np.sqrt(rowdot(w, w))[..., None]
        tiny = nw < 1e-15  # no rotation: v = 0
        half_angle = np.arctan2(nw, qb)
        return q, np.where(tiny, 0.0, (2.0 * half_angle / np.where(tiny, 1.0, nw)) * w)

    def validate(q, xi):
        _check_sphere_tangent(q, xi)
        if np.any(0.5 * np.sqrt(rowdot(xi, xi)) >= math.pi):
            raise DomainViolation("|xi|/2 must stay below pi for the exponential pair to be injective")

    return DiscretizationMap(
        dim=3,
        forward_flat=_flat(forward, 3),
        inverse_flat=_flat(inverse, 3),
        fiber_basis_fn=_sphere_tangent_basis,
        validate_fn=validate,
        name="sphere-geodesic-midpoint",
    )


# ---------------------------------------------------------------------------
# SE(2), charted as (x, y, theta) with body-velocity fibers (v1, v2, omega)


def _rot(theta) -> Array:
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def se2_exp(xi: Array) -> Array:
    """Group exponential of (v1, v2, omega): translation part V(omega) @ (v1, v2).

    Uses 1 - cos(w) = 2 sin^2(w/2) so the translation block stays accurate
    through omega = 0 without an explicit series branch.
    """
    xi = np.asarray(xi, dtype=float)
    v1, v2, w = xi[..., 0], xi[..., 1], xi[..., 2]
    A = np.sinc(w / math.pi)                      # sin(w)/w
    B = np.sin(0.5 * w) * np.sinc(0.5 * w / math.pi)  # (1 - cos(w))/w
    return np.stack([A * v1 - B * v2, B * v1 + A * v2, w], axis=-1)


def se2_log(g: Array) -> Array:
    """Inverse of :func:`se2_exp`; requires the rotation angle in (-pi, pi)."""
    g = np.asarray(g, dtype=float)
    x, y, w = g[..., 0], g[..., 1], g[..., 2]
    bad = np.abs(w) >= math.pi
    if bad.any():
        raise DomainViolation(f"se2 log needs |theta| < pi, got {w[bad][0]:.6f}")
    A = np.sinc(w / math.pi)
    S = np.sinc(0.5 * w / math.pi)
    B = np.sin(0.5 * w) * S
    det = S * S                                   # A^2 + B^2 = (2 - 2 cos w)/w^2
    return np.stack([(A * x + B * y) / det, (-B * x + A * y) / det, w], axis=-1)


def se2_mul(g1: Array, g2: Array) -> Array:
    xy = g1[..., :2] + matvec(_rot(g1[..., 2]), g2[..., :2])
    return np.concatenate([xy, g1[..., 2:] + g2[..., 2:]], axis=-1)


def se2_inv(g: Array) -> Array:
    return np.concatenate([-matvec(_rot(-g[..., 2]), g[..., :2]), -g[..., 2:]], axis=-1)


@memoized
def se2_exp_map() -> DiscretizationMap:
    """Exponential-pair map on SE(2): (g, xi) -> (g exp(-xi/2), g exp(xi/2))."""

    def forward(g, xi):
        return se2_mul(g, se2_exp(-0.5 * xi)), se2_mul(g, se2_exp(0.5 * xi))

    def inverse(a, b):
        rel = se2_mul(se2_inv(a), b)
        xi = se2_log(rel)
        return se2_mul(a, se2_exp(0.5 * xi)), xi

    def frame(g):
        F = np.zeros(g.shape[:-1] + (3, 3))
        F[..., :2, :2] = _rot(g[..., 2])
        F[..., 2, 2] = 1.0
        return F

    return DiscretizationMap(
        dim=3,
        forward_flat=_flat(forward, 3),
        inverse_flat=_flat(inverse, 3),
        fiber_frame_fn=frame,
        name="se2-exp",
    )


# ---------------------------------------------------------------------------
# axiom defects


def axiom_defects(D: DiscretizationMap, samples, eps: float = 1e-6) -> Array:
    """The defects of both defining conditions of a discretization map at the
    given base points: a (k, 2) array, one row (condition 1, condition 2) per
    sample.

    Condition 2 is probed by central differences along the rows of
    ``D.fiber_basis_fn(q)`` (k, dim); the difference of the two directional
    derivatives must reproduce the fiber direction expressed in chart
    coordinates through ``D.fiber_frame_fn(q)``, each the identity when None.
    Every sample's zero probe and its +-step u probes go through one checked
    ``D.forward`` call, one row each.  Raises ValueError when no sample is
    given, or when a sample is not one finite vector of length ``D.dim``.
    """
    Q = np.asarray(samples, dtype=float)
    Q = Q[:, None] if Q.ndim == 1 else Q  # a number is a point of a line
    if Q.ndim > 2:
        raise ValueError(f"sample must be one-dimensional, got shape {Q.shape[1:]}")
    if not len(Q):
        raise ValueError("axiom_defects needs at least one sample base point, got none")
    Q = D._points(Q, "sample")
    basis = np.eye(D.dim) if D.fiber_basis_fn is None else np.asarray(D.fiber_basis_fn(Q), dtype=float)
    k = basis.shape[-2]
    step = eps * np.maximum(1.0, np.max(np.abs(Q), axis=-1))[:, None, None]
    V = step * basis
    probes = np.concatenate([np.zeros_like(V[:, :1]), V, -V], axis=1)  # (samples, 2k + 1, dim)
    A, B = D.forward(np.broadcast_to(Q[:, None], probes.shape), probes)
    c1 = np.maximum(np.max(np.abs(A[:, 0] - Q), axis=-1), np.max(np.abs(B[:, 0] - Q), axis=-1))
    diff = ((B[:, 1 : k + 1] - B[:, k + 1 :]) - (A[:, 1 : k + 1] - A[:, k + 1 :])) / (2.0 * step)
    chart = basis if D.fiber_frame_fn is None else matvec(np.asarray(D.fiber_frame_fn(Q), dtype=float)[:, None], basis)
    c2 = np.max(np.abs(diff - chart), axis=(1, 2))
    return np.stack([c1, c2], axis=-1)

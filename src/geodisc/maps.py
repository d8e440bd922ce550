"""Discretization maps: smooth maps TQ -> Q x Q that turn a point-with-velocity
into a pair of nearby points.

Every map here satisfies the two defining conditions

    (1)  forward(q, 0) = (q, q)
    (2)  d/dv forward_2 - d/dv forward_1 = identity on the fiber at v = 0,

which :func:`verify_discretization_axioms` checks by finite differences.  For
maps on embedded or group manifolds the fiber has its own meaning (tangent
vectors to the sphere, body velocities on SE(2)); ``fiber_basis`` and
``fiber_frame`` tell the checker which directions to probe and how fiber
vectors are identified with chart tangent vectors.

Every function a map is built from takes one point (shape (dim,)) or a stack
of points (shape (..., dim)), and gives each row the bits of its one-point
value; so do the map's flat, checked and fiber views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation
from .numeric import as_vector, matvec, row_jacobian_fd, rowdot, worst_defect

Array = np.ndarray

#: How far off the constraint set structured inputs may sit before being rejected.
MANIFOLD_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscretizationMap:
    """A discretization map on a manifold charted in R^dim.

    ``forward_fn`` maps (q, v) to the point pair (q_minus, q_plus); ``inverse_fn``
    recovers (q, v) from such a pair.  ``jacobian_fn``, when given, returns the
    2*dim x 2*dim matrix d(q_minus, q_plus)/d(q, v); ``jacobian_constant``
    promises that this matrix does not depend on the evaluation point (true for
    affine maps), which downstream lifts exploit for exact derivative handling.
    ``validate_fn`` guards the structured entry points; the unchecked
    ``*_flat`` variants skip it so that lifts and finite differences may probe
    the smooth ambient extension.  All of them take (..., dim) rows.
    """

    dim: int
    forward_fn: Callable[[Array, Array], tuple[Array, Array]]
    inverse_fn: Callable[[Array, Array], tuple[Array, Array]]
    jacobian_fn: Callable[[Array, Array], Array] | None = None
    jacobian_constant: bool = False
    fiber_basis_fn: Callable[[Array], Array] | None = None
    fiber_frame_fn: Callable[[Array], Array] | None = None
    validate_fn: Callable[[Array, Array], None] | None = None
    name: str = ""

    def _points(self, x, name: str) -> Array:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise ValueError(f"{name} contains non-finite entries")
        if x.shape[-1] != self.dim:
            raise ValueError(f"{self.name or 'map'} expects vectors of length {self.dim}")
        return x

    def forward(self, q, v) -> tuple[Array, Array]:
        """Checked forward: finite inputs and outputs, ``validate_fn`` on every row."""
        q, v = self._points(q, "q"), self._points(v, "v")
        if self.validate_fn is not None:
            self.validate_fn(q, v)
        a, b = self.forward_fn(q, v)
        return self._points(a, "q_minus"), self._points(b, "q_plus")

    def inverse(self, q_minus, q_plus) -> tuple[Array, Array]:
        q, v = self.inverse_fn(self._points(q_minus, "q_minus"), self._points(q_plus, "q_plus"))
        return self._points(q, "q"), self._points(v, "v")

    # -- flat views used by lifts and finite differences -----------------
    def forward_flat(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        a, b = self.forward_fn(x[..., : self.dim], x[..., self.dim :])
        return np.concatenate([np.atleast_1d(a), np.atleast_1d(b)], axis=-1)

    def inverse_flat(self, y) -> Array:
        y = np.asarray(y, dtype=float)
        q, v = self.inverse_fn(y[..., : self.dim], y[..., self.dim :])
        return np.concatenate([np.atleast_1d(q), np.atleast_1d(v)], axis=-1)

    def jacobian_forward_flat(self, x) -> Array:
        """d(q_minus, q_plus)/d(q, v) at x = (q, v), closed form if available,
        else central FD."""
        x = np.asarray(x, dtype=float)
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(x[..., : self.dim], x[..., self.dim :]), dtype=float)
        return row_jacobian_fd(self.forward_flat, x)

    def jacobian_forward(self, q, v) -> Array:
        return self.jacobian_forward_flat(np.concatenate([as_vector(q, name="q"), as_vector(v, name="v")]))

    def fiber_basis(self, q) -> Array:
        """The fiber directions to probe at q, as the rows of a (..., k, dim) array."""
        q = self._points(q, "q")
        if self.fiber_basis_fn is not None:
            return np.asarray(self.fiber_basis_fn(q), dtype=float)
        return np.broadcast_to(np.eye(self.dim), q.shape[:-1] + (self.dim, self.dim)).copy()

    def fiber_frame(self, q) -> Array:
        q = self._points(q, "q")
        if self.fiber_frame_fn is not None:
            return np.asarray(self.fiber_frame_fn(q), dtype=float)
        return np.broadcast_to(np.eye(self.dim), q.shape[:-1] + (self.dim, self.dim))


# ---------------------------------------------------------------------------
# flat-space maps


def midpoint_map(n: int) -> DiscretizationMap:
    """(q, v) -> (q - v/2, q + v/2) on R^n, inverse of the pair average/difference."""
    eye = np.eye(n)
    jac = np.block([[eye, -0.5 * eye], [eye, 0.5 * eye]])
    return DiscretizationMap(
        dim=n,
        forward_fn=lambda q, v: (q - 0.5 * v, q + 0.5 * v),
        inverse_fn=lambda a, b: (0.5 * (a + b), b - a),
        jacobian_fn=lambda q, v: np.broadcast_to(jac, q.shape[:-1] + jac.shape),
        jacobian_constant=True,
        name=f"midpoint(n={n})",
    )


def theta_map(n: int, theta: float) -> DiscretizationMap:
    """(q, v) -> (q - theta v, q + (1 - theta) v); theta = 1/2 is the midpoint map."""
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    eye = np.eye(n)
    jac = np.block([[eye, -theta * eye], [eye, (1.0 - theta) * eye]])
    return DiscretizationMap(
        dim=n,
        forward_fn=lambda q, v: (q - theta * v, q + (1.0 - theta) * v),
        inverse_fn=lambda a, b: ((1.0 - theta) * a + theta * b, b - a),
        jacobian_fn=lambda q, v: np.broadcast_to(jac, q.shape[:-1] + jac.shape),
        jacobian_constant=True,
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

    def jac(q, xi):
        w = q + xi
        nw = np.sqrt(rowdot(w, w))[..., None]
        what = w / nw
        M = (np.eye(3) - what[..., :, None] * what[..., None, :]) / nw[..., None]
        J = np.zeros(M.shape[:-2] + (6, 6))
        J[..., :3, :3] = np.eye(3)
        J[..., 3:, :3] = J[..., 3:, 3:] = M
        return J

    def validate(q, xi):
        _check_sphere_point(q)
        _check_sphere_tangent(q, xi)

    return DiscretizationMap(
        dim=3,
        forward_fn=forward,
        inverse_fn=inverse,
        jacobian_fn=jac,
        fiber_basis_fn=_sphere_tangent_basis,
        validate_fn=validate,
        name="sphere-initial-point",
    )


def _sphere_exp(q: Array, eta: Array) -> Array:
    r = np.sqrt(rowdot(eta, eta))[..., None]
    # np.sinc(r/pi) = sin(r)/r, stable through r = 0.
    return np.cos(r) * q + np.sinc(r / math.pi) * eta


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
        _check_sphere_point(q)
        _check_sphere_tangent(q, xi)
        if np.any(0.5 * np.sqrt(rowdot(xi, xi)) >= math.pi):
            raise DomainViolation("|xi|/2 must stay below pi for the exponential pair to be injective")

    return DiscretizationMap(
        dim=3,
        forward_fn=forward,
        inverse_fn=inverse,
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


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi].  Applied only at input/output boundaries, never inside
    an integration loop."""
    w = math.fmod(theta + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


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
        forward_fn=forward,
        inverse_fn=inverse,
        fiber_frame_fn=frame,
        name="se2-exp",
    )


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomCheckEntry:
    index: int
    condition1_defect: float
    condition2_defect: float
    ok: bool


@dataclass(frozen=True)
class AxiomReport:
    name: str
    tol: float
    entries: Sequence[AxiomCheckEntry] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def max_condition1(self) -> float:
        return worst_defect([e.condition1_defect for e in self.entries])

    @property
    def max_condition2(self) -> float:
        return worst_defect([e.condition2_defect for e in self.entries])

    def __str__(self):
        status = "ok" if self.passed else "FAILED"
        return (
            f"axioms[{self.name}] {status}: {len(self.entries)} samples, "
            f"defects ({self.max_condition1:.2e}, {self.max_condition2:.2e}), tol {self.tol:.1e}"
        )


def verify_discretization_axioms(D: DiscretizationMap, samples, tol: float = 1e-7, eps: float = 1e-6) -> AxiomReport:
    """Check both defining conditions of a discretization map at the given base
    points.

    Condition 2 is probed by central differences along ``D.fiber_basis(q)``; the
    difference of the two directional derivatives must reproduce the fiber
    direction expressed in chart coordinates through ``D.fiber_frame(q)``.
    Every sample's zero probe and its +-step u probes go through one checked
    ``D.forward`` call, one row each.
    """
    Q = np.array([as_vector(q, name="sample") for q in samples])
    basis = D.fiber_basis(Q)  # (samples, k, dim)
    k = basis.shape[1]
    step = eps * np.maximum(1.0, np.max(np.abs(Q), axis=-1))[:, None, None]
    V = step * basis
    probes = np.concatenate([np.zeros_like(V[:, :1]), V, -V], axis=1)  # (samples, 2k + 1, dim)
    A, B = D.forward(np.broadcast_to(Q[:, None], probes.shape), probes)
    c1 = np.maximum(np.max(np.abs(A[:, 0] - Q), axis=-1), np.max(np.abs(B[:, 0] - Q), axis=-1))
    diff = ((B[:, 1 : k + 1] - B[:, k + 1 :]) - (A[:, 1 : k + 1] - A[:, k + 1 :])) / (2.0 * step)
    c2 = np.max(np.abs(diff - matvec(D.fiber_frame(Q)[:, None], basis)), axis=(1, 2))
    entries = [AxiomCheckEntry(i, float(a), float(b), bool(a <= tol and b <= tol)) for i, (a, b) in enumerate(zip(c1, c2))]
    return AxiomReport(name=D.name, tol=tol, entries=tuple(entries))

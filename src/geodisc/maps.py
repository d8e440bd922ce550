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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation
from .numeric import as_vector, jacobian_fd, worst_defect

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
    the smooth ambient extension.
    """

    dim: int
    forward_fn: Callable[[Array, Array], tuple[Array, Array]]
    inverse_fn: Callable[[Array, Array], tuple[Array, Array]]
    jacobian_fn: Callable[[Array, Array], Array] | None = None
    jacobian_constant: bool = False
    fiber_basis_fn: Callable[[Array], list[Array]] | None = None
    fiber_frame_fn: Callable[[Array], Array] | None = None
    validate_fn: Callable[[Array, Array], None] | None = None
    name: str = ""

    def forward(self, q, v) -> tuple[Array, Array]:
        q = as_vector(q, name="q")
        v = as_vector(v, name="v")
        if q.size != self.dim or v.size != self.dim:
            raise ValueError(f"{self.name or 'map'} expects vectors of length {self.dim}")
        if self.validate_fn is not None:
            self.validate_fn(q, v)
        a, b = self.forward_fn(q, v)
        return as_vector(a, name="q_minus"), as_vector(b, name="q_plus")

    def inverse(self, q_minus, q_plus) -> tuple[Array, Array]:
        a = as_vector(q_minus, name="q_minus")
        b = as_vector(q_plus, name="q_plus")
        q, v = self.inverse_fn(a, b)
        return as_vector(q, name="q"), as_vector(v, name="v")

    # -- flat views used by lifts and finite differences -----------------
    def forward_flat(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        a, b = self.forward_fn(x[: self.dim], x[self.dim :])
        return np.concatenate([np.atleast_1d(a), np.atleast_1d(b)])

    def inverse_flat(self, y) -> Array:
        y = np.asarray(y, dtype=float)
        q, v = self.inverse_fn(y[: self.dim], y[self.dim :])
        return np.concatenate([np.atleast_1d(q), np.atleast_1d(v)])

    def jacobian_forward_flat(self, x) -> Array:
        """d(q_minus, q_plus)/d(q, v) at x = (q, v), closed form if available,
        else central FD."""
        x = np.asarray(x, dtype=float)
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(x[: self.dim], x[self.dim :]), dtype=float)
        return jacobian_fd(self.forward_flat, x)

    def jacobian_forward(self, q, v) -> Array:
        return self.jacobian_forward_flat(np.concatenate([as_vector(q, name="q"), as_vector(v, name="v")]))

    def fiber_basis(self, q) -> list[Array]:
        if self.fiber_basis_fn is not None:
            return self.fiber_basis_fn(as_vector(q, name="q"))
        return [row.copy() for row in np.eye(self.dim)]

    def fiber_frame(self, q) -> Array:
        if self.fiber_frame_fn is not None:
            return np.asarray(self.fiber_frame_fn(as_vector(q, name="q")), dtype=float)
        return np.eye(self.dim)


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
        jacobian_fn=lambda q, v: jac,
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
        jacobian_fn=lambda q, v: jac,
        jacobian_constant=True,
        name=f"theta(n={n}, theta={theta})",
    )


# ---------------------------------------------------------------------------
# unit sphere S^2 in R^3


def _check_sphere_point(q, what="q"):
    if abs(float(q @ q) - 1.0) > MANIFOLD_TOL:
        raise DomainViolation(f"{what} is not on the unit sphere (|{what}|^2 = {float(q @ q):.12f})")


def _check_sphere_tangent(q, xi):
    if abs(float(q @ xi)) > MANIFOLD_TOL:
        raise DomainViolation(f"xi is not tangent to the sphere at q (q . xi = {float(q @ xi):.3e})")


def _sphere_tangent_basis(q: Array) -> list[Array]:
    """Deterministic orthonormal basis of the tangent plane at q."""
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(q)))] = 1.0
    u = axis - (axis @ q) * q
    u = u / np.linalg.norm(u)
    w = np.cross(q, u)
    return [u, w]


def sphere_initial_point_map() -> DiscretizationMap:
    """Sphere map keeping the first output at the base point:
    (q, xi) -> (q, (q + xi)/|q + xi|)."""

    def forward(q, xi):
        w = q + xi
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            raise DomainViolation("q + xi vanishes, no direction to normalize")
        return q.copy(), w / nw

    def inverse(a, b):
        _check_sphere_point(a, "q_minus")
        _check_sphere_point(b, "q_plus")
        d = float(a @ b)
        if d <= 1e-12:
            raise DomainViolation("inverse needs the pair on one open hemisphere (q . q_plus > 0)")
        return a.copy(), b / d - a

    def jac(q, xi):
        w = q + xi
        nw = np.linalg.norm(w)
        what = w / nw
        M = (np.eye(3) - np.outer(what, what)) / nw
        Z = np.zeros((3, 3))
        return np.block([[np.eye(3), Z], [M, M]])

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
    r = float(np.linalg.norm(eta))
    # np.sinc(r/pi) = sin(r)/r, stable through r = 0.
    return math.cos(r) * q + np.sinc(r / math.pi) * eta


def sphere_geodesic_midpoint_map() -> DiscretizationMap:
    """Sphere map placing (q, xi) at the geodesic midpoint of the output pair:
    (q, xi) -> (exp_q(-xi/2), exp_q(xi/2))."""

    def forward(q, xi):
        return _sphere_exp(q, -0.5 * xi), _sphere_exp(q, 0.5 * xi)

    def inverse(a, b):
        _check_sphere_point(a, "q_minus")
        _check_sphere_point(b, "q_plus")
        m = a + b
        nm = np.linalg.norm(m)
        if nm < 1e-9:
            raise DomainViolation("cannot invert: endpoints are antipodal or a quarter turn apart")
        q = m / nm
        w = b - float(q @ b) * q
        nw = np.linalg.norm(w)
        if nw < 1e-15:
            return q, np.zeros(3)
        half_angle = math.atan2(nw, float(q @ b))
        return q, (2.0 * half_angle / nw) * w

    def validate(q, xi):
        _check_sphere_point(q)
        _check_sphere_tangent(q, xi)
        if 0.5 * float(np.linalg.norm(xi)) >= math.pi:
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


def _rot(theta: float) -> Array:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def se2_exp(xi: Array) -> Array:
    """Group exponential of (v1, v2, omega): translation part V(omega) @ (v1, v2).

    Uses 1 - cos(w) = 2 sin^2(w/2) so the translation block stays accurate
    through omega = 0 without an explicit series branch.
    """
    v1, v2, w = float(xi[0]), float(xi[1]), float(xi[2])
    A = np.sinc(w / math.pi)                      # sin(w)/w
    B = math.sin(0.5 * w) * np.sinc(0.5 * w / math.pi)  # (1 - cos(w))/w
    return np.array([A * v1 - B * v2, B * v1 + A * v2, w])


def se2_log(g: Array) -> Array:
    """Inverse of :func:`se2_exp`; requires the rotation angle in (-pi, pi)."""
    x, y, w = float(g[0]), float(g[1]), float(g[2])
    if abs(w) >= math.pi:
        raise DomainViolation(f"se2 log needs |theta| < pi, got {w:.6f}")
    A = np.sinc(w / math.pi)
    B = math.sin(0.5 * w) * np.sinc(0.5 * w / math.pi)
    det = np.sinc(0.5 * w / math.pi) ** 2         # A^2 + B^2 = (2 - 2 cos w)/w^2
    return np.array([(A * x + B * y) / det, (-B * x + A * y) / det, w])


def se2_mul(g1: Array, g2: Array) -> Array:
    xy = g1[:2] + _rot(float(g1[2])) @ g2[:2]
    return np.array([xy[0], xy[1], float(g1[2]) + float(g2[2])])


def se2_inv(g: Array) -> Array:
    xy = -(_rot(-float(g[2])) @ g[:2])
    return np.array([xy[0], xy[1], -float(g[2])])


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
        F = np.eye(3)
        F[:2, :2] = _rot(float(g[2]))
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
    """
    entries = []
    for i, q in enumerate(samples):
        q = as_vector(q, name="sample")
        zero = np.zeros(D.dim)
        a, b = D.forward(q, zero)
        c1 = worst_defect([np.max(np.abs(a - q)), np.max(np.abs(b - q))])
        frame = D.fiber_frame(q)
        step = eps * max(1.0, float(np.max(np.abs(q))))
        fiber_defects = []
        for u in D.fiber_basis(q):
            ap, bp = D.forward(q, step * u)
            am, bm = D.forward(q, -step * u)
            diff = ((bp - bm) - (ap - am)) / (2.0 * step)
            fiber_defects.append(np.max(np.abs(diff - frame @ u)))
        c2 = worst_defect(fiber_defects)
        entries.append(AxiomCheckEntry(i, c1, c2, c1 <= tol and c2 <= tol))
    return AxiomReport(name=D.name, tol=tol, entries=tuple(entries))

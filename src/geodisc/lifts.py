"""Lifts of discretization maps: higher-order and cotangent.

Lifting moves a discretization map between spaces:

* :func:`higher_order_lift` pushes order-k jets through the map; order 1
  is the tangent lift, which discretizes velocity dynamics.  In flat chart
  coordinates a tangent vector to the order-k jet space is zipped into the
  jet of a tangent-bundle curve (:func:`~geodisc.jets.zip_jet_tangent`),
  pushed forward slot by slot and unzipped into the flat pair of jets.
* :func:`cotangent_lift` turns a discretization map on a space M into one on
  its phase space T*M.  Covectors ride along the inverse transpose of the base
  Jacobian; the resulting map is a symplectomorphism between the tangent lift
  of the canonical symplectic form and the difference of the two pullbacks on
  the product, which :func:`check_symplectomorphism` verifies numerically.

Every lift is implemented by its unchecked flat maps (``forward_flat``,
``inverse_flat``, ``jacobian_forward_flat``) and reaches its base only
through the base's flat maps.  Every flat map also takes rows (..., k), one
point per row, each with the bits of its one-point value.  A lift that
inverts a base Jacobian or transports covectors by it raises
:class:`~geodisc.errors.SingularJacobian` when that Jacobian is singular to
working precision.  The closed form of the lifted midpoint map, the
independent test oracle, is
:func:`geodisc.checks.midpoint_cotangent_closed_form`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularJacobian, UnsupportedOrder
from .jets import jet_pushforward, unzip_jet_tangent, zip_jet_tangent
from .maps import DiscretizationMap, midpoint_map
from .numeric import MAX_TAYLOR_ORDER, matvec, row_jacobian_fd, worst_defect

Array = np.ndarray

#: Largest condition number of a base Jacobian that a lift inverts: LAPACK
#: raises only on an exactly zero pivot and returns garbage near one.
_MAX_CONDITION = 1.0 / np.sqrt(np.finfo(float).eps)


def _invertible(J: Array, what: str) -> Array:
    """J (one matrix or one per row), checked to be invertible to working
    precision.  The 1-norm condition number takes an LU inverse, not an SVD,
    and is nan for a non-finite J, which fails the check."""
    if not np.all(np.linalg.cond(J, 1) <= _MAX_CONDITION):
        raise SingularJacobian(f"base Jacobian is singular, {what}")
    return J


class HigherOrderDiscretizationMap:
    """Order-k lift of a base discretization map.

    Maps a tangent vector to the order-k jet space, flat as the base jet z
    and the fiber velocity zdot, to a pair of order-k jets, flat as
    (z_minus, z_plus), by pushing the zipped jet through the base map.  A
    base with a constant Jacobian gives an affine lift, precomputed as a
    matrix so that evaluations are exact and cheap; any other base is pushed
    through its flat maps, with derivatives from its ``jacobian_forward_flat``
    (inverted at the preimage for the inverse jets).
    """

    def __init__(self, base: DiscretizationMap, order: int):
        if not isinstance(order, (int, np.integer)) or order < 0 or order > MAX_TAYLOR_ORDER:
            raise UnsupportedOrder(f"lift order must be an integer in [0, {MAX_TAYLOR_ORDER}], got {order!r}")
        self.base = base
        self.order = int(order)
        self.jacobian_constant = base.jacobian_constant
        self.dim = (self.order + 1) * base.dim
        self.name = f"lift{self.order}({base.name})" if base.name else f"lift{self.order}"
        if self.jacobian_constant:
            zero = np.zeros(2 * base.dim)
            J = base.jacobian_forward_flat(zero)
            offset = base.forward_flat(zero)
            self._forward_affine = self._assemble_affine(J, offset)
            Jinv = np.linalg.inv(J)
            self._inverse_affine = self._assemble_affine(Jinv, -Jinv @ offset)

    def _assemble_affine(self, J: Array, offset: Array) -> tuple[Array, Array]:
        """Affine representation of the lifted flat map when the base map is
        x -> J x + offset: J acts on every zipped slot, the offset on slot 0."""
        slots = zip_jet_tangent(np.arange(2 * self.dim), self.order)
        M = np.zeros((2 * self.dim, 2 * self.dim))
        M[slots[:, :, None], slots[:, None, :]] = J
        d = np.zeros(2 * self.dim)
        d[slots[0]] = offset
        return M, d

    def _zipped(self, x: Array) -> Array:
        """x (..., 2 dim) as the jet (..., order + 1, 2 n) of a tangent-bundle curve."""
        if x.shape[-1] != 2 * self.dim:
            raise ValueError(f"{self.name} expects {2 * self.dim} entries, got {x.shape[-1]}")
        return zip_jet_tangent(x, self.order)

    def forward_flat(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        if self.jacobian_constant:
            M, d = self._forward_affine
            return matvec(M, x) + d
        base = self.base
        jets = jet_pushforward(base.forward_flat, self._zipped(x), jacobian=lambda x0, _: base.jacobian_forward_flat(x0))
        return unzip_jet_tangent(jets)

    def inverse_flat(self, y) -> Array:
        y = np.asarray(y, dtype=float)
        if self.jacobian_constant:
            M, d = self._inverse_affine
            return matvec(M, y) + d
        base = self.base

        def jacobian(y0: Array, x0: Array) -> Array:
            # The base inverse's Jacobian is the inverse of the forward one at the preimage x0.
            return np.linalg.inv(_invertible(base.jacobian_forward_flat(x0), "inverse jets undefined"))

        return unzip_jet_tangent(jet_pushforward(base.inverse_flat, self._zipped(y), jacobian=jacobian))

    def jacobian_forward_flat(self, x) -> Array:
        x = np.asarray(x, dtype=float)
        if self.jacobian_constant:
            M = self._forward_affine[0]
            return np.broadcast_to(M, x.shape[:-1] + M.shape).copy()
        return row_jacobian_fd(self.forward_flat, x)

    def as_discretization_map(self) -> DiscretizationMap:
        """View the lifted map as a plain discretization map on R^dim."""
        return DiscretizationMap(
            dim=self.dim,
            forward_fn=lambda z, zdot: np.split(self.forward_flat(np.concatenate([z, zdot], axis=-1)), 2, axis=-1),
            inverse_fn=lambda a, b: np.split(self.inverse_flat(np.concatenate([a, b], axis=-1)), 2, axis=-1),
            jacobian_fn=lambda z, zdot: self.jacobian_forward_flat(np.concatenate([z, zdot], axis=-1)),
            jacobian_constant=self.jacobian_constant,
            name=self.name,
        )


def higher_order_lift(D: DiscretizationMap, order: int) -> HigherOrderDiscretizationMap:
    """Lift a discretization map to order-k jet spaces."""
    return HigherOrderDiscretizationMap(D, order)


class CotangentLiftedMap:
    """Phase-space lift of a discretization map on M = R^m.

    Maps a tangent vector (m, p, mdot, pdot) of T*M to a pair of phase points
    ((m0, p0), (m1, p1)).  The point pair is the base map applied to (m, mdot);
    the covectors solve, with J the base Jacobian at (m, mdot) and covectors as
    rows,

        (-p0, p1) = (pdot, p) . J^{-1}        (forward)
        (pdot, p) = (-p0, p1) . J             (inverse)

    The flat maps are the implementation and use only the base's flat
    interface (``forward_flat``, ``inverse_flat``, ``jacobian_forward_flat``),
    so the base may be a :class:`DiscretizationMap` or a
    :class:`HigherOrderDiscretizationMap` and probes may leave its manifold.
    For a base with a constant Jacobian both directions are affine maps,
    built once here and exposed read-only as ``affine_forward = (F, f)``
    (x -> F x + f) and ``affine_inverse = (K, k)`` (y -> K y + k), None for
    any other base, which takes the formulas above.  The flat maps take one
    point or the rows of an (..., 4m) array, each row with the bits of its
    one-point value, and the one-step method folds K and k into its own
    matrices.  ``forward`` and ``inverse`` name the same flat maps for
    perfbench's tracer, which wraps methods of those names.
    The construction makes the map a discretization map on T*M in its own
    right (see ``as_discretization_map``) and a symplectomorphism, checked by
    :func:`check_symplectomorphism`.
    """

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.name = f"cotangent({base.name})" if base.name else "cotangent"
        self.affine_forward = self.affine_inverse = None
        if base.jacobian_constant:
            # Both directions are affine.  With J the constant base Jacobian:
            # forward x -> F x + f, (m0, m1) = J (m, mdot) + const and
            # (-p0, p1) = J^{-T} (pdot, p); inverse y -> K y + k,
            # (m, mdot) = J^{-1} (m0, m1) + const and (pdot, p) = J^T (-p0, p1).
            # f and k are the composed maps at 0.
            d = self.dim
            J = base.jacobian_forward_flat(np.zeros(2 * d))
            Jinv = np.linalg.inv(J)
            points = np.r_[0:d, 2 * d : 3 * d]  # (m, mdot) and (m0, m1)
            covectors = np.r_[d : 2 * d, 3 * d : 4 * d]  # (p0, p1)
            dual = np.r_[3 * d : 4 * d, d : 2 * d]  # (pdot, p)
            signs = np.r_[-np.ones(d), np.ones(d)]
            F = np.zeros((4 * d, 4 * d))
            F[np.ix_(points, points)] = J
            F[np.ix_(covectors, dual)] = Jinv.T * signs[:, None]
            K = np.zeros((4 * d, 4 * d))
            K[np.ix_(points, points)] = Jinv
            K[np.ix_(dual, covectors)] = J.T * signs
            f = self._composed_forward_flat(np.zeros(4 * d))
            k = self._composed_inverse_flat(np.zeros(4 * d))
            for a in (F, f, K, k):
                a.setflags(write=False)
            self.affine_forward, self.affine_inverse = (F, f), (K, k)

    # -- flat maps: input (m, p, mdot, pdot), output (m0, p0, m1, p1) -----
    def forward_flat(self, x) -> Array:
        if self.affine_forward is not None:
            F, f = self.affine_forward
            return matvec(F, np.asarray(x, dtype=float)) + f
        return self._composed_forward_flat(x)

    def _composed_forward_flat(self, x) -> Array:
        """The forward map through the base's flat maps, for any base."""
        x = np.asarray(x, dtype=float)
        d = self.dim
        base_x = np.concatenate([x[..., :d], x[..., 2 * d : 3 * d]], axis=-1)
        pair = self.base.forward_flat(base_x)
        J = _invertible(self.base.jacobian_forward_flat(base_x), "covector transport undefined")
        b = np.concatenate([x[..., 3 * d :], x[..., d : 2 * d]], axis=-1)
        c = np.linalg.solve(np.swapaxes(J, -1, -2), b[..., None])[..., 0]
        return np.concatenate([pair[..., :d], -c[..., :d], pair[..., d:], c[..., d:]], axis=-1)

    def inverse_flat(self, y) -> Array:
        if self.affine_inverse is not None:
            K, k = self.affine_inverse
            return matvec(K, np.asarray(y, dtype=float)) + k
        return self._composed_inverse_flat(y)

    def _composed_inverse_flat(self, y) -> Array:
        """The inverse through the base's flat maps, for any base."""
        y = np.asarray(y, dtype=float)
        d = self.dim
        base_x = self.base.inverse_flat(np.concatenate([y[..., :d], y[..., 2 * d : 3 * d]], axis=-1))
        J = _invertible(self.base.jacobian_forward_flat(base_x), "covector transport undefined")
        JT = np.swapaxes(J, -1, -2)
        col = matvec(JT, np.concatenate([-y[..., d : 2 * d], y[..., 3 * d :]], axis=-1))
        return np.concatenate([base_x[..., :d], col[..., d:], base_x[..., d:], col[..., :d]], axis=-1)

    forward, inverse = forward_flat, inverse_flat

    def inverse_jacobian_flat(self, y) -> Array:
        """d(m, p, mdot, pdot)/d(m0, p0, m1, p1) at y, one matrix per row:
        the constant matrix K built once when the base Jacobian is constant,
        else central differences of ``inverse_flat``."""
        y = np.asarray(y, dtype=float)
        if self.affine_inverse is not None:
            K = self.affine_inverse[0]
            return np.broadcast_to(K, y.shape[:-1] + K.shape).copy()
        return row_jacobian_fd(self.inverse_flat, y)

    def as_discretization_map(self) -> DiscretizationMap:
        """The lifted map is itself a discretization map on T*M = R^{2m}: its
        flat layout is (z, zdot) -> (a, b) with z = (m, p), zdot = (mdot, pdot)."""
        return DiscretizationMap(
            dim=2 * self.dim,
            forward_fn=lambda z, zdot: np.split(self.forward_flat(np.concatenate([z, zdot], axis=-1)), 2, axis=-1),
            inverse_fn=lambda a, b: np.split(self.inverse_flat(np.concatenate([a, b], axis=-1)), 2, axis=-1),
            name=self.name,
        )


def cotangent_lift(D) -> CotangentLiftedMap:
    """Lift a discretization map on M to the phase space T*M."""
    return CotangentLiftedMap(D)


def second_order_phase_map(n: int, base: DiscretizationMap | None = None) -> CotangentLiftedMap:
    """Discretization map on the phase space of second-order dynamics on R^n:
    the cotangent lift of the first-order lift of a base map (midpoint unless
    overridden)."""
    return cotangent_lift(higher_order_lift(midpoint_map(n) if base is None else base, 1))


# ---------------------------------------------------------------------------
# symplectic structure matrices and the symplectomorphism check


def canonical_symplectic_matrix(d: int) -> Array:
    """Matrix of sum_i dx^i wedge dp_i in coordinates (x, p) on R^{2d}."""
    O = np.zeros((2 * d, 2 * d))
    O[:d, d:] = np.eye(d)
    O[d:, :d] = -np.eye(d)
    return O


def pair_symplectic_matrix(d: int) -> Array:
    """Difference of the canonical forms pulled back from the two factors, in
    coordinates (m0, p0, m1, p1): minus the canonical block on the first pair,
    plus on the second."""
    w = canonical_symplectic_matrix(d)
    O = np.zeros((4 * d, 4 * d))
    O[: 2 * d, : 2 * d] = -w
    O[2 * d :, 2 * d :] = w
    return O


def tangent_lifted_symplectic_matrix(d: int) -> Array:
    """Matrix of the tangent lift of the canonical form in coordinates
    (m, p, mdot, pdot): dm wedge dpdot plus dmdot wedge dp."""
    I = np.eye(d)
    O = np.zeros((4 * d, 4 * d))
    O[0 * d : 1 * d, 3 * d : 4 * d] = I   # dm ^ dpdot
    O[3 * d : 4 * d, 0 * d : 1 * d] = -I
    O[2 * d : 3 * d, 1 * d : 2 * d] = I   # dmdot ^ dp
    O[1 * d : 2 * d, 2 * d : 3 * d] = -I
    return O


#: Samples whose probes go to the forward map in one call.  More hold more
#: memory (100 samples at 4m = 24: 3.4 MB) and run no faster.
_SAMPLES_PER_CALL = 10


@dataclass(frozen=True)
class SymplectomorphismReport:
    name: str
    tol: float
    defects: Sequence[float]

    @property
    def max_defect(self) -> float:
        return worst_defect(self.defects)

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tol

    def __str__(self):
        status = "ok" if self.passed else "FAILED"
        return f"symplectomorphism[{self.name}] {status}: max defect {self.max_defect:.2e}, tol {self.tol:.1e}"


def check_symplectomorphism(C, samples, tol: float = 1e-6, eps: float | None = None) -> SymplectomorphismReport:
    """Verify numerically that a cotangent-lifted map sends the tangent lift of
    the canonical form to the paired difference form.

    For each sample x in R^{4m}, one row of ``samples`` (k, 4m), the
    finite-difference Jacobian S of the flat forward map must satisfy
    S^T Omega_pair S = Omega_tangent.  Raises ValueError unless the samples
    are such rows, all finite.  The map takes the probes of up to
    ``_SAMPLES_PER_CALL`` samples as one array (:func:`row_jacobian_fd`).
    A nan defect fails the report.
    """
    d = C.dim
    target = tangent_lifted_symplectic_matrix(d)
    pair = pair_symplectic_matrix(d)
    X = np.asarray(samples, dtype=float)
    if X.size and (X.ndim != 2 or X.shape[1] != 4 * d):
        raise ValueError(f"samples must be rows (k, {4 * d}), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("sample contains non-finite entries")
    defects = []
    for i in range(0, len(X), _SAMPLES_PER_CALL):
        S = row_jacobian_fd(C.forward_flat, X[i : i + _SAMPLES_PER_CALL], eps=eps)
        defects += np.max(np.abs(np.swapaxes(S, -1, -2) @ pair @ S - target), axis=(1, 2)).tolist()
    return SymplectomorphismReport(name=getattr(C, "name", "map"), tol=tol, defects=tuple(defects))

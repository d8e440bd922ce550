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
  the product; :func:`symplectomorphism_defects` measures how far a map is
  from that, and :mod:`geodisc.checks` holds the tolerance that judges it.

Every lift is itself a :class:`~geodisc.maps.DiscretizationMap` given by
its flat maps, so the checked views, the axioms and the finite-difference
Jacobian apply to it as to its base; a cotangent lift is a
:class:`CotangentLiftedMap` on T*M, whose ``dim`` is 2m, not m.  Every lift
reaches its base only through the base's unchecked flat maps
(``forward_flat``, ``inverse_flat``, ``jacobian_forward_flat``) and the
matrices of its ``affine``, placed into the lift's own.  Every flat map also
takes rows (..., k), one point per row, each with the bits of its one-point
value.  A lift that inverts a base Jacobian or transports
covectors by it raises :class:`~geodisc.errors.SingularJacobian` when that
Jacobian is singular to working precision.  The closed form of the lifted
midpoint map, the independent test oracle, is
:func:`geodisc.checks.midpoint_cotangent_closed_form`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularJacobian, UnsupportedOrder
from .jets import jet_pushforward, unzip_jet_tangent, zip_jet_tangent
from .maps import DiscretizationMap, memoized, midpoint_map
from .numeric import MAX_TAYLOR_ORDER, jacobian_fd, matvec

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


def _affine_lift(J: Array, offset: Array, order: int) -> tuple[Array, Array]:
    """The order-k lift of the base map x -> J x + offset, as (M, d) for the
    flat map x -> M x + d: J acts on every zipped slot, the offset on slot 0."""
    slots = zip_jet_tangent(np.arange((order + 1) * offset.size), order)
    M = np.zeros((slots.size, slots.size))
    M[slots[:, :, None], slots[:, None, :]] = J
    d = np.zeros(slots.size)
    d[slots[0]] = offset
    return M, d


@memoized
def higher_order_lift(D: DiscretizationMap, order: int) -> DiscretizationMap:
    """The order-k lift of a discretization map, a discretization map on the
    order-k jets R^((k + 1) dim).

    It maps a tangent vector to the order-k jet space, flat as the base jet z
    and the fiber velocity zdot, to a pair of order-k jets, flat as
    (z_minus, z_plus), by pushing the zipped jet through the base map.  An
    affine base gives an affine lift, the base's ``affine`` placed on every
    zipped slot with nothing evaluated or inverted; any other base is pushed
    through its flat maps, with derivatives from its ``jacobian_forward_flat``
    (inverted at the preimage for the inverse jets), and the lift's own
    Jacobian is taken by central differences.  An affine lift, a matrix,
    takes orders up to 4, any other up to ``MAX_TAYLOR_ORDER`` = 2.
    """
    top = 4 if D.affine is not None else MAX_TAYLOR_ORDER
    if not isinstance(order, (int, np.integer)) or order < 0 or order > top:
        raise UnsupportedOrder(f"lift order must be an integer in [0, {top}], got {order!r}")
    k = int(order)
    dim = (k + 1) * D.dim
    name = f"lift{k}({D.name})" if D.name else f"lift{k}"
    if D.affine is not None:
        (M, d), (Minv, dinv) = _affine_lift(*D.affine[:2], k), _affine_lift(*D.affine[2:], k)
        return DiscretizationMap(dim, affine=(M, d, Minv, dinv), name=name)

    def zipped(x) -> Array:
        """x (..., 2 dim) as the jet (..., k + 1, 2 n) of a tangent-bundle curve."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2 * dim:
            raise ValueError(f"{name} expects {2 * dim} entries, got {x.shape[-1]}")
        return zip_jet_tangent(x, k)

    def forward(x) -> Array:
        jacobian = lambda x0, _: D.jacobian_forward_flat(x0)
        return unzip_jet_tangent(jet_pushforward(D.forward_flat, zipped(x), jacobian=jacobian))

    def inverse(y) -> Array:
        def jacobian(y0: Array, x0: Array) -> Array:
            # The base inverse's Jacobian is the inverse of the forward one at the preimage x0.
            return np.linalg.inv(_invertible(D.jacobian_forward_flat(x0), "inverse jets undefined"))

        return unzip_jet_tangent(jet_pushforward(D.inverse_flat, zipped(y), jacobian=jacobian))

    return DiscretizationMap(dim, forward, inverse, name=name)


@dataclass(frozen=True, eq=False)
class CotangentLiftedMap(DiscretizationMap):
    """A discretization map on T*M = R^2m lifted from one on M = R^m by
    :func:`cotangent_lift`; ``dim`` is 2m.

    Its flat maps take (m, p, mdot, pdot), the point z = (m, p) and the fiber
    velocity zdot = (mdot, pdot), to the phase-point pair (m0, p0, m1, p1)
    and back.  The point pair is the base map at (m, mdot); the covectors
    solve, with J the base Jacobian at (m, mdot) and covectors as rows,

        (-p0, p1) = (pdot, p) . J^{-1}        (forward)
        (pdot, p) = (-p0, p1) . J             (inverse)

    The map is a symplectomorphism (:func:`symplectomorphism_defects`).
    """


@memoized
def cotangent_lift(D: DiscretizationMap) -> CotangentLiftedMap:
    """The lift of a discretization map D on M = R^m to the phase space T*M.

    It reaches D only through its unchecked flat maps, so D may be any
    discretization map, a higher-order lift included, and probes may leave
    its manifold.  An affine D gives an affine lift, x -> F x + f and
    y -> K y + k placed once from J and J^{-1} in ``D.affine``; any other D
    takes the composed maps, forward with one batched solve against J^T.
    """
    m = D.dim
    name = f"cotangent({D.name})" if D.name else "cotangent"

    def forward(x) -> Array:
        x = np.asarray(x, dtype=float)
        base_x = np.concatenate([x[..., :m], x[..., 2 * m : 3 * m]], axis=-1)
        pair = D.forward_flat(base_x)
        J = _invertible(D.jacobian_forward_flat(base_x), "covector transport undefined")
        b = np.concatenate([x[..., 3 * m :], x[..., m : 2 * m]], axis=-1)
        c = np.linalg.solve(np.swapaxes(J, -1, -2), b[..., None])[..., 0]
        return np.concatenate([pair[..., :m], -c[..., :m], pair[..., m:], c[..., m:]], axis=-1)

    def inverse(y) -> Array:
        y = np.asarray(y, dtype=float)
        base_x = D.inverse_flat(np.concatenate([y[..., :m], y[..., 2 * m : 3 * m]], axis=-1))
        J = _invertible(D.jacobian_forward_flat(base_x), "covector transport undefined")
        col = matvec(np.swapaxes(J, -1, -2), np.concatenate([-y[..., m : 2 * m], y[..., 3 * m :]], axis=-1))
        return np.concatenate([base_x[..., :m], col[..., m:], base_x[..., m:], col[..., :m]], axis=-1)

    if D.affine is None:
        return CotangentLiftedMap(2 * m, forward, inverse, name=name)
    # Affine both ways, with (J, J^{-1}) the base's (F, K): forward
    # (m0, m1) = J (m, mdot) + const, (-p0, p1) = J^{-T} (pdot, p); inverse
    # (m, mdot) = J^{-1} (m0, m1) + const, (pdot, p) = J^T (-p0, p1).  f and
    # k are the composed maps at 0.
    J, _, Jinv, _ = D.affine
    points = np.r_[0:m, 2 * m : 3 * m]  # (m, mdot) and (m0, m1)
    covectors = np.r_[m : 2 * m, 3 * m : 4 * m]  # (p0, p1)
    dual = np.r_[3 * m : 4 * m, m : 2 * m]  # (pdot, p)
    signs = np.r_[-np.ones(m), np.ones(m)]
    F = np.zeros((4 * m, 4 * m))
    F[np.ix_(points, points)] = J
    F[np.ix_(covectors, dual)] = Jinv.T * signs[:, None]
    K = np.zeros((4 * m, 4 * m))
    K[np.ix_(points, points)] = Jinv
    K[np.ix_(dual, covectors)] = J.T * signs
    f, k = forward(np.zeros(4 * m)), inverse(np.zeros(4 * m))
    return CotangentLiftedMap(2 * m, affine=(F, f, K, k), name=name)


@memoized
def second_order_phase_map(n: int, base: DiscretizationMap | None = None) -> CotangentLiftedMap:
    """Discretization map on the phase space of second-order dynamics on R^n:
    the cotangent lift of the first-order lift of a base map (midpoint unless
    overridden)."""
    return cotangent_lift(higher_order_lift(midpoint_map(n) if base is None else base, 1))


# ---------------------------------------------------------------------------
# symplectic structure matrices and the symplectomorphism defects


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


def symplectomorphism_defects(C, samples, eps: float | None = None) -> Array:
    """How far a cotangent-lifted map is from sending the tangent lift of the
    canonical form to the paired difference form, one defect per sample.

    For each sample x in R^{4m} (C.dim = 2m), one row of ``samples`` (k, 4m), the defect is
    max |S^T Omega_pair S - Omega_tangent| with S the finite-difference
    Jacobian of the flat forward map; the result is a (k,) array.  Raises
    ValueError when no sample is given or the samples are not such rows, all
    finite.  The map takes the probes of up to ``_SAMPLES_PER_CALL`` samples
    as one array (:func:`jacobian_fd`).
    """
    d = C.dim // 2
    target = tangent_lifted_symplectic_matrix(d)
    pair = pair_symplectic_matrix(d)
    X = np.asarray(samples, dtype=float)
    if not X.size:
        raise ValueError("symplectomorphism_defects needs at least one sample, got none")
    if X.ndim != 2 or X.shape[1] != 4 * d:
        raise ValueError(f"samples must be rows (k, {4 * d}), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("sample contains non-finite entries")
    defects = []
    for i in range(0, len(X), _SAMPLES_PER_CALL):
        S = jacobian_fd(C.forward_flat, X[i : i + _SAMPLES_PER_CALL], eps=eps)
        defects.append(np.max(np.abs(np.swapaxes(S, -1, -2) @ pair @ S - target), axis=(1, 2)))
    return np.concatenate(defects)

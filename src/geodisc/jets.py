"""Jets of curves and their pushforwards.

A ``Jet`` of order k stores the raw derivatives (c(0), c'(0), ..., c^(k)(0))
of a curve c: R -> R^n; slot r is the plain r-th derivative, not the Taylor
coefficient.  A slot is one vector (n,) or a stack of them (..., n), one jet
per row; jets of row-valued curves, zipping and the chain backend keep the
rows apart, each with the bits of its one-point value.

``jet_pushforward`` maps the jet of c to the jet of F o c.  Two backends:

* ``"chain"`` (orders <= 2): explicit chain rule, using a closed-form Jacobian
  of F when supplied, central differences otherwise, and a fourth-order
  stencil for the second directional derivative.
* ``"curve"`` (orders <= 4): rebuild the polynomial curve, compose with F and
  differentiate the composition.  Slower and slightly less accurate, but fully
  independent of the chain-rule path, which makes it the oracle of choice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UnsupportedOrder
from .numeric import MAX_TAYLOR_ORDER, _eval_vector, jacobian_fd, matvec, row_jacobian_fd, rowdot, taylor_derivatives

Array = np.ndarray


def _coerce_slots(slots) -> tuple[Array, ...]:
    out = []
    for s in slots:
        v = np.atleast_1d(np.asarray(s, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("jet slot contains non-finite entries")
        out.append(v)
    if not out:
        raise ValueError("a jet needs at least the order-zero slot")
    if any(v.shape != out[0].shape for v in out):
        raise ValueError("jet slots must share one shape")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Jet:
    """Order-k jet of a curve in R^n (or one per row), stored as raw derivatives."""

    derivs: Sequence

    def __post_init__(self):
        object.__setattr__(self, "derivs", _coerce_slots(self.derivs))

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    @property
    def dim(self) -> int:
        return self.derivs[0].shape[-1]

    def slot(self, r: int) -> Array:
        return self.derivs[r]

    def flat(self) -> Array:
        return np.concatenate(self.derivs, axis=-1)

    @classmethod
    def from_flat(cls, x, order: int, dim: int) -> "Jet":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != (order + 1) * dim:
            raise ValueError(f"expected {(order + 1) * dim} entries, got {x.shape[-1]}")
        return cls(tuple(x[..., r * dim : (r + 1) * dim] for r in range(order + 1)))


@dataclass(frozen=True, eq=False)
class JetTangent:
    """A tangent vector to the space of order-k jets: a base jet plus a fiber
    velocity for every slot."""

    base: Jet
    fiber: Sequence

    def __post_init__(self):
        object.__setattr__(self, "fiber", _coerce_slots(self.fiber))
        if len(self.fiber) != len(self.base.derivs):
            raise ValueError("fiber must have one velocity per jet slot")
        if self.fiber[0].shape != self.base.derivs[0].shape:
            raise ValueError("fiber shape must match the base jet")

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def dim(self) -> int:
        return self.base.dim

    def flat(self) -> Array:
        return np.concatenate([self.base.flat(), *self.fiber], axis=-1)

    @classmethod
    def from_flat(cls, x, order: int, dim: int) -> "JetTangent":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        half = (order + 1) * dim
        if x.shape[-1] != 2 * half:
            raise ValueError(f"expected {2 * half} entries, got {x.shape[-1]}")
        return cls(
            Jet.from_flat(x[..., :half], order, dim),
            tuple(x[..., half + r * dim : half + (r + 1) * dim] for r in range(order + 1)),
        )


def zip_jet_tangent(xt: JetTangent) -> Jet:
    """Identify a tangent vector to jet space with a jet of a tangent-bundle
    curve: slot r of the result is (base_r, fiber_r) stacked.

    In flat coordinates this is a pure permutation; its inverse is
    :func:`unzip_jet_tangent`.
    """
    return Jet(tuple(np.concatenate([b, f], axis=-1) for b, f in zip(xt.base.derivs, xt.fiber)))


def unzip_jet_tangent(j: Jet) -> JetTangent:
    """Split a jet of a tangent-bundle curve back into base and fiber parts."""
    if j.dim % 2 != 0:
        raise ValueError("need an even-dimensional jet to unzip")
    n = j.dim // 2
    return JetTangent(
        Jet(tuple(d[..., :n] for d in j.derivs)),
        tuple(d[..., n:] for d in j.derivs),
    )


def jet_of_curve(c: Callable[[float], Array], order: int, method: str = "fd") -> Jet:
    """Order-k jet of a black-box curve at t = 0; a curve whose values are
    (..., n) rows gives one jet per row."""
    return Jet(tuple(taylor_derivatives(c, 0.0, order, method=method)))


def directional_second_derivative(F, x: Array, u: Array) -> Array:
    """d^2/dt^2 F(x + t u) at t = 0 via a fourth-order central stencil, at one
    point or along every row of (..., n) arrays, with a step per row.

    The probe direction is normalized so the step size is independent of |u|;
    a zero direction gives zero.
    """
    nu = np.sqrt(rowdot(u, u))[..., None]
    e = u / np.where(nu == 0.0, 1.0, nu)
    h = 6e-3 * np.maximum(1.0, np.max(np.abs(x), axis=-1, keepdims=True))
    v0 = _eval_vector(F, x)
    v1p = _eval_vector(F, x + h * e)
    v1m = _eval_vector(F, x - h * e)
    v2p = _eval_vector(F, x + 2 * h * e)
    v2m = _eval_vector(F, x - 2 * h * e)
    d2 = (-v2p + 16 * v1p - 30 * v0 + 16 * v1m - v2m) / (12 * h * h) * (nu * nu)
    return np.where(nu == 0.0, 0.0, d2)


def jet_pushforward(
    F: Callable[[Array], Array],
    j: Jet,
    method: str = "auto",
    jacobian: Callable[[Array], Array] | None = None,
) -> Jet:
    """Jet of F o c given the jet of c.

    ``jacobian`` supplies the closed-form Jacobian of F for the chain
    backend; without it the Jacobian is taken by central differences, for
    rows by :func:`~geodisc.numeric.row_jacobian_fd`.
    """
    k = j.order
    if method == "auto":
        method = "chain" if k <= 2 else "curve"
    if method == "chain":
        if k > 2:
            raise UnsupportedOrder("the chain backend covers jet orders <= 2; use method='curve'")
        x0 = j.derivs[0]
        slots = [_eval_vector(F, x0)]
        if k >= 1:
            fd = jacobian_fd if x0.ndim == 1 else row_jacobian_fd
            J = np.asarray(jacobian(x0), dtype=float) if jacobian is not None else fd(F, x0)
            slots.append(matvec(J, j.derivs[1]))
        if k >= 2:
            slots.append(directional_second_derivative(F, x0, j.derivs[1]) + matvec(J, j.derivs[2]))
        return Jet(tuple(slots))
    if method == "curve":
        if k > MAX_TAYLOR_ORDER:
            raise UnsupportedOrder(f"jet order {k} exceeds the supported maximum {MAX_TAYLOR_ORDER}")
        coeffs = [d / math.factorial(r) for r, d in enumerate(j.derivs)]

        def composed(t: float) -> Array:
            c = coeffs[-1]
            for a in coeffs[-2::-1]:
                c = a + t * c
            return F(c)

        return Jet(tuple(taylor_derivatives(composed, 0.0, k, method="fd")))
    raise ValueError(f"unknown method {method!r}, expected 'auto', 'chain' or 'curve'")

"""Jets of curves and their pushforwards.

An order-k jet of a curve c: R -> R^n is the array (c(0), c'(0), ...,
c^(k)(0)) of shape (k + 1, n): slot r, on axis -2, is the plain r-th
derivative, not the Taylor coefficient.  A stack (..., k + 1, n) holds one
jet per row; jets of row-valued curves and both pushforward rules keep the
rows apart, each with the bits of its one-point value.  A jet's flat layout
(..., (k + 1) n) is its reshape.

A tangent vector to the order-k jet space is flat as its base jet followed
by a fiber velocity per slot, (..., 2 (k + 1) n).  :func:`zip_jet_tangent`
turns it into the jet (..., k + 1, 2 n) of a tangent-bundle curve, slot r
being (base_r, fiber_r), and :func:`unzip_jet_tangent` undoes it; the same
pair turns a pair of jets into the jet of a pair curve and back.

``jet_pushforward`` maps the jet of c, of order at most 2, to the jet of
F o c by the chain rule, with the closed-form Jacobian of F and a
fourth-order stencil for the second directional derivative.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import UnsupportedOrder
from .numeric import MAX_TAYLOR_ORDER, matvec, rowdot, taylor_derivatives

Array = np.ndarray


def zip_jet_tangent(x, order: int) -> Array:
    """The flat tangent vector x (..., 2 (k + 1) n) to the order-k jet space
    as the jet (..., k + 1, 2 n) of a tangent-bundle curve: a permutation of
    the entries, undone by :func:`unzip_jet_tangent`."""
    *lead, size = np.shape(x)  # sizes, not -1, which numpy cannot infer on an empty stack
    x = np.swapaxes(np.reshape(x, (*lead, 2, order + 1, size // (2 * order + 2))), -3, -2)
    return x.reshape(*lead, order + 1, size // (order + 1))


def unzip_jet_tangent(j) -> Array:
    """The jet (..., k + 1, 2 n) of a tangent-bundle curve as the flat
    tangent vector (..., 2 (k + 1) n): base slots, then fiber slots."""
    *lead, slots, size = np.shape(j)
    return np.swapaxes(np.reshape(j, (*lead, slots, 2, size // 2)), -3, -2).reshape(*lead, slots * size)


def jet_of_curve(c: Callable[[float], Array], order: int) -> Array:
    """Order-k jet (k + 1, n) of a black-box curve at t = 0; a curve whose
    values are (..., n) rows gives one jet per row, (..., k + 1, n)."""
    return np.stack(taylor_derivatives(c, order), axis=-2)


def directional_second_derivative(F, x: Array, Fx: Array, u: Array) -> Array:
    """d^2/dt^2 F(x + t u) at t = 0 via a fourth-order central stencil, at one
    point or along every row of (..., n) arrays, with a step per row; ``Fx``
    is the value F(x), the stencil's centre.

    The probe direction is normalized so the step size is independent of |u|;
    a zero direction gives zero.
    """
    nu = np.sqrt(rowdot(u, u))[..., None]
    e = u / np.where(nu == 0.0, 1.0, nu)
    h = 6e-3 * np.maximum(1.0, np.max(np.abs(x), axis=-1, keepdims=True))
    v1p, v1m, v2p, v2m = (F(x + s * h * e) for s in (1, -1, 2, -2))  # x - h e rounds as x + (-h) e
    d2 = (-v2p + 16 * v1p - 30 * Fx + 16 * v1m - v2m) / (12 * h * h) * (nu * nu)
    return np.where(nu == 0.0, 0.0, d2)


def jet_pushforward(F: Callable[[Array], Array], j, jacobian: Callable[[Array, Array], Array]) -> Array:
    """Jet of F o c given the jet j (..., k + 1, n) of c, for k <= 2: the
    chain rule, (F(x0), J x1, d^2 F(x0)[x1, x1] + J x2), with J =
    ``jacobian(x0, F(x0))`` the closed-form Jacobian of F at the slot-0
    points (F's value there is passed along, so a callback that needs it need
    not evaluate F again) and the second directional derivative by
    :func:`directional_second_derivative`.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim < 2 or not np.isfinite(j).all():
        raise ValueError(f"a jet is a finite array of shape (..., order + 1, n), got shape {j.shape}")
    k = j.shape[-2] - 1
    if k > MAX_TAYLOR_ORDER:
        raise UnsupportedOrder(f"jet order {k} exceeds the supported maximum {MAX_TAYLOR_ORDER}")
    x0 = j[..., 0, :]
    y0 = np.asarray(F(x0), dtype=float)
    slots = [y0]
    if k >= 1:
        J = np.asarray(jacobian(x0, y0), dtype=float)
        slots.append(matvec(J, j[..., 1, :]))
    if k == 2:
        slots.append(directional_second_derivative(F, x0, y0, j[..., 1, :]) + matvec(J, j[..., 2, :]))
    return np.stack(slots, axis=-2)

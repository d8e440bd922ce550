"""Small dense numerics: Newton solves, finite-difference Jacobians and the
derivatives of curves.

Everything operates on plain 1-d numpy arrays and is pure; :func:`matvec`,
:func:`rowdot` and :func:`row_jacobian_fd` also take stacks of points, one per
row, and give every row the bits of its one-point value. The rest of
the package builds its maps, lifts and integrators on top of these helpers, so
the conventions fixed here (central differences, infinity-norm stopping tests)
propagate everywhere.  :func:`taylor_derivatives` differentiates a black-box
curve at 0 by central stencils up to order ``MAX_TAYLOR_ORDER`` = 2; the
jets of :mod:`geodisc.jets` take it for the jet of a curve.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    DomainViolation,
    EvaluationFailure,
    GeodiscError,
    NonConvergence,
    ObstaclePenetration,
    SingularJacobian,
    SingularPotential,
    UnsupportedOrder,
)

Array = np.ndarray
VectorFunc = Callable[[Array], Array]

#: Highest derivative order supported by ``taylor_derivatives`` (and therefore
#: by the jets pushed through a map that is not affine).
MAX_TAYLOR_ORDER = 2

# Errors that mean "this probe point was bad", as opposed to "the function is
# broken".  Damped iterations are allowed to back off when they see one.
EVALUATION_ERRORS = (EvaluationFailure, DomainViolation, SingularPotential, ObstaclePenetration)


def as_vector(x, *, name: str = "value") -> Array:
    """Coerce ``x`` to a finite 1-d float array, raising ``ValueError`` otherwise."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def matvec(A: Array, x: Array) -> Array:
    """A x for one point x (1-d) or for every row of x (shape (..., m));
    ``A`` is one matrix or one per row.  The rows go through the same
    matrix-vector kernel as a single point, so each row gets the bits of a
    one-point call (a matrix-matrix product rounds differently)."""
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


def rowdot(a: Array, b: Array) -> Array:
    """a . b for one pair of points or for every row of (..., m) arrays, by
    the matrix product of :func:`matvec`: each row gets the bits of the
    one-point ``a @ b`` (``np.linalg.norm(w, axis=-1)`` sums differently;
    take a row norm as ``np.sqrt(rowdot(w, w))``)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def worst_defect(values) -> float:
    """Largest of ``values``, 0.0 for none, and nan when any value is nan:
    the builtin ``max`` keeps its first argument against a nan, which would
    let a nan defect pass a ``<= tol`` test."""
    a = np.asarray(values, dtype=float)
    return float(a.max()) if a.size else 0.0


def _eval_vector(f, x) -> Array:
    """Evaluate ``f`` and coerce the result to a 1-d float array.

    Domain errors from inside the package propagate unchanged; any foreign
    exception is wrapped in :class:`EvaluationFailure`.
    """
    try:
        y = f(x)
    except GeodiscError:
        raise
    except Exception as exc:  # noqa: BLE001, deliberate firewall
        raise EvaluationFailure(f"callable failed at {x!r}: {exc}") from exc
    return np.atleast_1d(np.asarray(y, dtype=float))


def default_fd_step(x: Array) -> float | Array:
    """Default central-difference step, 1e-5 * max(1, ||x||_inf); one per
    row for rows (..., n)."""
    return 1e-5 * np.maximum(1.0, np.max(np.abs(x), axis=-1, initial=0.0))


def jacobian_fd(f: VectorFunc, x, eps: float | None = None) -> Array:
    """Central-difference Jacobian of ``f`` at ``x``.

    Entry (i, j) is (f_i(x + eps e_j) - f_i(x - eps e_j)) / (2 eps).  Exact for
    affine maps up to roundoff; second order accurate otherwise.
    """
    x = as_vector(x, name="x")
    if eps is None:
        eps = default_fd_step(x)
    if eps <= 0:
        raise ValueError("eps must be positive")
    cols = []
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx[j] = eps
        cols.append((_eval_vector(f, x + dx) - _eval_vector(f, x - dx)) / (2.0 * eps))
    return np.column_stack(cols)


def row_jacobian_fd(f: VectorFunc, x, eps: float | None = None) -> Array:
    """:func:`jacobian_fd` at one point x (shape (n,)) or at every row of x
    (shape (..., n), giving (..., m, n)), for an ``f`` that maps a stack of
    points, one per row, to one row each: the 2 n probes x +- eps e_j of
    every point go to ``f`` as one (..., 2 n, n) array.  Each point takes its
    own default step; same quotient, same bits as :func:`jacobian_fd` when
    every row of f's output equals its one-point value."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite entries")
    if eps is None:
        eps = default_fd_step(x)
    elif eps <= 0:
        raise ValueError("eps must be positive")
    n = x.shape[-1]
    eps = np.asarray(eps, dtype=float)[..., None, None]
    E = eps * np.eye(n)
    Y = np.asarray(f(np.concatenate([x[..., None, :] + E, x[..., None, :] - E], axis=-2)), dtype=float)
    return np.ascontiguousarray(np.swapaxes((Y[..., :n, :] - Y[..., n:, :]) / (2.0 * eps), -1, -2))


def _damped_update(residual, x, r, step, max_halvings=40):
    """Backtracking line search: halve the Newton step until the residual norm
    drops or an evaluation stops failing.  Returns (x_new, r_new)."""
    norm0 = float(np.max(np.abs(r)))
    alpha = 1.0
    for _ in range(max_halvings):
        x_new = x - alpha * step
        try:
            r_new = _eval_vector(residual, x_new)
        except EVALUATION_ERRORS:
            alpha *= 0.5
            continue
        if float(np.max(np.abs(r_new))) < norm0:
            return x_new, r_new
        alpha *= 0.5
    raise NonConvergence(
        f"backtracking failed to reduce the residual below {norm0:.3e}",
        x_best=np.array(x),
        residual_norm=norm0,
    )


def newton_solve(
    residual: VectorFunc,
    x0,
    jacobian: Callable[[Array], Array],
    tol: float = 1e-12,
    max_iter: int = 50,
    backtracking: bool = False,
) -> Array:
    """Solve residual(x) = 0 by Newton iteration.

    Args:
        residual: map R^n -> R^n whose root is sought.
        x0: starting point.
        jacobian: the residual's Jacobian at x, a square matrix of the size
            of x (``lambda x: jacobian_fd(residual, x)`` for central differences).
        tol: absolute infinity-norm tolerance on the residual.
        max_iter: iteration cap (number of Newton updates).
        backtracking: if set, damp steps that fail to decrease the residual or
            that land on points where ``residual`` raises a domain error.

    Returns the solution as a 1-d array.  Raises :class:`NonConvergence` (with
    the best iterate attached) if the cap is hit, :class:`SingularJacobian` if
    the linearization cannot be solved.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = as_vector(x0, name="x0").copy()
    r = _eval_vector(residual, x)
    if r.size != x.size:
        raise ValueError(f"residual maps R^{x.size} to R^{r.size}, need a square system")
    best_x, best_norm = x.copy(), float(np.max(np.abs(r)))
    iterations = 0
    for _ in range(max_iter):
        norm = float(np.max(np.abs(r)))
        if norm <= tol:
            return x
        J = np.asarray(jacobian(x), dtype=float)
        if J.shape != (x.size, x.size):
            raise ValueError(f"jacobian returned shape {J.shape}, expected {(x.size, x.size)}")
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"Newton linearization is singular at iteration {iterations}") from exc
        if backtracking:
            x, r = _damped_update(residual, x, r, step)
        else:
            x = x - step
            r = _eval_vector(residual, x)
        iterations += 1
        norm = float(np.max(np.abs(r)))
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    if float(np.max(np.abs(r))) <= tol:
        return x
    raise NonConvergence(
        f"Newton stalled at residual {best_norm:.3e} after {iterations} iterations (tol {tol:.1e})",
        x_best=best_x,
        residual_norm=best_norm,
        iterations=iterations,
    )


#: The central five-point stencils, (h, weights at h (-2, -1, 0, 1, 2)), of
#: the first and second derivative at 0: Fornberg's weights, on steps where
#: truncation (h^4) and roundoff amplification balance near 1e-8 relative.
_STENCILS = (
    (1e-3, (83.33333333333333, -666.6666666666666, 0.0, 666.6666666666666, -83.33333333333331)),
    (2e-3, (-20833.333333333332, 333333.3333333333, -625000.0, 333333.3333333334, -20833.333333333336)),
)


def taylor_derivatives(f, order: int) -> list[Array]:
    """Derivatives (f(0), f'(0), ..., f^(order)(0)) of a black-box curve
    f: R -> R^m by the fourth-order-accurate central stencils ``_STENCILS``;
    f(0) is evaluated once and serves both zero offsets.  Scalar-valued
    curves come back as length-1 vectors.  Orders above ``MAX_TAYLOR_ORDER``
    raise :class:`UnsupportedOrder`.
    """
    if not isinstance(order, (int, np.integer)) or order < 0 or order > MAX_TAYLOR_ORDER:
        raise UnsupportedOrder(f"derivative order must be an integer in [0, {MAX_TAYLOR_ORDER}], got {order!r}")
    f0 = _eval_vector(f, 0.0)
    out = [f0]
    for h, w in _STENCILS[: int(order)]:
        acc = np.zeros_like(f0)
        for k, wi in zip(range(-2, 3), w):
            acc = acc + wi * (f0 if k == 0 else _eval_vector(f, k * h))
        out.append(acc)
    return out

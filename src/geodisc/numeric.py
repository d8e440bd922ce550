"""Small dense numerics: the package's one Newton iteration, finite-difference
Jacobians and the derivatives of curves.

Everything operates on plain 1-d numpy arrays and is pure; :func:`matvec`,
:func:`rowdot`, :func:`jacobian_fd` and :func:`newton_solve` also take
stacks of points, one per row, and give every row the bits of its one-point
value.  :func:`newton_solve` serves the implicit step (its chord policy) and
shooting (its Newton policy, damped).  The rest of the package builds its
maps, lifts and integrators on these helpers, so the conventions fixed here
(central differences, infinity-norm stopping tests) propagate everywhere.
:func:`taylor_derivatives` differentiates a black-box curve at 0 by central
stencils up to order ``MAX_TAYLOR_ORDER`` = 2; the jets of
:mod:`geodisc.jets` take it for the jet of a curve.
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
# broken": newton_solve's backtracking backs off from one.
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


def read_only(*arrays: Array) -> tuple[Array, ...]:
    """The arrays, each made read-only: the matrices of maps and step blocks, shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def worst_defect(values) -> float:
    """Largest of ``values``, 0.0 for none, and nan when any value is nan:
    the builtin ``max`` keeps its first argument against a nan, which would
    let a nan defect pass a ``<= tol`` test."""
    a = np.asarray(values, dtype=float)
    return float(a.max()) if a.size else 0.0


def jacobian_fd(f: VectorFunc, x, eps: float | None = None) -> Array:
    """Central-difference Jacobian of ``f`` at one point x (n,) or at every
    row of x (..., n), giving (..., m, n), for an ``f`` that maps rows to
    rows: column j is (f(x + eps e_j) - f(x - eps e_j)) / (2 eps), with the
    2 n probes of all points in one (..., 2 n, n) call and by default each
    point's own eps = 1e-5 max(1, ||x||_inf).  Each row gets the bits of its
    one-point Jacobian when each row of f's output has its one-point bits."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite entries")
    if eps is None:
        eps = 1e-5 * np.maximum(1.0, np.max(np.abs(x), axis=-1, initial=0.0))
    elif eps <= 0:
        raise ValueError("eps must be positive")
    n = x.shape[-1]
    eps = np.asarray(eps, dtype=float)[..., None, None]
    E = eps * np.eye(n)
    Y = np.asarray(f(np.concatenate([x[..., None, :] + E, x[..., None, :] - E], axis=-2)), dtype=float)
    return np.ascontiguousarray(np.swapaxes((Y[..., :n, :] - Y[..., n:, :]) / (2.0 * eps), -1, -2))


def newton_solve(
    residual: VectorFunc,
    x0,
    jacobian: Callable[[Array], Array],
    tol: float | Array = 1e-12,
    max_iter: int = 50,
    backtracking: bool = False,
    *,
    chord: bool = False,
    J_inv: Array | None = None,
) -> tuple[Array, Array | None]:
    """Solve residual(x) = 0 by x <- x - J^-1 r from one point x0 (m,) or
    from rows (k, m), one system per row.

    ``residual`` maps x to residuals of x's shape and ``jacobian(x)`` gives
    J at x, one m x m matrix per row or one for all.  Each J is inverted
    once, all rows in one batched call, and applied by matrix-vector
    products.  ``tol`` bounds the residual's infinity norm, one value or one
    per row; a row within it stops there.  ``chord`` selects when J is taken:

    - False, Newton: at every iterate still above tol, never at one within it.
    - True, the chord (simplified Newton) iteration (Hairer & Wanner,
      Solving ODEs II, IV.8): J^-1 is the carried ``J_inv``, or J is taken
      at x0; a row whose residual fails to halve takes J again, once per
      solve; a row within tol gets one last correction, so that long
      integrations are not limited by tol.

    ``backtracking`` (one point) halves a step until the residual drops at a
    point where ``residual`` raises none of ``EVALUATION_ERRORS``.  Returns
    (solution, the inverse last used).  The first residual that is not
    finite ends the solve.  A stall, a non-finite residual or a failed
    backtracking raises NonConvergence with the best iterate of the first
    row it hits, named when x0 has rows; a singular J raises
    SingularJacobian and a J that is not m x m ValueError.
    """
    x = solution = np.asarray(x0, dtype=float)
    r = residual(x)
    norm = np.abs(r).max(axis=-1)
    best_x, best_norm = x, norm
    open_rows = np.ones(norm.shape, dtype=bool)  # 0-d for one point
    shape = x.shape + x.shape[-1:]

    def failed(reason: str, iterations: int, rows: Array) -> NonConvergence:
        row = None if x.ndim == 1 else int(np.flatnonzero(rows)[0])
        i = () if row is None else row
        reason = reason.format(where="" if row is None else f" of row {row}", best=best_norm[i], it=iterations)
        tol_i = np.broadcast_to(tol, norm.shape)[i]
        return NonConvergence(f"{reason} (tol {tol_i:.1e})", best_x[i].copy(), float(best_norm[i]), iterations, row)

    def inverted(J_inv: Array | None, rows: Array) -> Array:
        """J_inv with the given rows' J taken at x and inverted (all of it the first time)."""
        J = np.asarray(jacobian(x), dtype=float)
        if J.shape[-2:] != shape[-2:]:
            raise ValueError(f"jacobian returned shape {J.shape}, expected {shape[-2:]} per row")
        try:
            if J_inv is None or rows.all():
                return np.linalg.inv(J)
            J_inv = np.array(np.broadcast_to(J_inv, shape))
            J_inv[rows] = np.linalg.inv(np.broadcast_to(J, shape)[rows])
            return J_inv
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("Newton linearization is singular") from exc

    bad = ~np.isfinite(norm)
    if bad.any():
        raise failed("Newton{where} met a non-finite residual at its starting point", 0, bad)
    stale = refreshed = np.full(norm.shape, J_inv is None)
    it = 0
    while True:
        if chord:
            if J_inv is None or stale.any():  # J_inv None, stale none: no rows
                J_inv, refreshed = inverted(J_inv, stale), refreshed | stale
            step = matvec(J_inv, r)
        done = open_rows & (norm <= tol)
        if done.any():
            solution = np.where(done[..., None], x - step if chord else x, solution)
            open_rows = open_rows & ~done
        if not open_rows.any():
            return solution, J_inv
        if it == max_iter:
            raise failed("Newton{where} stalled at residual {best:.3e}", max_iter, open_rows)
        if not chord:
            J_inv = inverted(J_inv, open_rows)
            step = matvec(J_inv, r)
        it += 1
        if backtracking:
            for alpha in 0.5 ** np.arange(40):
                trial = x - alpha * step
                try:
                    r = residual(trial)
                except EVALUATION_ERRORS:
                    continue
                if np.abs(r).max() < norm:
                    break
            else:
                raise failed("backtracking failed to reduce the residual below {best:.3e}", it, open_rows)
            x = trial
        else:
            x = np.where(open_rows[..., None], x - step, x)
            r = residual(x)
        new_norm = np.abs(r).max(axis=-1)
        bad = open_rows & ~np.isfinite(new_norm)
        if bad.any():
            raise failed("Newton{where} met a non-finite residual at iteration {it}, best residual {best:.3e}", it, bad)
        better = open_rows & (new_norm < best_norm)
        best_x = np.where(better[..., None], x, best_x)
        best_norm = np.where(better, new_norm, best_norm)
        stale = open_rows & (new_norm > 0.5 * norm) & (new_norm > tol) & ~refreshed
        norm = np.where(open_rows, new_norm, norm)


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
    raise :class:`UnsupportedOrder`.  A foreign exception raised by f is
    wrapped in :class:`EvaluationFailure`; the package's own propagate.
    """
    if not isinstance(order, (int, np.integer)) or order < 0 or order > MAX_TAYLOR_ORDER:
        raise UnsupportedOrder(f"derivative order must be an integer in [0, {MAX_TAYLOR_ORDER}], got {order!r}")

    def at(t: float) -> Array:
        try:
            y = f(t)
        except GeodiscError:
            raise
        except Exception as exc:  # noqa: BLE001, deliberate firewall
            raise EvaluationFailure(f"callable failed at {t!r}: {exc}") from exc
        return np.atleast_1d(np.asarray(y, dtype=float))

    f0 = at(0.0)
    out = [f0]
    for h, w in _STENCILS[: int(order)]:
        acc = np.zeros_like(f0)
        for k, wi in zip(range(-2, 3), w):
            acc = acc + wi * (f0 if k == 0 else at(k * h))
        out.append(acc)
    return out

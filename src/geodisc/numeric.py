"""Small dense numerics: the package's one Newton iteration, finite-difference
Jacobians and the derivatives of curves.

Everything operates on plain 1-d numpy arrays and is pure; :func:`matvec`,
:func:`rowdot` and :func:`jacobian_fd` also take stacks of points, one per
row, and give every row the bits of its one-point value.  :func:`newton_solve`
solves for one point: the implicit step's (its chord policy) and shooting's
(its Newton policy, damped).  The rest of the package builds its
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
    tol: float = 1e-12,
    max_iter: int = 50,
    backtracking: bool = False,
    *,
    chord: bool = False,
    J_inv: Array | None = None,
) -> tuple[Array, Array | None]:
    """Solve residual(x) = 0 by x <- x - J^-1 r from one point x0 (m,).

    ``residual`` maps x to a residual of x's shape and ``jacobian(x)`` gives
    the m x m matrix J at x.  Each J is inverted once and applied by
    matrix-vector products.  ``tol`` bounds the residual's infinity norm.
    ``chord`` selects when J is taken:

    - False, Newton: at every iterate still above tol, never at one within it.
    - True, the chord (simplified Newton) iteration (Hairer & Wanner,
      Solving ODEs II, IV.8): J^-1 is the carried ``J_inv``, or J is taken
      at x0; a residual that fails to halve takes J again, once per solve;
      an iterate within tol gets one last correction, so that long
      integrations are not limited by tol.

    ``backtracking`` halves a step until the residual drops at a point
    where ``residual`` raises none of ``EVALUATION_ERRORS``.  Returns
    (solution, the inverse last used).  The first residual that is not
    finite ends the solve.  A stall, a non-finite residual or a failed
    backtracking raises NonConvergence with the best iterate; a singular J
    raises SingularJacobian and a J that is not m x m ValueError.
    """
    x = np.asarray(x0, dtype=float)
    r = residual(x)
    norm = np.abs(r).max()
    best_x, best_norm = x, norm

    def failed(reason: str, iterations: int) -> NonConvergence:
        return NonConvergence(f"{reason} (tol {tol:.1e})", best_x.copy(), float(best_norm), iterations)

    def inverted() -> Array:
        """J taken at x and inverted."""
        J = np.asarray(jacobian(x), dtype=float)
        if J.shape != 2 * x.shape:
            raise ValueError(f"jacobian returned shape {J.shape}, expected {2 * x.shape}")
        try:
            return np.linalg.inv(J)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("Newton linearization is singular") from exc

    if not np.isfinite(norm):
        raise failed("Newton met a non-finite residual at its starting point", 0)
    stale = refreshed = J_inv is None
    it = 0
    while True:
        if chord and stale:
            J_inv, refreshed = inverted(), True
        if norm <= tol:
            return (x - J_inv @ r if chord else x.copy()), J_inv
        if it == max_iter:
            raise failed(f"Newton stalled at residual {best_norm:.3e}", max_iter)
        if not chord:
            J_inv = inverted()
        step = J_inv @ r
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
                raise failed(f"backtracking failed to reduce the residual below {best_norm:.3e}", it)
            x = trial
        else:
            x = x - step
            r = residual(x)
        new_norm = np.abs(r).max()
        if not np.isfinite(new_norm):
            raise failed(f"Newton met a non-finite residual at iteration {it}, best residual {best_norm:.3e}", it)
        if new_norm < best_norm:
            best_x, best_norm = x, new_norm
        stale = new_norm > 0.5 * norm and new_norm > tol and not refreshed
        norm = new_norm


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

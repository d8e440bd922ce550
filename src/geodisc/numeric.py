"""Small dense numerics: Newton solves, finite differences, Taylor-mode derivatives.

Everything operates on plain 1-d numpy arrays and is pure; :func:`matvec`,
:func:`rowdot` and :func:`row_jacobian_fd` also take stacks of points, one per
row, and give every row the bits of its one-point value. The rest of
the package builds its maps, lifts and integrators on top of these helpers, so
the conventions fixed here (central differences, infinity-norm stopping tests)
propagate everywhere.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

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
#: by jets built on top of it).
MAX_TAYLOR_ORDER = 4

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
    jacobian: Callable[[Array], Array] | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
    backtracking: bool = False,
) -> Array:
    """Solve residual(x) = 0 by Newton iteration.

    Args:
        residual: map R^n -> R^n whose root is sought.
        x0: starting point.
        jacobian: optional closed-form Jacobian, which must return a square
            matrix of the size of x; central differences otherwise.
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
        if jacobian is None:
            J = jacobian_fd(residual, x)
        else:
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


def fd_weights(offsets: Sequence[float], order: int) -> Array:
    """Finite-difference weights for the ``order``-th derivative at 0.

    Fornberg's recurrence on an arbitrary grid of ``offsets``; returns ``w``
    with sum_i w_i f(offset_i) ~ f^(order)(0).
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order >= n:
        raise ValueError(f"need at least {order + 1} points for derivative order {order}")
    C = np.zeros((n, order + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, order]


# Step sizes and symmetric stencil half-widths per derivative order, tuned so
# that truncation (h^4 with the stencils below) and roundoff amplification
# balance near 1e-8 relative in the worst case.
_FD_ORDER_STEP = {1: 1e-3, 2: 2e-3, 3: 5e-3, 4: 1.5e-2}
_FD_HALF_WIDTH = {1: 2, 2: 2, 3: 3, 4: 3}


@lru_cache(maxsize=64)
def _fd_stencil(r: int, scale: float) -> tuple[Array, Array]:
    """Offsets and weights of the order-r stencil at time scale ``scale``."""
    h = _FD_ORDER_STEP[r] * scale
    s = _FD_HALF_WIDTH[r]
    offsets = np.arange(-s, s + 1) * h
    w = fd_weights(offsets, r)
    offsets.setflags(write=False)
    w.setflags(write=False)
    return offsets, w


def _taylor_fd(f, t0: float, order: int) -> list[Array]:
    """f(t0) is evaluated once and serves every stencil's zero offset."""
    f0 = _eval_vector(f, t0)
    out = [f0]
    scale = max(1.0, abs(t0))
    for r in range(1, order + 1):
        offsets, w = _fd_stencil(r, scale)
        acc = np.zeros_like(f0)
        for off, wi in zip(offsets, w):
            acc = acc + wi * (f0 if off == 0.0 else _eval_vector(f, t0 + off))
        out.append(acc)
    return out


def _taylor_series(f, t0: float, order: int) -> list[Array]:
    t = TaylorScalar.variable(t0, order)
    try:
        y = f(t)
    except GeodiscError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise EvaluationFailure(
            f"callable does not support Taylor-mode evaluation at {t0}: {exc}"
        ) from exc
    comps = np.atleast_1d(np.asarray(y, dtype=object)).ravel()
    out = []
    for r in range(order + 1):
        row = []
        for comp in comps:
            if isinstance(comp, TaylorScalar):
                row.append(comp.derivative(r))
            else:
                row.append(float(comp) if r == 0 else 0.0)
        out.append(np.array(row, dtype=float))
    return out


def taylor_derivatives(f, t0: float, order: int, method: str = "fd") -> list[Array]:
    """Derivatives (f(t0), f'(t0), ..., f^(order)(t0)) of a curve f: R -> R^m.

    Two independent backends are provided and cross-checked in the test suite:

    * ``"fd"``: fourth-order-accurate central stencils with per-order step
      sizes.  Works on black-box callables.
    * ``"taylor"``: truncated Taylor arithmetic.  Requires ``f`` to be written
      in terms of arithmetic and numpy ufuncs so a :class:`TaylorScalar` can
      flow through it.

    Scalar-valued curves come back as length-1 vectors.  Orders above
    ``MAX_TAYLOR_ORDER`` raise :class:`UnsupportedOrder`.
    """
    if not isinstance(order, (int, np.integer)) or order < 0 or order > MAX_TAYLOR_ORDER:
        raise UnsupportedOrder(f"derivative order must be an integer in [0, {MAX_TAYLOR_ORDER}], got {order!r}")
    t0 = float(t0)
    if method == "fd":
        return _taylor_fd(f, t0, int(order))
    if method == "taylor":
        return _taylor_series(f, t0, int(order))
    raise ValueError(f"unknown method {method!r}, expected 'fd' or 'taylor'")


class TaylorScalar:
    """Univariate truncated Taylor series with float coefficients.

    ``coef[r]`` is the r-th Taylor coefficient f^(r)(t0)/r!.  Arithmetic and
    the elementary functions below propagate series of a fixed truncation
    order, so feeding ``TaylorScalar.variable(t0, k)`` through a formula
    evaluates that formula's derivatives at t0.  The elementary functions are
    exposed as methods named like the numpy ufuncs, which makes object-dtype
    numpy arrays of TaylorScalars work with np.sin, np.exp and friends.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)
        if self.coef.ndim != 1 or self.coef.size == 0:
            raise ValueError("coef must be a nonempty 1-d array")

    @classmethod
    def variable(cls, value: float, order: int) -> "TaylorScalar":
        c = np.zeros(order + 1)
        c[0] = value
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def constant(cls, value: float, order: int) -> "TaylorScalar":
        c = np.zeros(order + 1)
        c[0] = float(value)
        return cls(c)

    @property
    def order(self) -> int:
        return self.coef.size - 1

    def derivative(self, r: int) -> float:
        """r-th derivative value encoded by this series."""
        if r > self.order:
            return 0.0
        return float(self.coef[r]) * math.factorial(r)

    def _coerce(self, other):
        if isinstance(other, TaylorScalar):
            if other.order != self.order:
                raise ValueError("mixing TaylorScalars of different truncation orders")
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return TaylorScalar.constant(float(other), self.order)
        return None

    def __repr__(self):
        return f"TaylorScalar({self.coef.tolist()})"

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorScalar(self.coef + o.coef)

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar(-self.coef)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorScalar(self.coef - o.coef)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TaylorScalar(o.coef - self.coef)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.coef.size
        out = np.zeros(n)
        for k in range(n):
            out[k] = np.dot(self.coef[: k + 1], o.coef[k::-1])
        return TaylorScalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.coef[0] == 0.0:
            raise ZeroDivisionError("division by a series with vanishing constant term")
        n = self.coef.size
        out = np.zeros(n)
        out[0] = self.coef[0] / o.coef[0]
        for k in range(1, n):
            out[k] = (self.coef[k] - np.dot(o.coef[1 : k + 1], out[k - 1 :: -1])) / o.coef[0]
        return TaylorScalar(out)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, p):
        if isinstance(p, TaylorScalar):
            return (p * self.log()).exp()
        if isinstance(p, (int, np.integer)) and p >= 0:
            # Repeated squaring keeps integer powers valid at coef[0] == 0.
            result = TaylorScalar.constant(1.0, self.order)
            base, e = self, int(p)
            while e:
                if e & 1:
                    result = result * base
                base = base * base
                e >>= 1
            return result
        p = float(p)
        if self.coef[0] == 0.0:
            raise ZeroDivisionError("non-integer power of a series with vanishing constant term")
        n = self.coef.size
        out = np.zeros(n)
        out[0] = self.coef[0] ** p
        for k in range(1, n):
            s = 0.0
            for j in range(1, k + 1):
                s += (j * (p + 1) - k) * self.coef[j] * out[k - j]
            out[k] = s / (k * self.coef[0])
        return TaylorScalar(out)

    # -- elementary functions (numpy ufunc method names) -----------------
    def exp(self):
        n = self.coef.size
        out = np.zeros(n)
        out[0] = math.exp(self.coef[0])
        for k in range(1, n):
            s = 0.0
            for j in range(1, k + 1):
                s += j * self.coef[j] * out[k - j]
            out[k] = s / k
        return TaylorScalar(out)

    def log(self):
        if self.coef[0] <= 0.0:
            raise ValueError("log of a series with nonpositive constant term")
        n = self.coef.size
        # b' = a'/a, integrated term by term.
        aprime = np.zeros(n)
        aprime[: n - 1] = self.coef[1:] * np.arange(1, n)
        q = TaylorScalar(aprime) / self
        out = np.zeros(n)
        out[0] = math.log(self.coef[0])
        for k in range(1, n):
            out[k] = q.coef[k - 1] / k
        return TaylorScalar(out)

    def _sincos(self):
        n = self.coef.size
        s = np.zeros(n)
        c = np.zeros(n)
        s[0] = math.sin(self.coef[0])
        c[0] = math.cos(self.coef[0])
        for k in range(1, n):
            ss = 0.0
            cc = 0.0
            for j in range(1, k + 1):
                ss += j * self.coef[j] * c[k - j]
                cc += j * self.coef[j] * s[k - j]
            s[k] = ss / k
            c[k] = -cc / k
        return TaylorScalar(s), TaylorScalar(c)

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def tan(self):
        s, c = self._sincos()
        return s / c

    def sqrt(self):
        return self.__pow__(0.5)

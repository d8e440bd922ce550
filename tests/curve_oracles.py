"""Reference defect of a sampled curve for the tests: the fourth-order
Euler-Lagrange residual, which no command of the package computes.  It checks
that shot and integrated curves are near the quartic flow they discretize."""
import numpy as np


class TooFewPoints(ValueError):
    """A stencil received too short a trajectory."""


def fourth_order_residual(q, h: float, grad_potential=None) -> np.ndarray:
    """Infinity norms of the defect of the fourth-order Euler-Lagrange
    equation d^4 q / dt^4 + grad V(q) = 0 on positions ``q`` sampled at step
    h (one row per node; a 1-D array is one coordinate): the centered fourth
    difference (q_{k-2} - 4 q_{k-1} + 6 q_k - 4 q_{k+1} + q_{k+2}) / h^4 plus
    grad V(q_k), at the interior nodes k = 2 .. N-2 (``grad_potential`` takes
    them as rows)."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q[:, None]
    if q.shape[0] < 5:
        raise TooFewPoints("need at least five states for a fourth difference")
    r = (q[:-4] - 4 * q[1:-3] + 6 * q[2:-2] - 4 * q[3:-1] + q[4:]) / h**4
    if grad_potential is not None:
        r = r + grad_potential(q[2:-2])
    return np.max(np.abs(r), axis=1)

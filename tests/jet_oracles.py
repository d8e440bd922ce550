"""Reference derivatives for the tests: Fornberg's finite-difference weights,
central stencils of orders 1-4, and the jet pushforward by the composed
curve, which the package does not ship (its non-affine jets stop at order 2).
They check the package's stencils and its affine lifts of orders 3 and 4."""
import math

import numpy as np

#: Step sizes and symmetric half-widths of the order-r stencils, where
#: truncation (h^4) and roundoff amplification balance near 1e-8 relative.
FD_ORDER_STEP = {1: 1e-3, 2: 2e-3, 3: 5e-3, 4: 1.5e-2}
FD_HALF_WIDTH = {1: 2, 2: 2, 3: 3, 4: 3}


def fd_weights(offsets, order):
    """Weights w with sum_i w_i f(offset_i) ~ f^(order)(0), by Fornberg's
    recurrence on an arbitrary grid of ``offsets``."""
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


def taylor_reference(f, t0, order):
    """(f(t0), f'(t0), ..., f^(order)(t0)) by the order-r stencils, scaled by
    max(1, |t0|), every stencil built and every point evaluated afresh."""
    out = [np.atleast_1d(np.asarray(f(t0), dtype=float))]
    scale = max(1.0, abs(t0))
    for r in range(1, order + 1):
        offsets = np.arange(-FD_HALF_WIDTH[r], FD_HALF_WIDTH[r] + 1) * (FD_ORDER_STEP[r] * scale)
        acc = np.zeros_like(out[0])
        for off, wi in zip(offsets, fd_weights(offsets, r)):
            acc = acc + wi * np.atleast_1d(np.asarray(f(t0 + off), dtype=float))
        out.append(acc)
    return out


def composed_jet(F, j):
    """Jet of F o c for the jet j (..., k + 1, n) of c, k <= 4: F composed
    with the polynomial curve of j, differentiated at 0 by the stencils."""
    j = np.asarray(j, dtype=float)
    k = j.shape[-2] - 1
    coeffs = [j[..., r, :] / math.factorial(r) for r in range(k + 1)]

    def composed(t):
        c = coeffs[-1]
        for a in coeffs[-2::-1]:
            c = a + t * c
        return F(c)

    return np.stack(taylor_reference(composed, 0.0, k), axis=-2)

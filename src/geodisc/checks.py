"""Self-verification suites behind ``geodisc check``.

Each suite measures a defect against an independent reference (a closed form,
a jet-of-curve oracle, an exactly known flow, or a structural identity) and
reports one CheckResult per case.  Tolerances are fixed here, not configurable:
they are part of what the suite asserts, and this is the one module that
applies them (the measurements it calls, such as
:func:`~geodisc.maps.axiom_defects` and
:func:`~geodisc.lifts.symplectomorphism_defects`, return plain defects).  A
case's defect is the largest over its samples, taken by
:func:`~geodisc.numeric.worst_defect`, so a nan sample makes the case fail.
A suite draws all its samples first, in one stream order per seed, and sends
them through each map, lift or jet as the rows of one array.

:func:`run_all` calls every suite with the same keywords: ``rng`` (a fresh
generator on the run's seed) and ``h_values`` (the convergence steps).  A
suite names the ones it reads, each with a default where it has one, and
takes the rest as ``**_``.  Maps, lifts and step blocks are built once per
process by their memos, so the suites of a run share them, as do later runs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .hamiltonian import integrate, obstacle_potential, second_order_hamiltonian, symplectic_step
from .jets import jet_of_curve, unzip_jet_tangent, zip_jet_tangent
from .lifts import (
    canonical_symplectic_matrix,
    cotangent_lift,
    higher_order_lift,
    second_order_phase_map,
    symplectomorphism_defects,
)
from .maps import (
    axiom_defects,
    memoized,
    midpoint_map,
    se2_exp_map,
    sphere_geodesic_midpoint_map,
    sphere_initial_point_map,
    theta_map,
)
from .numeric import jacobian_fd, rowdot, worst_defect

Array = np.ndarray


@dataclass(frozen=True)
class CheckResult:
    suite: str
    case: str
    status: str  # "pass" | "fail" | "info"
    defect: float
    tolerance: float

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        return dict(vars(self))


def _result(suite: str, case: str, defect: float, tol: float, info: bool = False) -> CheckResult:
    status = "info" if info else "pass" if defect <= tol else "fail"
    return CheckResult(suite=suite, case=case, status=status, defect=float(defect), tolerance=float(tol))


# ---------------------------------------------------------------------------
# samplers


def _sphere_tangent_curves(rng, count: int) -> Callable[[float], Array]:
    """``count`` smooth curves t -> (q(t), xi(t)) in the tangent bundle of the
    sphere, one row each: a normalized polynomial base curve with a
    projected polynomial fiber, their coefficients past a scaled by 0.3."""
    R = rng.normal(size=(count, 21))  # per curve: a, then the rows of B and of Cf
    a = R[:, :3] / np.sqrt(rowdot(R[:, :3], R[:, :3]))[:, None]
    B = R[:, 3:12].reshape(count, 3, 3) * 0.3
    Cf = R[:, 12:].reshape(count, 3, 3) * 0.3

    def curves(t: float) -> Array:
        v = a + B[:, 0] * t + B[:, 1] * t * t + B[:, 2] * t**3
        q = v / np.sqrt(rowdot(v, v))[:, None]
        raw = Cf[:, 0] + Cf[:, 1] * t + Cf[:, 2] * t * t
        xi = raw - rowdot(q, raw)[:, None] * q
        return np.concatenate([q, xi], axis=-1)

    return curves


# ---------------------------------------------------------------------------
# suites


def midpoint_cotangent_closed_form(x: Array, d: int, inverse: bool) -> Array:
    """Cotangent lift of the midpoint rule on R^d in closed form: every block
    is a midpoint average (forward) or average/difference pair (inverse).
    At d = 2n it is also the closed form of ``second_order_phase_map(n)``,
    the cotangent lift of the first-order lift of the midpoint rule on R^n."""
    a, b, c, e = x[..., :d], x[..., d : 2 * d], x[..., 2 * d : 3 * d], x[..., 3 * d :]
    if inverse:
        return np.concatenate([0.5 * (a + c), 0.5 * (b + e), c - a, e - b], axis=-1)
    return np.concatenate([a - 0.5 * c, b - 0.5 * e, a + 0.5 * c, b + 0.5 * e], axis=-1)


def closed_form_suite(rng, **_) -> list[CheckResult]:
    """Generic cotangent lift of the midpoint rule against its closed form,
    both on T*Q and (through the tangent lift) on the second-order phase
    space T*(TQ)."""
    out = []
    tol = 1e-12
    for n in (1, 3):
        for space, C, d in (("T*Q", cotangent_lift(midpoint_map(n)), n), ("T*(TQ)", second_order_phase_map(n), 2 * n)):
            X = rng.normal(size=(100, 4 * d))
            fwd = np.max(np.abs(C.forward_flat(X) - midpoint_cotangent_closed_form(X, d, False)))
            inv = np.max(np.abs(C.inverse_flat(X) - midpoint_cotangent_closed_form(X, d, True)))
            out.append(_result("closed-form", f"{space} forward n={n}", fwd, tol))
            out.append(_result("closed-form", f"{space} inverse n={n}", inv, tol))
    return out


def _midpoint_second_lift_closed_form(x: Array, n: int) -> Array:
    """Slotwise q_r -+ v_r / 2 on a flat order-2 tangent jet."""
    base, fiber = x[..., : 3 * n], x[..., 3 * n :]
    return np.concatenate([base - fiber / 2.0, base + fiber / 2.0], axis=-1)


#: A map without its affine form, so that its lifts push jets through it: one copy per map and process.
_without_affine = memoized(partial(replace, affine=None))


def second_lift_suite(rng, **_) -> list[CheckResult]:
    """Order-2 lift of the midpoint rule against the slotwise closed form, as
    the prebuilt affine lift ("exact") and as jets pushed through the map
    ("fd"), plus the -+I/2 fiber blocks of its Jacobian."""
    out = []
    n = 2
    for mode, base, tol in (("exact", midpoint_map(n), 1e-9), ("fd", _without_affine(midpoint_map(n)), 1e-6)):
        X = rng.normal(size=(30, 6 * n))
        defect = np.max(np.abs(higher_order_lift(base, 2).forward_flat(X) - _midpoint_second_lift_closed_form(X, n)))
        out.append(_result("second-lift", f"closed form ({mode} backend)", defect, tol))

    lift = higher_order_lift(midpoint_map(n), 2)
    blocks = np.block([[-0.5 * np.eye(3 * n)], [0.5 * np.eye(3 * n)]])
    X = np.concatenate([rng.normal(size=(10, 3 * n)), np.zeros((10, 3 * n))], axis=-1)
    defect = np.max(np.abs(lift.jacobian_forward_flat(X)[..., 3 * n :] - blocks))
    out.append(_result("second-lift", "fiber-origin tangent blocks -+I/2", defect, 1e-7))
    return out


def axiom_suite(rng, **_) -> list[CheckResult]:
    """Both defining conditions of every shipped discretization map."""
    tol = 1e-7
    out = []
    flat = rng.uniform(-2.0, 2.0, size=(25, 2))
    cases: list[tuple[str, object, list]] = [("midpoint n=2", midpoint_map(2), flat)]
    for theta in (0.0, 0.25, 0.5, 1.0):
        cases.append((f"theta={theta}", theta_map(2, theta), flat))

    drawn = rng.normal(size=(25, 2, 3))  # per sample: a point, then a tangent draw left unused
    sphere_pts = drawn[:, 0] / np.sqrt(rowdot(drawn[:, 0], drawn[:, 0]))[:, None]
    cases.append(("sphere initial-point", sphere_initial_point_map(), sphere_pts))
    cases.append(("sphere geodesic-midpoint", sphere_geodesic_midpoint_map(), sphere_pts))

    se2_pts = rng.uniform(-2.0, 2.0, size=(25, 3))
    cases.append(("se2 exponential", se2_exp_map(), se2_pts))

    cases.append(("cotangent-lifted midpoint on T*(TQ)", second_order_phase_map(1), rng.normal(size=(25, 4))))

    for label, D, samples in cases:
        out.append(_result("axioms", label, worst_defect(axiom_defects(D, samples)), tol))
    return out


def symplecto_suite(rng, **_) -> list[CheckResult]:
    """S^T Omega S identity for the lifted midpoint on T*(TQ), n in {1, 3}."""
    out = []
    tol = 1e-6
    for n in (1, 3):
        defect = worst_defect(symplectomorphism_defects(second_order_phase_map(n), rng.normal(size=(100, 8 * n))))
        out.append(_result("symplectomorphism", f"lifted midpoint n={n}", defect, tol))
    return out


def _one_step_jacobian(C, H, h: float, z0: Array) -> Array:
    """Central differences of the one-step map at z0, or at every row of z0:
    the 2 d perturbed starts z0 +- 1e-4 e_i of all rows are stepped as the
    rows of one array."""
    d = np.shape(z0)[-1]
    step = lambda Z: symplectic_step(C, H, h, Z.reshape(-1, d), tol=1e-13).reshape(Z.shape)
    return jacobian_fd(step, z0, eps=1e-4)


def step_symplecticity_suite(rng, **_) -> list[CheckResult]:
    """M^T Omega M = Omega for the one-step map, free and obstacle systems."""
    free = rng.normal(size=(20, 4))
    obstacle = []
    for _ in range(20):  # normal and uniform draws interleave per sample
        z0 = rng.normal(size=12) * 0.3
        # Keep the position comfortably outside the obstacle.
        rho = 1.8 + rng.uniform(0.0, 1.5)
        ang = rng.uniform(0.0, 2 * np.pi)
        z0[0], z0[1] = rho * np.cos(ang), rho * np.sin(ang)
        obstacle.append(z0)
    H = second_order_hamiltonian(3, obstacle_potential(1.0, 1.0, (0.0, 0.0), 3)[0])
    jacobians = (
        ("free n=1", _one_step_jacobian(second_order_phase_map(1), second_order_hamiltonian(1), 0.01, free)),
        ("obstacle n=3", _one_step_jacobian(second_order_phase_map(3), H, 0.01, np.array(obstacle))),
    )
    out = []
    for case, M in jacobians:
        Om = canonical_symplectic_matrix(M.shape[-1] // 2)
        out.append(_result("step-symplecticity", case, np.max(np.abs(np.swapaxes(M, -1, -2) @ Om @ M - Om)), 1e-6))
    return out


def free_spline_suite(**_) -> list[CheckResult]:
    """Conservation over a long free run: p0 exactly, H to rounding."""
    traj = integrate(second_order_phase_map(1), second_order_hamiltonian(1), 0.01, 10_000, np.array([0.0, 0.1, 0.01, 0.2]))
    p0, H = traj.z[:, 2], traj.energies  # (q, qdot, p0, p1) at n = 1
    return [
        _result("free-spline", "p0 drift over 1e4 steps", np.max(np.abs(p0 - p0[0])), 1e-12),
        _result("free-spline", "H drift over 1e4 steps", np.max(np.abs(H - H[0])), 1e-10),
    ]


def convergence_suite(h_values: Sequence[float] = (0.04, 0.02, 0.01), **_) -> list[CheckResult]:
    """Observed global order against the exactly known cubic free flow."""
    out = []
    C, H = second_order_phase_map(1), second_order_hamiltonian(1)
    z0 = np.array([0.0, 0.0, 12.0, 6.0])
    T = 1.0
    # Exact flow: p0 constant, p1 linear, qdot and q its integrals.
    q_exact = z0[0] + z0[1] * T + z0[3] * T**2 / 2.0 - z0[2] * T**3 / 6.0
    errs = []
    for h in h_values:
        traj = integrate(C, H, h, int(round(T / h)), z0)
        errs.append(abs(traj.z[-1, 0] - q_exact))
    for i in range(len(errs) - 1):
        h0, h1 = h_values[i], h_values[i + 1]
        order = float(np.log(errs[i] / errs[i + 1]) / np.log(h0 / h1))
        out.append(_result("convergence", f"order h={h0}->{h1}: observed {order:.4f}", abs(order - 2.0), 0.1))
    return out


def _scalar_pow(r: Array, p: int) -> Array:
    """r ** p per element by the scalar power: numpy's array power takes a
    vector kernel whose last bit can differ from it."""
    return np.array([x**p for x in r.ravel().tolist()]).reshape(r.shape)


def _normalized_curve_second_derivative(q, xi, qd, xid, qdd, xidd, squared: bool) -> Array:
    """Closed form for the second t-derivative of (q + xi)/|q + xi| along
    tangent-bundle curves, one per row.  ``squared`` selects the
    (xi . xid)^2 variant of the final term; the linear variant is kept for an
    informational comparison."""
    w = q + xi
    wd = qd + xid
    wdd = qdd + xidd
    r = np.sqrt(rowdot(w, w))[:, None]
    s = rowdot(xi, xid)[:, None]
    last = (s * s if squared else s) * 3.0 * w / _scalar_pow(r, 5)
    return wdd / r - (2.0 * s * wd + (rowdot(xid, xid) + rowdot(xi, xidd))[:, None] * w) / _scalar_pow(r, 3) + last


def sphere_lift_suite(rng, **_) -> list[CheckResult]:
    """Order-2 lift of the sphere initial-point map against a jet-of-curve
    oracle, plus informational comparisons with the two closed-form variants.
    The 50 sample curves are evaluated together, as rows, once per stencil
    time; their jets and both oracles read those values."""
    out = []
    lift = higher_order_lift(sphere_initial_point_map(), 2)
    curves = cache(_sphere_tangent_curves(rng, 50))  # one evaluation per distinct time, shared
    j_in = jet_of_curve(curves, 2)
    jm, jp = np.split(zip_jet_tangent(lift.forward_flat(unzip_jet_tangent(j_in)), 2), 2, axis=-1)

    # Oracle: push the curves through the map pointwise, then take their jets.
    def plus_curves(t: float) -> Array:
        z = curves(t)
        w = z[:, :3] + z[:, 3:]
        return w / np.sqrt(rowdot(w, w))[:, None]

    om = jet_of_curve(lambda t: curves(t)[:, :3], 2)
    op = jet_of_curve(plus_curves, 2)
    defect = worst_defect([np.max(np.abs(jm - om)), np.max(np.abs(jp - op))])

    (q, xi), (qd, xid), (qdd, xidd) = [np.split(j_in[:, r], 2, axis=-1) for r in range(3)]
    ref = jp[:, 2]
    lin = _normalized_curve_second_derivative(q, xi, qd, xid, qdd, xidd, squared=False)
    sq = _normalized_curve_second_derivative(q, xi, qd, xid, qdd, xidd, squared=True)
    out.append(_result("sphere-lift", "jet-of-curve oracle (50 points)", defect, 1e-7))
    out.append(_result("sphere-lift", "closed-form variant, squared final term", np.max(np.abs(sq - ref)), 1e-6, info=True))
    out.append(_result("sphere-lift", "closed-form variant, linear final term", np.max(np.abs(lin - ref)), 1e-6, info=True))
    return out


SUITES: dict[str, Callable] = {
    "closed-form": closed_form_suite,
    "second-lift": second_lift_suite,
    "axioms": axiom_suite,
    "symplectomorphism": symplecto_suite,
    "step-symplecticity": step_symplecticity_suite,
    "free-spline": free_spline_suite,
    "convergence": convergence_suite,
    "sphere-lift": sphere_lift_suite,
}


def validate_run(suites: Iterable[str] | None, h_values: Sequence[float]) -> list[str]:
    """The suites a run makes, in order (every suite when none is named).
    Raises ValueError on an unknown or repeated suite, and unless the
    convergence steps are at least two distinct values in (0, 1], the
    horizon being 1."""
    if not all(0 < h <= 1 for h in h_values):
        raise ValueError(f"convergence steps must lie in (0, 1], the horizon being 1; got {list(h_values)}")
    if len(h_values) < 2 or len(set(h_values)) < len(h_values):
        raise ValueError(
            f"the convergence suite compares step sizes: give at least two, all distinct; got {list(h_values)}"
        )
    names = list(suites) if suites else list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)} (want one of {', '.join(SUITES)})")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"suite(s) given more than once: {', '.join(repeated)}")
    return names


def run_all(
    seed: int = 0,
    suites: Iterable[str] | None = None,
    h_values: Sequence[float] = (0.04, 0.02, 0.01),
) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in validate_run(suites, h_values):
        results.extend(SUITES[name](rng=np.random.default_rng(seed), h_values=h_values))
    return results

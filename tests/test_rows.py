"""Row calls: a stack of points through a map, lift or check gives every row
the bits of its one-point call, and the check suites, which send all their
samples through each map as rows, give the defects of one-sample loops."""
from dataclasses import replace

import numpy as np
import pytest

from geodisc import checks, lifts
from geodisc.control import obstacle_potential
from geodisc.errors import DomainViolation, SingularJacobian
from geodisc.hamiltonian import second_order_hamiltonian
from geodisc.jets import jet_of_curve, unzip_jet_tangent, zip_jet_tangent
from geodisc.lifts import (
    canonical_symplectic_matrix,
    cotangent_lift,
    higher_order_lift,
    pair_symplectic_matrix,
    second_order_phase_map,
    symplectomorphism_defects,
    tangent_lifted_symplectic_matrix,
)
from geodisc.maps import (
    midpoint_map,
    se2_exp_map,
    sphere_geodesic_midpoint_map,
    sphere_initial_point_map,
    theta_map,
)
from geodisc.numeric import jacobian_fd, worst_defect


def sphere_tangents(rng, count, scale=0.4):
    q = rng.normal(size=(count, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    xi = rng.normal(size=(count, 3)) * scale
    xi -= np.sum(q * xi, axis=1, keepdims=True) * q
    return q, xi


def flat_points(rng, count, n=2):
    return rng.uniform(-2.0, 2.0, size=(count, 2 * n))


def sphere_points(rng, count):
    return np.concatenate(sphere_tangents(rng, count), axis=1)


def se2_points(rng, count):
    g = rng.uniform(-2.0, 2.0, size=(count, 3))
    xi = rng.uniform(-1.0, 1.0, size=(count, 3))
    return np.concatenate([g, xi], axis=1)


def lift_points(order, base_points):
    """Flat tangents to the order-k jet space whose base jet starts at a
    sample of ``base_points`` and whose fiber starts at its velocity; the
    higher slots are small and drawn from the same stream."""

    def points(rng, count):
        x0 = base_points(rng, count)
        dim = x0.shape[1] // 2
        higher = 0.2 * rng.normal(size=(count, 2, order, dim))
        base = np.concatenate([x0[:, :dim], higher[:, 0].reshape(count, -1)], axis=1)
        fiber = np.concatenate([x0[:, dim:], higher[:, 1].reshape(count, -1)], axis=1)
        return np.concatenate([base, fiber], axis=1)

    return points


SHIPPED = [
    ("midpoint", midpoint_map(2), flat_points),
    ("theta=0.3", theta_map(2, 0.3), flat_points),
    ("sphere initial-point", sphere_initial_point_map(), sphere_points),
    ("sphere geodesic-midpoint", sphere_geodesic_midpoint_map(), sphere_points),
    ("se2 exponential", se2_exp_map(), se2_points),
]
NONAFFINE_LIFTS = [
    (f"lift{k}({label})", higher_order_lift(D, k), lift_points(k, points))
    for k in (1, 2)
    for label, D, points in [
        ("sphere initial-point", sphere_initial_point_map(), sphere_points),
        ("generic midpoint", replace(midpoint_map(2), affine=None), flat_points),
        ("se2 exponential", se2_exp_map(), se2_points),
    ]
] + [
    # Its inverse jets come from the inverted forward Jacobian: no probe of
    # the base inverse leaves the sphere (order 2 still takes a second
    # derivative of the inverse by a stencil off the sphere).
    ("lift1(sphere geodesic-midpoint)", higher_order_lift(sphere_geodesic_midpoint_map(), 1), lift_points(1, sphere_points)),
]


@pytest.mark.parametrize("D, points", [c[1:] for c in SHIPPED + NONAFFINE_LIFTS], ids=[c[0] for c in SHIPPED + NONAFFINE_LIFTS])
def test_row_calls_equal_stacked_one_point_calls(D, points, rng):
    X = points(rng, 6)
    Y = D.forward_flat(X)
    calls = [("forward_flat", Y, X), ("jacobian_forward_flat", D.jacobian_forward_flat(X), X)]
    # The sphere initial-point map normalizes q + xi, so its chart Jacobian
    # is singular and the jet lift has no inverse to take rows.
    invertible = not D.name.startswith("lift") or "sphere-initial-point" not in D.name
    if invertible:
        calls.append(("inverse_flat", D.inverse_flat(Y), Y))
        assert np.max(np.abs(D.inverse_flat(Y) - X)) < 1e-6  # the rows are the right points, too
    for name, rows, arg in calls:
        stacked = np.array([getattr(D, name)(x) for x in arg])
        assert np.array_equal(rows, stacked), name


# Cotangent lifts of bases without an affine form: the composed flat maps.
COMPOSED = [
    ("theta=0.3 order-1, n=1", second_order_phase_map(1, base=replace(theta_map(1, 0.3), affine=None))),
    ("generic midpoint order-1, n=2", second_order_phase_map(2, base=replace(midpoint_map(2), affine=None))),
    ("se2 exponential", cotangent_lift(se2_exp_map())),
    ("se2 exponential order-1", second_order_phase_map(3, base=se2_exp_map())),
]


@pytest.mark.parametrize("C", [c[1] for c in COMPOSED], ids=[c[0] for c in COMPOSED])
def test_composed_lift_rows_equal_one_point_calls(C, rng):
    assert C.affine is None
    X = 0.3 * rng.normal(size=(2, 4, 2 * C.dim))
    for name in ("forward_flat", "inverse_flat", "inverse_jacobian_flat"):
        rows = getattr(C, name)(X)
        stacked = np.array([getattr(C, name)(x) for x in X.reshape(-1, 2 * C.dim)])
        assert np.array_equal(rows, stacked.reshape(rows.shape)), name
    # The rows are the right points too, to the finite differences of the
    # se2 lift's jets (~1e-7).
    assert np.max(np.abs(C.inverse_flat(C.forward_flat(X)) - X)) < 1e-6


def test_symplectomorphism_of_a_composed_lift_matches_jacobian_fd(rng):
    C = cotangent_lift(se2_exp_map())
    X = list(0.3 * rng.normal(size=(12, 12)))  # one call: 12 samples of 2 * 12^2 probe cells each
    defects = symplectomorphism_defects(C, X)
    target, pair = tangent_lifted_symplectic_matrix(3), pair_symplectic_matrix(3)
    for x, defect in zip(X, defects, strict=True):
        S = jacobian_fd(C.forward_flat, x)
        assert defect == np.max(np.abs(S.T @ pair @ S - target))
    assert np.all(defects <= 1e-6), defects


@pytest.mark.parametrize(
    "lift, count",
    [
        (lambda: second_order_phase_map(1), 130),
        (lambda: second_order_phase_map(3), 25),
        (lambda: cotangent_lift(se2_exp_map()), 50),
    ],
    ids=["n=1", "n=3", "se2"],
)
def test_symplectomorphism_defects_do_not_depend_on_the_probe_budget(lift, count, rng, monkeypatch):
    # A budget of one sample's probe cells, the default and all samples' cells group
    # the probes into count calls, a few, and one: every grouping gives the same bits.
    C = lift()
    X = 0.3 * rng.normal(size=(count, 2 * C.dim))
    cells = 2 * (2 * C.dim) ** 2
    per_call = lifts._PROBE_CELLS // cells
    forward, sizes = C.forward_flat, []
    C = replace(C, forward_flat=lambda x: sizes.append(len(x)) or forward(x))
    runs = []
    for budget in (cells, lifts._PROBE_CELLS, count * cells):
        monkeypatch.setattr(lifts, "_PROBE_CELLS", budget)
        runs.append((symplectomorphism_defects(C, X), sizes.copy()))
        sizes.clear()
    assert [calls for _, calls in runs] == [[1] * count, [per_call] * (count // per_call) + [count % per_call], [count]]
    assert all(np.array_equal(defects, runs[0][0]) for defects, _ in runs)
    assert np.all(runs[0][0] <= 1e-6), runs[0][0]


def test_sphere_jet_inverse_raises_singular_jacobian():
    # The sphere initial-point map normalizes q + xi, so its ambient chart
    # Jacobian has rank 5 (condition numbers 1e15 and up): every inversion
    # raises, one point at a time or in rows, though LAPACK meets an exactly
    # zero pivot at only a few of these points.
    L = higher_order_lift(sphere_initial_point_map(), 2)
    q, xi = sphere_tangents(np.random.default_rng(1), 20)
    X = np.zeros((20, 2 * L.dim))
    X[:, :3], X[:, L.dim : L.dim + 3] = q, xi
    for y in L.forward_flat(X):
        with pytest.raises(SingularJacobian):
            L.inverse_flat(y)
    with pytest.raises(SingularJacobian):
        L.inverse_flat(L.forward_flat(X))


@pytest.mark.parametrize("order", [None, 1], ids=["base", "lift1"])
def test_sphere_cotangent_lift_raises_singular_jacobian(order):
    # The composed maps transport covectors by the base Jacobian (forward by
    # a solve with it, inverse by its transpose), which for the initial-point
    # map (or its order-1 lift, whose condition numbers are 1e12 and up) is
    # singular to working precision: neither direction is defined.
    D = sphere_initial_point_map()
    base = D if order is None else higher_order_lift(D, order)
    C = cotangent_lift(base)
    d = C.dim // 2
    rng = np.random.default_rng(2)
    q, xi = sphere_tangents(rng, 20)
    X = 0.3 * rng.normal(size=(20, 4 * d))
    X[:, :3], X[:, 2 * d : 2 * d + 3] = q, xi
    # Pairs of the base map's image, with random covectors.
    Y = X.copy()
    pairs = base.forward_flat(np.concatenate([X[:, :d], X[:, 2 * d : 3 * d]], axis=-1))
    Y[:, :d], Y[:, 2 * d : 3 * d] = pairs[:, :d], pairs[:, d:]
    for flat, points in ((C.forward_flat, X), (C.inverse_flat, Y)):
        for x in points:
            with pytest.raises(SingularJacobian):
                flat(x)
        with pytest.raises(SingularJacobian):
            flat(points)


def test_second_order_geodesic_midpoint_inverse_refuses_its_own_image():
    # The order-2 inverse takes the second derivative of the base inverse by
    # a stencil off the sphere, where the base inverse refuses its points.
    # Without that refusal it returns wrong jets (round trips off by up to
    # 0.66): its first-derivative map, the inverted forward Jacobian, agrees
    # with the ambient inverse's only on tangent vectors.
    lift = higher_order_lift(sphere_geodesic_midpoint_map(), 2)
    Y = lift.forward_flat(lift_points(2, sphere_points)(np.random.default_rng(7), 200))
    with pytest.raises(DomainViolation, match="not on the unit sphere"):
        lift.inverse_flat(Y)
    for y in Y:
        with pytest.raises(DomainViolation, match="not on the unit sphere"):
            lift.inverse_flat(y)


def test_non_finite_base_jacobian_raises_singular_jacobian():
    # An overflowing point makes the base Jacobian non-finite: it has no
    # condition number, and the covector solve would return garbage.
    C = cotangent_lift(sphere_geodesic_midpoint_map())
    x = np.full(12, 0.1)
    x[0] = 1e308
    with np.errstate(all="ignore"), pytest.raises(SingularJacobian):
        C.forward_flat(x)


@pytest.mark.parametrize("D", [sphere_initial_point_map(), sphere_geodesic_midpoint_map()], ids=["initial", "geodesic"])
@pytest.mark.parametrize("defect", ["off-sphere", "non-tangent", "non-finite"])
def test_one_bad_row_fails_the_checked_batch(D, defect, rng):
    q, xi = sphere_tangents(rng, 5)
    if defect == "off-sphere":
        q[3] *= 1.1
    elif defect == "non-tangent":
        xi[3] += 0.1 * q[3]
    else:
        xi[3, 1] = np.nan
    error = ValueError if defect == "non-finite" else DomainViolation
    with pytest.raises(error):
        D.forward(q[3], xi[3])
    with pytest.raises(error):
        D.forward(q, xi)
    D.forward(np.delete(q, 3, axis=0), np.delete(xi, 3, axis=0))  # the other rows pass


# ---------------------------------------------------------------------------
# one-sample loops of the axiom, sphere-lift, step-symplecticity and
# symplectomorphism suites, kept as the oracle of their row versions


def _verify_one_sample_at_a_time(D, samples, tol=1e-7, eps=1e-6):
    defects = []
    for q in samples:
        zero = np.zeros(D.dim)
        a, b = D.forward(q, zero)
        c1 = worst_defect([np.max(np.abs(a - q)), np.max(np.abs(b - q))])
        frame = np.eye(D.dim) if D.fiber_frame_fn is None else D.fiber_frame_fn(q)
        step = eps * max(1.0, float(np.max(np.abs(q))))
        fiber_defects = []
        for u in np.eye(D.dim) if D.fiber_basis_fn is None else D.fiber_basis_fn(q):
            ap, bp = D.forward(q, step * u)
            am, bm = D.forward(q, -step * u)
            diff = ((bp - bm) - (ap - am)) / (2.0 * step)
            fiber_defects.append(np.max(np.abs(diff - frame @ u)))
        defects += [c1, worst_defect(fiber_defects)]
    return worst_defect(defects)


def _axiom_loop(rng):
    flat = [rng.uniform(-2.0, 2.0, size=2) for _ in range(25)]
    cases = [("midpoint n=2", midpoint_map(2), flat)]
    for theta in (0.0, 0.25, 0.5, 1.0):
        cases.append((f"theta={theta}", theta_map(2, theta), flat))
    sphere_pts = []
    for _ in range(25):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        rng.normal(size=3)  # the tangent draw the suite leaves unused
        sphere_pts.append(q)
    cases.append(("sphere initial-point", sphere_initial_point_map(), sphere_pts))
    cases.append(("sphere geodesic-midpoint", sphere_geodesic_midpoint_map(), sphere_pts))
    se2_pts = [np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2.0, 2.0)]) for _ in range(25)]
    cases.append(("se2 exponential", se2_exp_map(), se2_pts))
    lifted = second_order_phase_map(1)
    cases.append(("cotangent-lifted midpoint on T*(TQ)", lifted, [rng.normal(size=4) for _ in range(25)]))
    return [(label, _verify_one_sample_at_a_time(D, samples)) for label, D, samples in cases]


def _one_sphere_curve(rng, scale=0.3):
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    B = rng.normal(size=(3, 3)) * scale
    Cf = rng.normal(size=(3, 3)) * scale

    def curve(t):
        v = a + B[0] * t + B[1] * t * t + B[2] * t**3
        q = v / np.linalg.norm(v)
        raw = Cf[0] + Cf[1] * t + Cf[2] * t * t
        return np.concatenate([q, raw - (q @ raw) * q])

    return curve


def _one_point_second_derivative(q, xi, qd, xid, qdd, xidd, squared):
    w, wd, wdd = q + xi, qd + xid, qdd + xidd
    r = np.linalg.norm(w)
    s = float(xi @ xid)
    last = (s * s if squared else s) * 3.0 * w / r**5
    return wdd / r - (2.0 * s * wd + (float(xid @ xid) + float(xi @ xidd)) * w) / r**3 + last


def _sphere_lift_loop(rng):
    lift = higher_order_lift(sphere_initial_point_map(), 2)
    defects, lin_defects, sq_defects = [], [], []
    for _ in range(50):
        curve = _one_sphere_curve(rng)
        j_in = jet_of_curve(curve, 2)
        jm, jp = np.split(zip_jet_tangent(lift.forward_flat(unzip_jet_tangent(j_in)), 2), 2, axis=-1)

        def plus_curve(t, c=curve):
            w = c(t)[:3] + c(t)[3:]
            return w / np.linalg.norm(w)

        om = jet_of_curve(lambda t, c=curve: c(t)[:3], 2)
        op = jet_of_curve(plus_curve, 2)
        defects += [np.max(np.abs(jm - om)), np.max(np.abs(jp - op))]
        (q, xi), (qd, xid), (qdd, xidd) = [np.split(slot, 2) for slot in j_in]
        for out, squared in ((lin_defects, False), (sq_defects, True)):
            out.append(np.max(np.abs(_one_point_second_derivative(q, xi, qd, xid, qdd, xidd, squared) - jp[2])))
    return [worst_defect(defects), worst_defect(sq_defects), worst_defect(lin_defects)]


def _step_symplecticity_loop(rng):
    # The suite's draws, as three arrays: the free starts, the obstacle starts, then rho and the angle.
    free, Z = rng.normal(size=(20, 4)), rng.normal(size=(20, 12)) * 0.3
    rho, ang = 1.8 + rng.uniform(0.0, 1.5, size=20), rng.uniform(0.0, 2 * np.pi, size=20)
    obstacle = []
    for z0, r, a in zip(Z, rho, ang):
        z0[0], z0[1] = r * np.cos(a), r * np.sin(a)
        obstacle.append(z0)
    V = obstacle_potential(1.0, 1.0, (0.0, 0.0), 3)[0]
    defects = []
    for C, H, samples in (
        (second_order_phase_map(1), second_order_hamiltonian(1), free),
        (second_order_phase_map(3), second_order_hamiltonian(3, V), obstacle),
    ):
        Om = canonical_symplectic_matrix(C.dim // 2)
        Ms = [checks._one_step_jacobian(C, H, 0.01, z0) for z0 in samples]
        defects.append(worst_defect([np.max(np.abs(M.T @ Om @ M - Om)) for M in Ms]))
    return defects


def _symplectomorphism_loop(rng):
    # The suite's oracle case by one-point central differences, its exact case by one-point Jacobians.
    defects = []
    for n, jacobian in ((1, lambda C, x: jacobian_fd(C.forward_flat, x)), (3, lambda C, x: C.jacobian_forward_flat(x))):
        C = second_order_phase_map(n)
        target, pair = tangent_lifted_symplectic_matrix(2 * n), pair_symplectic_matrix(2 * n)
        Ss = [jacobian(C, x) for x in rng.normal(size=(100, 8 * n))]
        defects.append(worst_defect([np.max(np.abs(S.T @ pair @ S - target)) for S in Ss]))
    return defects


# Seed 2 is one where numpy's array power, in place of the scalar one the
# closed-form variants take, changes a sphere-lift defect.
@pytest.mark.parametrize("seed", [0, 2, 5, 71])
def test_row_suites_match_one_sample_loops(seed):
    rows = checks.axiom_suite(np.random.default_rng(seed))
    assert [(r.case, r.defect) for r in rows] == _axiom_loop(np.random.default_rng(seed))
    rows = checks.sphere_lift_suite(np.random.default_rng(seed))
    assert [r.defect for r in rows] == _sphere_lift_loop(np.random.default_rng(seed))
    rows = checks.step_symplecticity_suite(np.random.default_rng(seed))
    assert [r.defect for r in rows] == _step_symplecticity_loop(np.random.default_rng(seed))
    rows = checks.symplecto_suite(np.random.default_rng(seed))
    assert [r.defect for r in rows] == _symplectomorphism_loop(np.random.default_rng(seed))

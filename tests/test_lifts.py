from dataclasses import replace

import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

import geodisc
from geodisc.checks import midpoint_cotangent_closed_form
from geodisc.errors import UnsupportedOrder
from geodisc.jets import jet_of_curve, unzip_jet_tangent, zip_jet_tangent
from geodisc.lifts import (
    canonical_symplectic_matrix,
    check_symplectomorphism,
    cotangent_lift,
    higher_order_lift,
    pair_symplectic_matrix,
    second_order_phase_map,
    tangent_lifted_symplectic_matrix,
)
from geodisc.maps import midpoint_map, se2_exp_map, sphere_initial_point_map, theta_map, verify_discretization_axioms
from geodisc.numeric import jacobian_fd


class TestTangentLift:
    def test_midpoint_tangent_lift_is_componentwise(self, rng):
        # The tangent lift is the order-1 lift; flat slots (q, qd) then (v, vd).
        lift = higher_order_lift(midpoint_map(2), 1)
        q, qd, v, vd = (rng.normal(size=2) for _ in range(4))
        a, ad, b, bd = np.split(lift.forward_flat(np.concatenate([q, qd, v, vd])), 4)
        assert np.allclose(a, q - v / 2) and np.allclose(b, q + v / 2)
        assert np.allclose(ad, qd - vd / 2, atol=1e-7)
        assert np.allclose(bd, qd + vd / 2, atol=1e-7)


class TestHigherOrderLift:
    def test_midpoint_second_lift_value(self):
        lift = higher_order_lift(midpoint_map(1), 2)
        x = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0])  # base slots, fiber slots
        out = lift.forward_flat(x)
        assert np.allclose(out, [-1.0, -1.0, -1.0, 3.0, 5.0, 7.0], atol=1e-12)

    def test_exact_and_fd_backends_agree(self, rng):
        a = higher_order_lift(midpoint_map(2), 2)
        b = higher_order_lift(replace(midpoint_map(2), jacobian_constant=False), 2)
        x = rng.normal(size=12)
        assert np.allclose(a.forward_flat(x), b.forward_flat(x), atol=1e-8)

    def test_inverse_roundtrip(self, rng):
        lift = higher_order_lift(midpoint_map(2), 2)
        x = rng.normal(size=12)
        assert np.allclose(lift.inverse_flat(lift.forward_flat(x)), x, atol=1e-10)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrder):
            higher_order_lift(midpoint_map(1), 5)

    def test_non_affine_flat_maps_check_the_length(self):
        # 16 entries would zip into an order-1 jet over R^4, not R^3.
        lift = higher_order_lift(se2_exp_map(), 1)
        for flat in (lift.forward_flat, lift.inverse_flat):
            with pytest.raises(ValueError, match="expects 12 entries, got 16"):
                flat(np.full(16, 0.1))

    @pytest.mark.parametrize("order, calls", [(1, 1), (2, 5)])
    def test_non_affine_inverse_evaluates_the_base_inverse_once_at_slot_0(self, order, calls, rng):
        # The slot-0 preimage serves the value, the inverse Jacobian and the
        # centre of the order-2 stencil; the stencil adds four more points.
        D = se2_exp_map()
        count = []

        def inverse_fn(a, b):
            count.append(1)
            return D.inverse_fn(a, b)

        counted = higher_order_lift(replace(D, inverse_fn=inverse_fn), order)
        plain = higher_order_lift(D, order)
        y = counted.forward_flat(0.3 * rng.normal(size=2 * counted.dim))
        x = counted.inverse_flat(y)
        assert len(count) == calls
        assert np.array_equal(x, plain.inverse_flat(y))

    def test_lifted_map_satisfies_axioms(self, rng):
        D = higher_order_lift(theta_map(1, 0.25), 2).as_discretization_map()
        report = verify_discretization_axioms(D, [rng.normal(size=3) for _ in range(10)])
        assert report.passed, str(report)

    @pytest.mark.parametrize("order, atol", [(0, 0.0), (1, 4e-15), (2, 1e-9), (3, 1e-7), (4, 1e-6)])
    @pytest.mark.parametrize("D", [midpoint_map(2), theta_map(2, 0.3)], ids=["midpoint", "theta0.3"])
    def test_affine_lift_is_the_pushed_forward_lift(self, D, order, atol, rng):
        # The prebuilt matrices against jets pushed through the same base map
        # marked non-affine (the chain rule up to order 2, the composed curve above).
        affine = higher_order_lift(D, order)
        pushed = higher_order_lift(replace(D, jacobian_constant=False), order)
        X = rng.normal(size=(20, 2 * affine.dim))
        for name in ("forward_flat", "inverse_flat"):
            a, b = getattr(affine, name)(X), getattr(pushed, name)(X)
            assert a.shape == b.shape == X.shape
            assert np.max(np.abs(a - b)) <= atol, name

    def test_third_order_lift_runs(self, rng):
        lift = higher_order_lift(replace(midpoint_map(1), jacobian_constant=False), 3)
        x = rng.normal(size=8)
        out = lift.forward_flat(x)
        base, fiber = x[:4], x[4:]
        assert np.allclose(out, np.concatenate([base - fiber / 2, base + fiber / 2]), atol=1e-5)


class TestCotangentLift:
    def test_midpoint_closed_form_value(self):
        C = cotangent_lift(midpoint_map(1))
        y = C.forward_flat([1.0, 2.0, 0.4, 0.6])  # (m, p, mdot, pdot) -> (m0, p0, m1, p1)
        assert np.allclose(y, [0.8, 1.7, 1.2, 2.3], atol=1e-12)
        assert np.allclose(C.inverse_flat(y), [1.0, 2.0, 0.4, 0.6], atol=1e-12)

    def test_forward_inverse_roundtrip(self, rng):
        C = cotangent_lift(midpoint_map(3))
        x = rng.normal(size=12)
        y = C.forward_flat(x)
        assert np.allclose(C.inverse_flat(y), x, atol=1e-10)

    def test_matches_closed_form_everywhere(self, rng):
        C = second_order_phase_map(2)
        for _ in range(50):
            x = rng.normal(size=16)
            assert np.allclose(C.forward_flat(x), midpoint_cotangent_closed_form(x, 4, inverse=False), atol=1e-12)
            assert np.allclose(C.inverse_flat(x), midpoint_cotangent_closed_form(x, 4, inverse=True), atol=1e-12)

    def test_generic_base_matches_closed_form(self, rng):
        # The same midpoint map without the constant-Jacobian promise takes the
        # jet-pushforward path of the first-order lift.
        C = second_order_phase_map(1, base=replace(midpoint_map(1), jacobian_constant=False))
        for _ in range(10):
            x = rng.normal(size=8)
            assert np.allclose(C.forward_flat(x), midpoint_cotangent_closed_form(x, 2, inverse=False), atol=1e-8)
            assert np.allclose(C.inverse_flat(x), midpoint_cotangent_closed_form(x, 2, inverse=True), atol=1e-8)

    def test_lift_of_nonsymmetric_base(self, rng):
        # theta != 1/2 still yields a valid discretization map on T*Q.
        C = cotangent_lift(theta_map(1, 0.25))
        D = C.as_discretization_map()
        report = verify_discretization_axioms(D, [rng.normal(size=2) for _ in range(10)])
        assert report.passed, str(report)

    @pytest.mark.parametrize(
        "C", [second_order_phase_map(2), cotangent_lift(theta_map(2, 0.25))], ids=["lifted-midpoint", "theta"]
    )
    def test_constant_inverse_jacobian_matches_fd(self, C, rng):
        for _ in range(5):
            y = rng.normal(size=4 * C.dim)
            assert np.allclose(C.inverse_jacobian_flat(y), jacobian_fd(C.inverse_flat, y), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    def test_affine_inverse_is_the_composed_inverse_bit_for_bit(self, n, rng):
        # Midpoint coefficients (+-1/2, +-1) make every product exact, so the
        # one matvec rounds exactly as the composed path does.
        C = second_order_phase_map(n)
        for _ in range(200):
            y = rng.normal(size=8 * n) * 10.0 ** rng.integers(-3, 4)
            assert np.array_equal(C.inverse_flat(y), C._composed_inverse_flat(y))

    def test_affine_inverse_matches_composed_theta_to_rounding(self, rng):
        # theta = 0.3 products are inexact: BLAS may fuse a row's two
        # multiply-adds in one path and not the other, which moves each
        # entry by at most one rounding of its terms.
        C = second_order_phase_map(3, theta_map(3, 0.3))
        K = C.inverse_jacobian_flat(np.zeros(24))
        for _ in range(200):
            y = rng.normal(size=24) * 10.0 ** rng.integers(-3, 4)
            bound = 2 * np.finfo(float).eps * (np.abs(K) @ np.abs(y))
            assert np.all(np.abs(C.inverse_flat(y) - C._composed_inverse_flat(y)) <= bound)

    def test_generic_inverse_jacobian_matches_constant(self, rng):
        # Central differences of an inverse that itself takes jet derivatives
        # by finite differences (~1e-11): ~1e-6 is that noise over the step.
        exact = second_order_phase_map(1)
        generic = second_order_phase_map(1, base=replace(midpoint_map(1), jacobian_constant=False))
        for _ in range(5):
            y = rng.normal(size=8)
            assert np.allclose(generic.inverse_jacobian_flat(y), exact.inverse_jacobian_flat(y), rtol=0.0, atol=2e-6)

    @hyp.given(st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        C = cotangent_lift(midpoint_map(2))
        x = rng.normal(size=8)
        assert np.allclose(C.inverse_flat(C.forward_flat(x)), x, atol=1e-9)


AFFINE_CASES = pytest.mark.parametrize(
    "C",
    [second_order_phase_map(1), second_order_phase_map(3), second_order_phase_map(3, theta_map(3, 0.3))],
    ids=["midpoint-n1", "midpoint-n3", "theta0.3-n3"],
)


class TestAffineForward:
    """The prebuilt forward x -> F x + f of a constant-Jacobian lift."""

    @AFFINE_CASES
    def test_matches_the_composed_forward_to_rounding(self, C, rng):
        eps = np.finfo(float).eps
        for _ in range(200):
            x = rng.normal(size=4 * C.dim) * 10.0 ** rng.integers(-3, 4)
            bound = 4 * eps * np.max(np.abs(x))
            assert np.max(np.abs(C.forward_flat(x) - C._composed_forward_flat(x))) <= bound

    @AFFINE_CASES
    def test_round_trips_with_the_affine_inverse(self, C, rng):
        eps = np.finfo(float).eps
        for _ in range(200):
            x = rng.normal(size=4 * C.dim) * 10.0 ** rng.integers(-3, 4)
            assert np.max(np.abs(C.inverse_flat(C.forward_flat(x)) - x)) <= 4 * eps * np.max(np.abs(x))
            assert np.max(np.abs(C.forward_flat(C.inverse_flat(x)) - x)) <= 4 * eps * np.max(np.abs(x))

    def test_matrices_are_read_only_and_absent_for_other_bases(self):
        F, f = second_order_phase_map(1).affine_forward
        assert not F.flags.writeable and not f.flags.writeable
        generic = second_order_phase_map(1, base=replace(midpoint_map(1), jacobian_constant=False))
        assert generic.affine_forward is None and generic.affine_inverse is None

    def test_forward_is_one_matvec(self, monkeypatch, rng):
        C = second_order_phase_map(2)
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(C.base, "jacobian_forward_flat", counting("jacobian", C.base.jacobian_forward_flat))
        monkeypatch.setattr(C.base, "forward_flat", counting("forward", C.base.forward_flat))
        for _ in range(10):
            C.forward_flat(rng.normal(size=16))
        assert calls == []
        C._composed_forward_flat(rng.normal(size=16))
        assert calls == ["forward", "jacobian", "solve"]


class TestAffineRows:
    """The affine flat maps of a cotangent lift on rows (..., 4d)."""

    @AFFINE_CASES
    def test_rows_match_one_row_calls(self, C, rng):
        eps = np.finfo(float).eps
        X = rng.normal(size=(2, 15, 4 * C.dim)) * 10.0 ** rng.integers(-3, 4, size=(2, 15, 1))
        for flat, (M, _) in ((C.forward_flat, C.affine_forward), (C.inverse_flat, C.affine_inverse)):
            Y = flat(X)
            assert Y.shape == X.shape
            for x, y in zip(X.reshape(-1, 4 * C.dim), Y.reshape(-1, 4 * C.dim)):
                bound = 2 * eps * np.linalg.norm(M, np.inf) * np.max(np.abs(x))
                assert np.max(np.abs(y - flat(x))) <= bound

    @AFFINE_CASES
    def test_symplectomorphism_rows_path_matches_jacobian_fd(self, C, rng):
        from geodisc.numeric import row_jacobian_fd

        for _ in range(5):
            x = rng.normal(size=4 * C.dim)
            assert np.max(np.abs(row_jacobian_fd(C.forward_flat, x) - jacobian_fd(C.forward_flat, x))) <= 1e-12
        samples = [rng.normal(size=4 * C.dim) for _ in range(5)]
        report = check_symplectomorphism(C, samples)
        target, pair = tangent_lifted_symplectic_matrix(C.dim), pair_symplectic_matrix(C.dim)
        for x, defect in zip(samples, report.defects):
            S = jacobian_fd(C.forward_flat, x)
            assert abs(defect - np.max(np.abs(S.T @ pair @ S - target))) <= 1e-12

    def test_symplectomorphism_probes_in_one_call(self, monkeypatch, rng):
        C = second_order_phase_map(3)
        shapes = []
        forward = C.forward_flat
        monkeypatch.setattr(C, "forward_flat", lambda x: shapes.append(np.shape(x)) or forward(x))
        check_symplectomorphism(C, [rng.normal(size=24) for _ in range(3)])
        assert shapes == [(3, 48, 24)]  # the 48 probes of each of the 3 samples, in one call
        with pytest.raises(ValueError, match="eps must be positive"):
            check_symplectomorphism(C, [rng.normal(size=24)], eps=0.0)
        bad = rng.normal(size=(3, 24))
        bad[2, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_symplectomorphism(C, bad)
        for shape in ((3, 23), (24,), (3, 2, 24)):
            with pytest.raises(ValueError, match="rows"):
                check_symplectomorphism(C, np.zeros(shape))


class TestExactLiftedInverseJets:
    """A non-constant-Jacobian base with a closed-form Jacobian: the lift's
    inverse takes its jets with the inverse of that Jacobian, not by finite
    differences."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_the_affine_lift_to_rounding(self, n, rng):
        exact = higher_order_lift(midpoint_map(n), 1)
        generic = higher_order_lift(replace(midpoint_map(n), jacobian_constant=False), 1)
        eps = np.finfo(float).eps
        for _ in range(100):
            y = rng.normal(size=4 * n)
            assert np.max(np.abs(generic.inverse_flat(y) - exact.inverse_flat(y))) <= eps * np.max(np.abs(y))

    def test_takes_no_finite_differences(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("finite-difference Jacobian taken")

        for name in ("jacobian_fd", "row_jacobian_fd"):
            for module in (geodisc.numeric, geodisc.lifts, geodisc.maps, geodisc.jets):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        generic = higher_order_lift(replace(midpoint_map(2), jacobian_constant=False), 1)
        y = rng.normal(size=8)
        assert np.allclose(generic.forward_flat(generic.inverse_flat(y)), y, rtol=0.0, atol=1e-14)


class TestSymplecticStructure:
    def test_canonical_matrix_shape(self):
        O = canonical_symplectic_matrix(2)
        assert np.allclose(O, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        assert np.allclose(O.T, -O)

    def test_pair_and_tangent_matrices_are_antisymmetric(self):
        for M in (pair_symplectic_matrix(2), tangent_lifted_symplectic_matrix(2)):
            assert np.allclose(M.T, -M)

    def test_lifted_midpoint_is_symplectomorphism(self, rng):
        C = second_order_phase_map(1)
        report = check_symplectomorphism(C, [rng.normal(size=8) for _ in range(25)])
        assert report.passed, str(report)
        assert report.max_defect < 1e-9

    def test_lifted_theta_map_is_symplectomorphism(self, rng):
        C = cotangent_lift(theta_map(2, 0.25))
        report = check_symplectomorphism(C, [rng.normal(size=8) for _ in range(10)])
        assert report.passed, str(report)

    def test_non_symplectic_map_detected(self, rng):
        # Scaling one momentum block breaks the pairing.
        class Scaled:
            dim = 2

            def forward_flat(self, x):
                y = midpoint_cotangent_closed_form(x, 2, inverse=False)
                y[2:4] *= 1.05
                return y

        report = check_symplectomorphism(Scaled(), [rng.normal(size=8) for _ in range(3)])
        assert not report.passed


    def test_nan_defect_fails_the_report(self, rng):
        class NanAtSecondSample:
            """The midpoint lift on rows, except that rows near the second sample are nan."""

            dim = 2

            def __init__(self, bad):
                self.bad = bad

            def forward_flat(self, x):
                y = midpoint_cotangent_closed_form(x, 2, inverse=False)
                return np.where(np.max(np.abs(x - self.bad), axis=-1, keepdims=True) < 1e-3, np.nan, y)

        samples = [rng.normal(size=8) for _ in range(2)]
        report = check_symplectomorphism(NanAtSecondSample(samples[1]), samples)
        assert report.defects[0] < 1e-9 and np.isnan(report.defects[1])
        assert np.isnan(report.max_defect) and not report.passed
        assert "FAILED" in str(report)


class TestSphereLift:
    def _curve(self, rng):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        B = rng.normal(size=(3, 3)) * 0.3
        Cf = rng.normal(size=(3, 3)) * 0.3

        def curve(t):
            v = a + B[0] * t + B[1] * t * t + B[2] * t**3
            q = v / np.linalg.norm(v)
            raw = Cf[0] + Cf[1] * t + Cf[2] * t * t
            xi = raw - (q @ raw) * q
            return np.concatenate([q, xi])

        return curve

    def test_second_lift_matches_jet_oracle(self, rng):
        lift = higher_order_lift(sphere_initial_point_map(), 2)
        worst = 0.0
        for _ in range(10):
            curve = self._curve(rng)
            j = jet_of_curve(curve, 2)
            jm, jp = np.split(zip_jet_tangent(lift.forward_flat(unzip_jet_tangent(j)), 2), 2, axis=-1)

            def plus_curve(t, c=curve):
                z = c(t)
                w = z[:3] + z[3:]
                return w / np.linalg.norm(w)

            op = jet_of_curve(plus_curve, 2)
            om = jet_of_curve(lambda t, c=curve: c(t)[:3], 2)
            worst = max(worst, float(np.max(np.abs(jp - op))))
            worst = max(worst, float(np.max(np.abs(jm - om))))
        assert worst < 1e-7, worst

    def test_zero_fiber_reproduces_base_jet(self, rng):
        # With no fiber motion both outputs follow the base point's jet.
        lift = higher_order_lift(sphere_initial_point_map(), 2)
        q = rng.normal(size=3)
        q = q / np.linalg.norm(q)
        base = np.zeros((3, 3))
        base[0] = q
        x = unzip_jet_tangent(np.concatenate([base, np.zeros((3, 3))], axis=-1))  # zero fiber
        jm, jp = np.split(zip_jet_tangent(lift.forward_flat(x), 2), 2, axis=-1)
        assert np.allclose(jm, base, atol=1e-7)
        assert np.allclose(jp, base, atol=1e-7)

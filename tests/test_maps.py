import math
from dataclasses import replace

import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from geodisc.errors import DomainViolation
from geodisc.maps import (
    DiscretizationMap,
    _flat,
    axiom_defects,
    midpoint_map,
    se2_exp,
    se2_exp_map,
    se2_inv,
    se2_log,
    se2_mul,
    sphere_geodesic_midpoint_map,
    sphere_initial_point_map,
    theta_map,
)


def random_tangent(rng, scale=0.4):
    q = rng.normal(size=3)
    q /= np.linalg.norm(q)
    xi = rng.normal(size=3) * scale
    xi -= (q @ xi) * q
    return q, xi


class TestFlatMaps:
    def test_midpoint_forward(self):
        a, b = midpoint_map(1).forward([2.0], [4.0])
        assert np.allclose(a, [0.0]) and np.allclose(b, [4.0])

    def test_midpoint_jacobian(self):
        J = midpoint_map(1).jacobian_forward_flat([2.0, 4.0])
        assert np.allclose(J, [[1.0, -0.5], [1.0, 0.5]])

    def test_theta_one_is_fully_implicit(self):
        a, b = theta_map(1, 1.0).forward([1.0], [2.0])
        assert np.allclose(a, [-1.0]) and np.allclose(b, [1.0])

    def test_theta_zero_is_fully_explicit(self):
        a, b = theta_map(1, 0.0).forward([1.0], [2.0])
        assert np.allclose(a, [1.0]) and np.allclose(b, [3.0])

    @pytest.mark.parametrize("view", ["forward", "inverse"])
    def test_checked_views_refuse_the_wrong_length(self, view):
        with pytest.raises(ValueError, match=r"^midpoint\(n=2\) expects vectors of length 2$"):
            getattr(midpoint_map(2), view)(np.zeros(2), np.zeros(3))

    def test_theta_half_is_midpoint(self, rng):
        x = rng.normal(size=4)
        assert np.allclose(theta_map(2, 0.5).forward_flat(x), midpoint_map(2).forward_flat(x))

    def test_checked_views_broadcast_one_point_against_rows(self, rng):
        D, V = midpoint_map(2), rng.normal(size=(4, 2))
        q = np.array([1.0, 2.0])
        a, b = D.forward(q, V)
        assert a.shape == b.shape == (4, 2) and np.array_equal(b, q + 0.5 * V)
        q2, v2 = D.inverse(q, V)
        assert q2.shape == v2.shape == (4, 2) and np.array_equal(v2, V - q)

    def test_an_affine_form_alone_gives_the_flat_maps_and_jacobian(self, rng):
        # x -> F x and y -> K y on rows, and read-only views of F, which
        # dataclasses.replace keeps when the affine form is dropped.
        F = np.array([[1.0, -0.5], [1.0, 0.5]])
        K = np.linalg.inv(F)
        D = DiscretizationMap(1, affine=(F, K))
        X = rng.normal(size=(5, 2))
        assert np.array_equal(D.forward_flat(X), X @ F.T) and np.array_equal(D.inverse_flat(X), X @ K.T)
        assert np.array_equal(D.forward_flat(X[0]), F @ X[0])
        J = D.jacobian_forward_flat(X)
        assert J.shape == (5, 2, 2) and np.array_equal(J[3], F) and not J.flags.writeable
        plain = replace(D, affine=None)
        assert plain.affine is None and np.array_equal(plain.forward_flat(X), D.forward_flat(X))
        assert np.array_equal(plain.jacobian_forward_flat(X[0]), F)

    def test_given_flat_maps_and_jacobian_stay_beside_the_affine_form(self):
        given = {"forward_flat": np.negative, "inverse_flat": np.positive, "jacobian_fn": np.zeros_like}
        kept = replace(theta_map(1, 0.3), **given)
        assert kept.affine is not None and all(getattr(kept, name) is fn for name, fn in given.items())

    @pytest.mark.parametrize("given", [{}, {"forward_flat": np.negative}, {"inverse_flat": np.negative}])
    def test_a_map_without_flat_maps_or_affine_form_is_refused(self, given):
        with pytest.raises(ValueError, match=r"^bare needs its flat maps or its affine form$"):
            DiscretizationMap(1, name="bare", **given)

    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_theta_range_checked(self, theta):
        with pytest.raises(ValueError):
            theta_map(1, theta)

    @hyp.given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_midpoint_inverse_roundtrip(self, vals):
        q = np.array(vals[:2])
        v = np.array(vals[2:])
        a, b = midpoint_map(2).forward(q, v)
        q2, v2 = midpoint_map(2).inverse(a, b)
        assert np.allclose(q2, q, atol=1e-12) and np.allclose(v2, v, atol=1e-12)


class TestSphereInitialPoint:
    def test_zero_velocity_fixes_point(self, rng):
        q, _ = random_tangent(rng)
        a, b = sphere_initial_point_map().forward(q, np.zeros(3))
        assert np.allclose(a, q) and np.allclose(b, q)

    def test_outputs_on_sphere_and_roundtrip(self, rng):
        D = sphere_initial_point_map()
        for _ in range(20):
            q, xi = random_tangent(rng)
            a, b = D.forward(q, xi)
            assert abs(a @ a - 1) < 1e-12 and abs(b @ b - 1) < 1e-12
            q2, xi2 = D.inverse(a, b)
            assert np.allclose(q2, q, atol=1e-10)
            assert np.allclose(xi2, xi, atol=1e-10)

    def test_closed_form_jacobian_matches_fd(self, rng):
        from geodisc.numeric import jacobian_fd

        D = sphere_initial_point_map()
        q, xi = random_tangent(rng)
        J = D.jacobian_forward_flat(np.concatenate([q, xi]))
        J_fd = jacobian_fd(D.forward_flat, np.concatenate([q, xi]))
        assert np.allclose(J, J_fd, atol=1e-7)

    def test_rejects_off_sphere_point(self):
        with pytest.raises(DomainViolation):
            sphere_initial_point_map().forward([1.1, 0.0, 0.0], [0.0, 0.1, 0.0])

    def test_rejects_non_tangent_velocity(self):
        with pytest.raises(DomainViolation):
            sphere_initial_point_map().forward([1.0, 0.0, 0.0], [0.3, 0.2, 0.0])

    def test_flat_forward_refuses_a_vanishing_sum(self):
        # The unchecked flat map takes q + xi = 0, off the tangent bundle, and still refuses it.
        with pytest.raises(DomainViolation, match="^q \\+ xi vanishes"):
            sphere_initial_point_map().forward_flat(np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0]))

    def test_inverse_needs_open_hemisphere(self):
        D = sphere_initial_point_map()
        with pytest.raises(DomainViolation):
            D.inverse([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


class TestSphereGeodesicMidpoint:
    def test_zero_velocity_fixes_point(self, rng):
        q, _ = random_tangent(rng)
        a, b = sphere_geodesic_midpoint_map().forward(q, np.zeros(3))
        assert np.allclose(a, q) and np.allclose(b, q)

    def test_base_point_is_geodesic_midpoint(self, rng):
        D = sphere_geodesic_midpoint_map()
        for _ in range(10):
            q, xi = random_tangent(rng, scale=0.8)
            a, b = D.forward(q, xi)
            half = 0.5 * np.linalg.norm(xi)
            assert abs(math.acos(np.clip(a @ q, -1, 1)) - half) < 1e-10
            assert abs(math.acos(np.clip(b @ q, -1, 1)) - half) < 1e-10

    def test_roundtrip(self, rng):
        D = sphere_geodesic_midpoint_map()
        for _ in range(20):
            q, xi = random_tangent(rng, scale=0.7)
            a, b = D.forward(q, xi)
            q2, xi2 = D.inverse(a, b)
            assert np.allclose(q2, q, atol=1e-10)
            assert np.allclose(xi2, xi, atol=1e-9)

    def test_rejects_half_turn_velocity(self):
        q = np.array([1.0, 0.0, 0.0])
        xi = np.array([0.0, 2 * math.pi, 0.0])
        with pytest.raises(DomainViolation):
            sphere_geodesic_midpoint_map().forward(q, xi)

    def test_inverse_rejects_antipodal_pair(self):
        D = sphere_geodesic_midpoint_map()
        with pytest.raises(DomainViolation):
            D.inverse([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])


class TestSE2:
    def test_exp_of_zero(self):
        assert np.allclose(se2_exp(np.zeros(3)), np.zeros(3))

    def test_pure_rotation(self):
        g = se2_exp(np.array([0.0, 0.0, 1.2]))
        assert np.allclose(g, [0.0, 0.0, 1.2])

    def test_quarter_turn_with_translation(self):
        # Unit forward velocity while turning by pi/2 traces a quarter circle.
        g = se2_exp(np.array([math.pi / 2, 0.0, math.pi / 2]))
        assert np.allclose(g, [1.0, 1.0, math.pi / 2], atol=1e-12)

    @hyp.given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-3.0, 3.0)
    )
    def test_exp_log_roundtrip(self, v1, v2, w):
        xi = np.array([v1, v2, w])
        assert np.allclose(se2_log(se2_exp(xi)), xi, atol=1e-9)

    def test_log_rejects_pi(self):
        with pytest.raises(DomainViolation):
            se2_log(np.array([0.0, 0.0, math.pi]))

    def test_group_inverse(self, rng):
        g = np.array([0.3, -1.2, 0.9])
        assert np.allclose(se2_mul(g, se2_inv(g)), np.zeros(3), atol=1e-14)

    def test_exp_map_zero_velocity(self):
        g = np.array([0.5, -0.2, 0.7])
        a, b = se2_exp_map().forward(g, np.zeros(3))
        assert np.allclose(a, g) and np.allclose(b, g)

    def test_exp_map_roundtrip(self, rng):
        D = se2_exp_map()
        for _ in range(20):
            g = rng.uniform(-2, 2, size=3)
            xi = rng.uniform(-1, 1, size=3)
            a, b = D.forward(g, xi)
            g2, xi2 = D.inverse(a, b)
            assert np.allclose(g2, g, atol=1e-10)
            assert np.allclose(xi2, xi, atol=1e-10)

    def test_fiber_frame_rotates_translations(self):
        D = se2_exp_map()
        F = D.fiber_frame_fn(np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(F, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


class TestAxioms:
    @pytest.mark.parametrize(
        "factory,samples",
        [
            (lambda: midpoint_map(2), "flat"),
            (lambda: theta_map(2, 0.25), "flat"),
            (sphere_initial_point_map, "sphere"),
            (sphere_geodesic_midpoint_map, "sphere"),
            (se2_exp_map, "flat3"),
        ],
    )
    def test_all_maps_pass(self, rng, factory, samples):
        D = factory()
        if samples == "sphere":
            pts = [random_tangent(rng)[0] for _ in range(10)]
        elif samples == "flat3":
            pts = [rng.uniform(-2, 2, size=3) for _ in range(10)]
        else:
            pts = [rng.uniform(-2, 2, size=2) for _ in range(10)]
        defects = axiom_defects(D, pts)
        assert defects.shape == (10, 2) and np.all(defects <= 1e-7), defects

    def test_detects_violation(self, rng):
        # Second output moves at twice the proper rate: condition 2 fails.
        broken = DiscretizationMap(
            dim=2,
            forward_flat=_flat(lambda q, v: (q - 0.5 * v, q + 1.5 * v), 2),
            inverse_flat=_flat(lambda a, b: (0.5 * (a + b), 0.5 * (b - a)), 2),
            name="broken",
        )
        defects = axiom_defects(broken, [rng.normal(size=2)])
        assert defects[0, 0] <= 1e-12 and defects[0, 1] > 0.5, defects

    def test_detects_condition1_violation(self, rng):
        shifted = DiscretizationMap(
            dim=2,
            forward_flat=_flat(lambda q, v: (q + 0.01, q + v), 2),
            inverse_flat=_flat(lambda a, b: (a, b - a), 2),
            name="shifted",
        )
        defects = axiom_defects(shifted, [rng.normal(size=2)])
        assert defects[0, 0] > 1e-3, defects

    @pytest.mark.parametrize("samples", [[], np.zeros((0, 2))], ids=["list", "array"])
    def test_no_samples_is_an_error(self, samples):
        # Not "expects vectors of length 2", and never a pass on nothing.
        with pytest.raises(ValueError, match="at least one sample"):
            axiom_defects(midpoint_map(2), samples)

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[0.0, 1.0], [np.nan, 0.0]], "sample contains non-finite entries"),
            (np.array([[0.0, 1.0], [np.inf, 0.0]]), "sample contains non-finite entries"),
            (np.zeros((3, 2, 2)), r"sample must be one-dimensional, got shape \(2, 2\)"),
            (np.zeros((3, 3)), r"midpoint\(n=2\) expects vectors of length 2"),
        ],
        ids=["nan", "inf", "3-d", "width"],
    )
    def test_samples_are_checked_as_one_array(self, samples, message):
        # The texts of a per-sample check, from one check of all the samples.
        with pytest.raises(ValueError, match="^" + message + "$"):
            axiom_defects(midpoint_map(2), samples)

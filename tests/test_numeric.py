import math

import numpy as np
import pytest

from geodisc.errors import DomainViolation, EvaluationFailure, NonConvergence, SingularJacobian, UnsupportedOrder
from geodisc.numeric import as_vector, jacobian_fd, newton_solve, taylor_derivatives, worst_defect
from jet_oracles import fd_weights, taylor_reference


class TestFdWeights:
    def test_central_first_derivative(self):
        w = fd_weights([-1.0, 0.0, 1.0], 1)
        assert np.allclose(w, [-0.5, 0.0, 0.5], atol=1e-13)

    def test_central_second_derivative(self):
        w = fd_weights([-1.0, 0.0, 1.0], 2)
        assert np.allclose(w, [1.0, -2.0, 1.0], atol=1e-13)

    def test_five_point_fourth_derivative(self):
        w = fd_weights([-2.0, -1.0, 0.0, 1.0, 2.0], 4)
        assert np.allclose(w, [1.0, -4.0, 6.0, -4.0, 1.0], atol=1e-12)

    def test_one_sided_first_derivative(self):
        w = fd_weights([0.0, 1.0, 2.0], 1)
        assert np.allclose(w, [-1.5, 2.0, -0.5], atol=1e-13)

    def test_exactness_on_polynomials(self):
        # Weights for the m-th derivative must be exact on low-degree monomials.
        nodes = np.array([-2.0, -0.5, 0.0, 1.0, 2.5])
        for m in (1, 2, 3):
            w = fd_weights(nodes, m)
            for k in range(m + 1):
                deriv = w @ nodes**k
                exact = float(math.factorial(m)) if k == m else 0.0
                assert abs(deriv - exact) < 1e-10


class TestTaylorDerivatives:
    def test_polynomial_exact(self):
        f = lambda t: np.array([1.0 + 2 * t + 3 * t**2 + 4 * t**3])
        vals = taylor_derivatives(f, 2)
        assert np.allclose(vals[0], 1.0, atol=1e-10)
        assert np.allclose(vals[1], 2.0, atol=1e-8)
        assert np.allclose(vals[2], 6.0, atol=1e-6)

    def test_backends_agree(self):
        # The package's stencils (orders up to 2, at 0 of the shifted curve)
        # and the reference stencils of orders up to 4 against hand-written
        # derivatives: exp(u) with u = 0.7 sin t by Faa di Bruno, and
        # cos(1.3 t)^(r) = 1.3^r cos(1.3 t + r pi/2).
        f = lambda t: np.array([np.exp(np.sin(t) * 0.7), np.cos(t * 1.3)])
        t = 0.3
        u1, u2, u3, u4 = 0.7 * np.cos(t), -0.7 * np.sin(t), -0.7 * np.cos(t), 0.7 * np.sin(t)
        g = np.exp(0.7 * np.sin(t))
        exp_u = [
            g,
            u1 * g,
            (u2 + u1**2) * g,
            (u3 + 3 * u1 * u2 + u1**3) * g,
            (u4 + 4 * u1 * u3 + 3 * u2**2 + 6 * u1**2 * u2 + u1**4) * g,
        ]
        want = [[exp_u[r], 1.3**r * np.cos(1.3 * t + r * np.pi / 2)] for r in range(5)]
        for got in (taylor_derivatives(lambda s: f(t + s), 2), taylor_reference(f, t, 4)):
            for r, g_r in enumerate(got):
                assert np.allclose(g_r, want[r], rtol=1e-6, atol=1e-6)

    def test_a_foreign_error_of_the_curve_is_an_evaluation_failure(self):
        with pytest.raises(EvaluationFailure, match="^callable failed at 0.0: float division by zero$") as err:
            taylor_derivatives(lambda t: 1.0 / 0.0, 1)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_the_package_own_error_of_the_curve_passes_unwrapped(self):
        # Only foreign errors are wrapped: a DomainViolation at the first
        # stencil point off 0 (-2 h, h = 1e-3) stays one.
        def f(t):
            if t:
                raise DomainViolation(f"off the domain at {t}")
            return np.array([1.0])

        with pytest.raises(DomainViolation, match=r"^off the domain at -0\.002$") as err:
            taylor_derivatives(f, 1)
        assert type(err.value) is DomainViolation and err.value.__cause__ is None

    def test_order_cap(self):
        f = lambda t: np.array([t])
        with pytest.raises(UnsupportedOrder):
            taylor_derivatives(f, 3)


class TestFdStencils:
    @pytest.mark.parametrize("t0", [0.0, 0.3, -2.5])
    @pytest.mark.parametrize("order", [1, 2])
    def test_bit_identical_to_fresh_stencils(self, t0, order):
        # The package's stencils are Fornberg's weights on the reference
        # steps, bit for bit, at 0 of the curve shifted to t0.
        f = lambda t: np.array([np.sin(3 * (t0 + t)), np.exp(t0 + t) / (2 + (t0 + t) ** 2)])
        got = taylor_derivatives(f, order)
        want = taylor_reference(f, 0.0, order)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_order_two_takes_nine_evaluations(self):
        times = []
        taylor_derivatives(lambda t: times.append(t) or np.array([t * t]), 2)
        assert len(times) == 9 and times.count(0.0) == 1


class TestRowHelpers:
    def test_worst_defect_keeps_nan(self):
        assert np.isnan(worst_defect([1e-12, float("nan")]))  # max(1e-12, nan) is 1e-12
        assert np.isnan(worst_defect([float("nan"), 1e-12]))
        assert worst_defect([3e-12, 1e-12]) == 3e-12 and worst_defect([]) == 0.0

    def test_jacobian_fd_rows_match_one_point_calls(self):
        f = lambda X: np.stack([X[..., 0] * X[..., 1], np.sin(X[..., 2]) - X[..., 0]], axis=-1)
        X = np.array([[0.3, -0.7, 1.1], [-40.0, 2.5, 0.2], [1e-3, 0.0, -3.0]])  # default steps 1e-5, 4e-4, 3e-5
        J = jacobian_fd(f, X)
        assert J.shape == (3, 2, 3) and J.flags.c_contiguous
        for x, Jx in zip(X, J, strict=True):
            one = jacobian_fd(f, x)
            assert np.array_equal(Jx, one) and one.flags.c_contiguous
        with pytest.raises(ValueError, match="eps must be positive"):
            jacobian_fd(f, X[0], eps=-1e-6)


def pointwise(f):
    """``f`` of one point as a map of rows, one call per row."""
    return lambda X: np.array([f(x) for x in X])


class TestJacobianFd:
    def test_simple_map(self):
        F = lambda z: np.array([z[0] ** 2, z[0] * z[1]])
        J = jacobian_fd(pointwise(F), np.array([1.0, 2.0]))
        assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]], atol=1e-7)

    def test_non_finite_point_is_refused(self):
        with pytest.raises(ValueError, match="^x contains non-finite entries$"):
            jacobian_fd(lambda x: x, np.array([1.0, np.nan]))


class TestAsVector:
    @pytest.mark.parametrize(
        "x, message",
        [
            (np.zeros((2, 2)), r"v must be one-dimensional, got shape \(2, 2\)"),
            ([1.0, np.inf], "v contains non-finite entries"),
        ],
        ids=["2-d", "non-finite"],
    )
    def test_refuses(self, x, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_vector(x, name="v")


class TestNewtonSolve:
    def test_scalar_quadratic(self):
        f = lambda x: np.array([x[0] ** 2 - 2.0])
        x, _ = newton_solve(f, np.array([1.0]), jacobian=lambda x: np.array([[2.0 * x[0]]]))
        assert abs(x[0] - np.sqrt(2)) < 1e-12

    def test_vector_system(self):
        f = lambda z: np.array([z[0] + z[1] - 3.0, z[0] * z[1] - 2.0])
        z, _ = newton_solve(f, np.array([0.5, 1.7]), jacobian=lambda z: jacobian_fd(pointwise(f), z))
        assert np.allclose(sorted(z), [1.0, 2.0], atol=1e-10)

    def test_supplied_jacobian_shape_checked(self):
        f = lambda z: np.array([z[0] + z[1] - 3.0, z[0] - z[1]])
        with pytest.raises(ValueError, match="shape"):
            newton_solve(f, np.array([0.5, 1.7]), jacobian=lambda z: np.ones((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            newton_solve(f, np.array([0.5, 1.7]), jacobian=lambda z: np.ones(4))
        z, _ = newton_solve(f, np.array([0.5, 1.7]), jacobian=lambda z: np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.allclose(z, [1.5, 1.5], atol=1e-12)

    def test_singular_jacobian(self):
        f = lambda z: np.array([z[0] + z[1], z[0] + z[1]])
        with pytest.raises(SingularJacobian):
            newton_solve(f, np.array([1.0, -2.0]), jacobian=lambda z: np.ones((2, 2)))

    def test_nonconvergence_carries_best_iterate(self):
        f = lambda x: np.array([x[0] ** 2 + 1.0])  # no real root
        with pytest.raises(NonConvergence) as err:
            newton_solve(f, np.array([3.0]), lambda x: np.array([[2.0 * x[0]]]), max_iter=8, backtracking=True)
        assert err.value.x_best is not None
        assert err.value.residual_norm >= 1.0

    def test_nonfinite_residual_names_its_iteration(self):
        # A Jacobian a quarter of the true one: the first update lands past x = 3.
        f = lambda x: np.where(x > 3.0, np.inf, x - 2.0)
        with pytest.raises(NonConvergence) as err:
            newton_solve(f, np.array([-2.0]), lambda x: np.full((1, 1), 0.25), tol=1e-12)
        expected = "Newton met a non-finite residual at iteration 1, best residual 4.000e+00 (tol 1.0e-12)"
        assert str(err.value) == expected
        assert err.value.iterations == 1 and np.array_equal(err.value.x_best, [-2.0])
        assert err.value.row is None

    def test_zero_tolerance_never_converges(self):
        f = lambda x: np.array([np.sin(x[0])])
        with pytest.raises(NonConvergence):
            newton_solve(f, np.array([0.2]), lambda x: jacobian_fd(pointwise(f), x), tol=0.0, max_iter=5)

    def test_backtracking_avoids_bad_region(self):
        def f(x):
            if x[0] < -1.0:
                raise DomainViolation("left of the wall")
            return np.array([np.tanh(x[0]) - 0.5])

        x, _ = newton_solve(f, np.array([-0.9]), lambda x: jacobian_fd(pointwise(f), x), backtracking=True)
        assert abs(np.tanh(x[0]) - 0.5) < 1e-12

    def test_backtracking_that_never_lowers_the_residual_fails(self):
        # A Jacobian of the wrong sign: every halved step moves uphill.
        with pytest.raises(NonConvergence) as err:
            newton_solve(lambda x: x, np.array([1.0]), lambda x: -np.eye(1), backtracking=True)
        assert str(err.value) == "backtracking failed to reduce the residual below 1.000e+00 (tol 1.0e-12)"
        assert err.value.iterations == 1 and np.array_equal(err.value.x_best, [1.0])


class TestRefreshPolicies:
    """The two refresh policies of ``newton_solve`` on one small system:
    the equations a_i x_i = b_i of one point, whose Jacobian the tests
    supply wrong on purpose to control the contraction."""

    A, B = np.array([2.0, 5.0]), np.array([1.0, -3.0])

    def residual(self, x):
        return self.A * x - self.B

    def counted(self, jacobian):
        calls = []

        def counting(x):
            calls.append(np.array(x))
            return jacobian(x)

        return counting, calls

    def test_chord_with_a_good_carried_inverse_takes_no_jacobian(self):
        jac, calls = self.counted(lambda x: np.diag(self.A))
        J_inv = np.diag(1.0 / self.A)
        x, used = newton_solve(self.residual, np.zeros(2), jac, tol=1e-12, chord=True, J_inv=J_inv)
        assert calls == [] and used is J_inv
        assert np.array_equal(x, self.B / self.A)

    def test_chord_refreshes_a_slow_iterate_once(self):
        # The point carries a third of its inverse Jacobian and is given
        # three times its Jacobian: its residual shrinks by 2/3 per
        # iteration, so it goes stale at once and stays slow after its one
        # refresh.
        a, b = self.A[1:], self.B[1:]
        jac, calls = self.counted(lambda x: np.diag(3.0 * a))
        J_inv = np.diag(1.0 / (3.0 * a))
        x, used = newton_solve(lambda x: a * x - b, np.zeros(1), jac, tol=1e-12, max_iter=200, chord=True, J_inv=J_inv)
        assert len(calls) == 1 and used is not J_inv
        assert used[0, 0] == 1.0 / (3.0 * a[0])
        assert np.max(np.abs(a * x - b)) <= 1e-12

    def test_chord_applies_the_last_correction(self):
        # The start is within tol 0.1, so it does not iterate; the chord
        # still takes one step, and the Newton policy returns the start
        # unchanged.
        x0 = np.array([0.52, -0.59])
        jac, calls = self.counted(lambda x: np.diag(self.A))
        x, _ = newton_solve(self.residual, x0, jac, tol=0.1, chord=True)
        assert len(calls) == 1 and np.allclose(x, self.B / self.A, rtol=0, atol=1e-15)
        jac, calls = self.counted(lambda x: np.diag(self.A))
        x, used = newton_solve(self.residual, x0, jac, tol=0.1)
        assert calls == [] and used is None and np.array_equal(x, x0)

    def test_newton_takes_one_jacobian_per_iterate_above_tol(self):
        f = lambda x: np.array([x[0] ** 2 - 2.0])
        iterates = []

        def residual(x):
            iterates.append(np.array(x))
            return f(x)

        jac, calls = self.counted(lambda x: np.array([[2.0 * x[0]]]))
        x, _ = newton_solve(residual, np.array([1.0]), jac, tol=1e-12)
        assert len(iterates) >= 4 and [c.tolist() for c in calls] == [i.tolist() for i in iterates[:-1]]
        assert all(abs(f(c)[0]) > 1e-12 for c in calls) and abs(f(x)[0]) <= 1e-12

    def test_newton_takes_no_jacobian_at_a_converged_start(self):
        jac, calls = self.counted(lambda x: np.array([[2.0]]))
        x, used = newton_solve(lambda x: 2.0 * x - 1.0, np.array([0.5]), jac, tol=0.0)
        assert calls == [] and used is None and np.array_equal(x, [0.5])

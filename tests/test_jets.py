import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from geodisc.errors import UnsupportedOrder
from geodisc.jets import (
    directional_second_derivative,
    jet_of_curve,
    jet_pushforward,
    unzip_jet_tangent,
    zip_jet_tangent,
)
from jet_oracles import composed_jet


def poly_curve(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)

    def c(t):
        out = np.zeros(coeffs.shape[1])
        for k in range(coeffs.shape[0] - 1, -1, -1):
            out = coeffs[k] + t * out
        return out

    return c


class TestJet:
    def test_flat_roundtrip(self, rng):
        # A jet (k + 1, n) is flat as its reshape, slot after slot; the flat
        # layout of a pair of jets is their unzipped pair jet, and zipping
        # it gives the two jets back.
        a, b = rng.normal(size=(2, 4, 3))
        flat = np.concatenate([a.reshape(-1), b.reshape(-1)])
        assert np.array_equal(unzip_jet_tangent(np.concatenate([a, b], axis=-1)), flat)
        back_a, back_b = np.split(zip_jet_tangent(flat, 3), 2, axis=-1)
        assert np.array_equal(back_a, a) and np.array_equal(back_b, b)

    def test_mismatched_slots_rejected(self):
        with pytest.raises(ValueError):
            jet_pushforward(lambda x: x, [np.array([1.0, 2.0]), np.array([3.0])], jacobian=lambda x, y: np.eye(2))


class TestJetTangent:
    def test_zip_unzip_roundtrip(self, rng):
        x = rng.normal(size=(2, 5, 12))  # rows of order-2 tangents over R^2
        z = zip_jet_tangent(x, 2)
        assert z.shape == (2, 5, 3, 4)
        assert np.array_equal(unzip_jet_tangent(z), x)
        assert np.array_equal(zip_jet_tangent(unzip_jet_tangent(z), 2), z)

    @pytest.mark.parametrize("order, n", [(0, 1), (1, 2), (2, 3)])
    def test_empty_stacks(self, order, n):
        # Explicit sizes: numpy cannot infer a -1 on a stack of no rows.
        z = zip_jet_tangent(np.empty((0, 5, 2 * (order + 1) * n)), order)
        assert z.shape == (0, 5, order + 1, 2 * n)
        assert unzip_jet_tangent(z).shape == (0, 5, 2 * (order + 1) * n)
        assert unzip_jet_tangent(np.empty((0, order + 1, 2 * n))).shape == (0, 2 * (order + 1) * n)

    def test_zip_layout(self):
        # Base slots (1, 2), fiber slots (10, 20).
        z = zip_jet_tangent(np.array([1.0, 2.0, 10.0, 20.0]), 1)
        assert np.array_equal(z, [[1.0, 10.0], [2.0, 20.0]])

    def test_fiber_slot_count_checked(self):
        # An order-1 tangent over R^1 with one fiber slot missing.
        with pytest.raises(ValueError):
            zip_jet_tangent(np.array([1.0, 2.0, 10.0]), 1)


class TestJetOfCurve:
    def test_polynomial_derivatives(self):
        c = poly_curve([[1.0, 0.0], [2.0, -1.0], [0.5, 3.0]])  # 1+2t+0.5t^2 etc.
        j = jet_of_curve(c, 2)
        assert j.shape == (3, 2)
        assert np.allclose(j[0], [1.0, 0.0], atol=1e-10)
        assert np.allclose(j[1], [2.0, -1.0], atol=1e-8)
        assert np.allclose(j[2], [1.0, 6.0], atol=1e-6)

    def test_order_above_cap(self):
        with pytest.raises(UnsupportedOrder):
            jet_of_curve(lambda t: np.array([t]), 3)


class TestDirectionalSecondDerivative:
    def test_quadratic_form_exact(self, rng):
        A = rng.normal(size=(3, 3))
        A = A + A.T
        F = lambda x: np.array([0.5 * x @ A @ x])
        x = rng.normal(size=3)
        u = rng.normal(size=3)
        val = directional_second_derivative(F, x, F(x), u)
        assert np.allclose(val, [u @ A @ u], atol=1e-7)

    def test_zero_direction(self):
        F = lambda x: x**2
        out = directional_second_derivative(F, np.array([1.0]), np.array([1.0]), np.array([0.0]))
        assert np.array_equal(out, [0.0])


class TestJetPushforward:
    def test_identity(self, rng):
        j = rng.normal(size=(3, 2))
        out = jet_pushforward(lambda x: x, j, jacobian=lambda x, y: np.eye(2))
        assert np.allclose(out, j, atol=1e-6)

    def test_chain_vs_curve_backends(self, rng):
        # The chain rule against the jet of F composed with the polynomial
        # curve t -> j0 + t j1 + t^2 j2 / 2.
        F = lambda x: np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[1]])
        J = lambda x, y: np.array([[np.cos(x[0]), 2 * x[1]], [x[1], x[0]]])
        j = rng.normal(size=(3, 2)) * 0.5
        a = jet_pushforward(F, j, jacobian=J)
        b = jet_of_curve(lambda t: F(j[0] + t * j[1] + 0.5 * t * t * j[2]), 2)
        assert np.allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_linear_map_exact(self, rng):
        M = rng.normal(size=(3, 2))
        F = lambda x: M @ x
        j = rng.normal(size=(3, 2))
        out = jet_pushforward(F, j, jacobian=lambda x, y: M)
        for r in range(3):
            assert np.allclose(out[r], M @ j[r], atol=1e-9)

    def test_order3_polynomial_composition(self):
        # c(t) = (t, t^2), F(x, y) = x*y => (F o c)(t) = t^3, third deriv 6:
        # the composed-curve oracle has it; the chain rule stops at order 2.
        j = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        F = lambda x: np.array([x[0] * x[1]])
        out = composed_jet(F, j)
        assert abs(out[0, 0]) < 1e-9
        assert abs(out[1, 0]) < 1e-6
        assert abs(out[2, 0]) < 1e-4
        assert abs(out[3, 0] - 6.0) < 1e-3
        with pytest.raises(UnsupportedOrder, match="jet order 3 exceeds the supported maximum 2"):
            jet_pushforward(F, j, jacobian=lambda x, y: np.array([[x[1], x[0]]]))

    @hyp.given(st.integers(0, 2 ** 31 - 1))
    def test_composition_of_pushforwards(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(2, 2)) * 0.6
        F = lambda x: np.tanh(A @ x)
        G = lambda x: x + 0.3 * np.sin(x)
        j = rng.normal(size=(3, 2)) * 0.4
        JF = lambda x, y: (1.0 - y**2)[:, None] * A  # y = tanh(A x)
        JG = lambda x, y: np.eye(2) + np.diag(0.3 * np.cos(x))
        once = jet_pushforward(lambda x: F(G(x)), j, jacobian=lambda x, y: JF(G(x), y) @ JG(x, G(x)))
        twice = jet_pushforward(F, jet_pushforward(G, j, jacobian=JG), jacobian=JF)
        assert np.allclose(once, twice, rtol=2e-4, atol=2e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jet_rejected(self, bad):
        for order in (1, 2):
            j = np.zeros((order + 1, 2))
            j[order, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                jet_pushforward(lambda x: x, j, jacobian=lambda x, y: np.eye(2))

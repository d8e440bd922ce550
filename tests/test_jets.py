import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from geodisc.errors import UnsupportedOrder
from geodisc.jets import (
    Jet,
    JetTangent,
    directional_second_derivative,
    jet_of_curve,
    jet_pushforward,
    unzip_jet_tangent,
    zip_jet_tangent,
)


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
        slots = tuple(rng.normal(size=3) for _ in range(4))
        j = Jet(slots)
        assert j.order == 3 and j.dim == 3
        back = Jet.from_flat(j.flat(), 3, 3)
        for r in range(4):
            assert np.array_equal(back.slot(r), j.slot(r))

    def test_mismatched_slots_rejected(self):
        with pytest.raises(ValueError):
            Jet((np.array([1.0, 2.0]), np.array([3.0])))


class TestJetTangent:
    def test_zip_unzip_roundtrip(self, rng):
        base = Jet(tuple(rng.normal(size=2) for _ in range(3)))
        xt = JetTangent(base, tuple(rng.normal(size=2) for _ in range(3)))
        back = unzip_jet_tangent(zip_jet_tangent(xt))
        assert np.array_equal(back.flat(), xt.flat())

    def test_zip_layout(self):
        base = Jet((np.array([1.0]), np.array([2.0])))
        xt = JetTangent(base, (np.array([10.0]), np.array([20.0])))
        z = zip_jet_tangent(xt)
        assert np.allclose(z.slot(0), [1.0, 10.0])
        assert np.allclose(z.slot(1), [2.0, 20.0])

    def test_fiber_slot_count_checked(self):
        base = Jet((np.array([1.0]), np.array([2.0])))
        with pytest.raises(ValueError):
            JetTangent(base, (np.array([1.0]),))


class TestJetOfCurve:
    def test_polynomial_derivatives(self):
        c = poly_curve([[1.0, 0.0], [2.0, -1.0], [0.5, 3.0]])  # 1+2t+0.5t^2 etc.
        j = jet_of_curve(c, 2)
        assert np.allclose(j.slot(0), [1.0, 0.0], atol=1e-10)
        assert np.allclose(j.slot(1), [2.0, -1.0], atol=1e-8)
        assert np.allclose(j.slot(2), [1.0, 6.0], atol=1e-6)

    def test_order_above_cap(self):
        with pytest.raises(UnsupportedOrder):
            jet_of_curve(lambda t: np.array([t]), 5)


class TestDirectionalSecondDerivative:
    def test_quadratic_form_exact(self, rng):
        A = rng.normal(size=(3, 3))
        A = A + A.T
        F = lambda x: np.array([0.5 * x @ A @ x])
        x = rng.normal(size=3)
        u = rng.normal(size=3)
        val = directional_second_derivative(F, x, u)
        assert np.allclose(val, [u @ A @ u], atol=1e-7)

    def test_zero_direction(self):
        F = lambda x: x**2
        out = directional_second_derivative(F, np.array([1.0]), np.array([0.0]))
        assert np.array_equal(out, [0.0])


class TestJetPushforward:
    def test_identity(self, rng):
        j = Jet(tuple(rng.normal(size=2) for _ in range(3)))
        out = jet_pushforward(lambda x: x, j)
        assert np.allclose(out.flat(), j.flat(), atol=1e-6)

    def test_chain_vs_curve_backends(self, rng):
        F = lambda x: np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[1]])
        j = Jet(tuple(rng.normal(size=2) * 0.5 for _ in range(3)))
        a = jet_pushforward(F, j, method="chain")
        b = jet_pushforward(F, j, method="curve")
        assert np.allclose(a.flat(), b.flat(), rtol=1e-5, atol=1e-5)

    def test_chain_order_cap(self):
        j = Jet(tuple(np.array([0.1]) for _ in range(4)))
        with pytest.raises(UnsupportedOrder):
            jet_pushforward(lambda x: x, j, method="chain")

    def test_linear_map_exact(self, rng):
        M = rng.normal(size=(3, 2))
        F = lambda x: M @ x
        j = Jet(tuple(rng.normal(size=2) for _ in range(3)))
        out = jet_pushforward(F, j, method="chain", jacobian=lambda x: M)
        for r in range(3):
            assert np.allclose(out.slot(r), M @ j.slot(r), atol=1e-9)

    def test_order3_polynomial_composition(self):
        # c(t) = (t, t^2), F(x, y) = x*y => (F o c)(t) = t^3, third deriv 6.
        j = Jet((np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.zeros(2)))
        F = lambda x: np.array([x[0] * x[1]])
        out = jet_pushforward(F, j, method="curve")
        assert abs(out.slot(0)[0]) < 1e-9
        assert abs(out.slot(1)[0]) < 1e-6
        assert abs(out.slot(2)[0]) < 1e-4
        assert abs(out.slot(3)[0] - 6.0) < 1e-3

    @hyp.given(st.integers(0, 2 ** 31 - 1))
    def test_composition_of_pushforwards(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(2, 2)) * 0.6
        F = lambda x: np.tanh(A @ x)
        G = lambda x: x + 0.3 * np.sin(x)
        j = Jet(tuple(rng.normal(size=2) * 0.4 for _ in range(3)))
        once = jet_pushforward(lambda x: F(G(x)), j)
        twice = jet_pushforward(F, jet_pushforward(G, j))
        assert np.allclose(once.flat(), twice.flat(), rtol=2e-4, atol=2e-4)

import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

from geodisc.errors import TooFewPoints
from geodisc.hamiltonian import (
    HamiltonianSystem,
    SecondOrderState,
    fourth_order_residual,
    integrate,
    lagrangian_energy,
    legendre_second_order,
    second_order_hamiltonian,
    symplectic_step,
    trajectory_from_positions,
)
from geodisc.lifts import second_order_phase_map
from geodisc.numeric import jacobian_fd


def free_setup(n=1):
    return second_order_phase_map(n), second_order_hamiltonian(n)


class TestSecondOrderHamiltonian:
    def test_free_value(self):
        H = second_order_hamiltonian(1)
        assert H.value(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == pytest.approx(6.5)

    def test_zero_momenta(self):
        H = second_order_hamiltonian(2)
        assert H.value(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)) == 0.0

    def test_with_potential(self):
        V = lambda q: 1.0 / (q[0] ** 2 + q[1] ** 2 - 1.0)
        gV = lambda q: np.zeros(3)  # value-only test
        H = second_order_hamiltonian(3, V, gV)
        m = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        p = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0]])
        assert H.value(m, p) == pytest.approx(0.5 - 1.0 / 3.0)

    def test_partial_potential_pair_rejected(self):
        with pytest.raises(ValueError):
            second_order_hamiltonian(1, potential=lambda q: 0.0)

    @hyp.given(st.integers(0, 2 ** 31 - 1))
    def test_gradients_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        V = lambda q: 0.3 * float(np.sin(q[0])) + 0.1 * float(q @ q)
        gV = lambda q: 0.3 * np.cos(q[0]) * np.eye(q.size)[0] + 0.2 * q
        H = second_order_hamiltonian(2, V, gV)
        m = rng.normal(size=4)
        p = rng.normal(size=4)
        gm = jacobian_fd(lambda x: np.array([H.value(x, p)]), m)[0]
        gp = jacobian_fd(lambda x: np.array([H.value(m, x)]), p)[0]
        assert np.allclose(H.grad_m(m, p), gm, atol=1e-6)
        assert np.allclose(H.grad_p(m, p), gp, atol=1e-6)


class TestLegendre:
    L = staticmethod(lambda q, qd, qdd: 0.5 * float(qdd @ qdd))

    def test_known_jet(self):
        st_ = legendre_second_order(self.L)(np.array([0.0]), np.array([1.0]), np.array([2.0]), np.array([3.0]))
        assert np.allclose(st_.p1, [2.0], atol=1e-8)
        assert np.allclose(st_.p0, [-3.0], atol=1e-6)

    def test_zero_jet(self):
        z = np.zeros(2)
        st_ = legendre_second_order(self.L)(z, z, z, z)
        assert np.allclose(st_.p0, 0.0, atol=1e-9) and np.allclose(st_.p1, 0.0, atol=1e-9)

    def test_potential_does_not_move_momenta(self, rng):
        Lv = lambda q, qd, qdd: 0.5 * float(qdd @ qdd) + float(np.cos(q[0]))
        jet = [rng.normal(size=2) for _ in range(4)]
        a = legendre_second_order(self.L)(*jet)
        b = legendre_second_order(Lv)(*jet)
        assert np.allclose(a.p0, b.p0, atol=1e-6)
        assert np.allclose(a.p1, b.p1, atol=1e-8)

    def test_energy_value(self):
        E = lagrangian_energy(self.L, [0.0], [1.0], [2.0], [3.0])
        assert E == pytest.approx(-1.0, abs=1e-6)

    def test_energy_equals_hamiltonian_after_transform(self, rng):
        V = lambda q: 0.2 * float(q @ q)
        gV = lambda q: 0.4 * q
        Lv = lambda q, qd, qdd: 0.5 * float(qdd @ qdd) + V(q)
        H = second_order_hamiltonian(2, V, gV)
        for _ in range(5):
            jet = [rng.normal(size=2) for _ in range(4)]
            st_ = legendre_second_order(Lv)(*jet)
            E = lagrangian_energy(Lv, *jet)
            Hval = H.value(np.concatenate([st_.q, st_.qdot]), np.concatenate([st_.p0, st_.p1]))
            assert abs(E - Hval) < 1e-9


class TestSecondOrderState:
    def test_flat_roundtrip(self, rng):
        z = rng.normal(size=8)
        s = SecondOrderState.from_flat(z, 2)
        assert np.array_equal(s.flat(), z)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SecondOrderState(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(3))


class TestSymplecticStep:
    def test_free_spline_step(self):
        C, H = free_setup()
        z1 = symplectic_step(C, H, 0.1, [0.0, 1.0, 2.0, 3.0])
        assert np.allclose(z1, [0.1145, 1.29, 2.0, 2.8], atol=1e-12)

    def test_constant_hamiltonian_fixes_state(self, rng):
        C, _ = free_setup()
        H = HamiltonianSystem(
            dim=2,
            value=lambda m, p: 1.0,
            grad_m=lambda m, p: np.zeros(2),
            grad_p=lambda m, p: np.zeros(2),
        )
        z0 = rng.normal(size=4)
        assert np.allclose(symplectic_step(C, H, 0.3, z0), z0, atol=1e-12)

    def test_obstacle_step_satisfies_implicit_relations(self):
        from geodisc.control import obstacle_potential

        n = 3
        C = second_order_phase_map(n)
        V, gV, _ = obstacle_potential(0.5, 1.0, (0.0, 0.0), n)
        H = second_order_hamiltonian(n, V, gV)
        h = 0.01
        z0 = np.concatenate([[2.0, 1.0, 0.1], [0.3, -0.2, 0.0], [0.01, 0.02, 0.0], [0.1, 0.0, 0.05]])
        z1 = symplectic_step(C, H, h, z0)
        m, p, mdot, pdot = C.inverse(z0[: 2 * n], z0[2 * n :], z1[: 2 * n], z1[2 * n :])
        q_mid, qdot_mid = m[:n], m[n:]
        p0_mid, p1_mid = p[:n], p[n:]
        # Midpoint averages and step differences of the scheme.
        assert np.allclose(mdot[:n], h * qdot_mid, atol=1e-10)        # q1 - q0
        assert np.allclose(mdot[n:], h * p1_mid, atol=1e-10)          # qdot1 - qdot0
        assert np.allclose(pdot[:n], h * gV(q_mid), atol=1e-10)       # p0_1 - p0_0
        assert np.allclose(pdot[n:], -h * p0_mid, atol=1e-10)         # p1_1 - p1_0


class TestIntegrate:
    def test_single_step_equals_step(self):
        C, H = free_setup()
        z0 = np.array([0.0, 1.0, 2.0, 3.0])
        traj = integrate(C, H, 0.1, 1, z0)
        assert len(traj.states) == 2
        assert np.allclose(traj.states[1].flat(), symplectic_step(C, H, 0.1, z0), atol=1e-12)

    def test_p0_constant_on_free_spline(self, rng):
        C, H = free_setup()
        z0 = rng.normal(size=4)
        traj = integrate(C, H, 0.05, 200, z0)
        p0 = np.stack([s.p0 for s in traj.states])
        assert np.max(np.abs(p0 - p0[0])) <= 1e-12

    def test_energy_conserved_on_free_spline(self, rng):
        C, H = free_setup()
        traj = integrate(C, H, 0.02, 500, rng.normal(size=4))
        assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-11

    def test_trajectory_length_and_times(self):
        C, H = free_setup()
        traj = integrate(C, H, 0.1, 7, np.zeros(4))
        assert len(traj.states) == 8
        assert np.allclose(traj.times, 0.1 * np.arange(8))

    def test_convergence_ratio_four(self):
        C, H = free_setup()
        z0 = np.array([0.0, 0.0, 12.0, 6.0])
        errs = []
        for h in (0.1, 0.05):
            traj = integrate(C, H, h, int(round(1.0 / h)), z0)
            errs.append(abs(traj.states[-1].q[0] - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)

    def test_large_state_does_not_stall(self):
        # At |q| = 2e4 the rounding of the residual (~1.6e-12) lies above the
        # absolute tolerance 1e-12; the step must still converge.
        C, H = free_setup()
        traj = integrate(C, H, 0.01, 5, np.array([2e4, 0.1, 0.01, 0.2]))
        assert traj.steps == 5
        assert all(s.p0[0] == 0.01 for s in traj.states)

    def test_bad_arguments(self):
        C, H = free_setup()
        with pytest.raises(ValueError):
            integrate(C, H, -0.1, 5, np.zeros(4))
        with pytest.raises(ValueError):
            integrate(C, H, 0.1, 0, np.zeros(4))


class TestFourthOrderResidual:
    def test_cubic_is_flat(self):
        h = 0.05
        ts = h * np.arange(9)
        traj = trajectory_from_positions(ts**3, h)
        assert np.max(fourth_order_residual(traj)) < 1e-6

    def test_quartic_unit_residual(self):
        h = 0.05
        ts = h * np.arange(9)
        traj = trajectory_from_positions(ts**4 / 24.0, h)
        res = fourth_order_residual(traj)
        assert np.allclose(res, 1.0, atol=1e-9)

    def test_includes_potential_gradient(self):
        h = 0.1
        traj = trajectory_from_positions(np.zeros(6), h)
        res = fourth_order_residual(traj, grad_potential=lambda q: np.array([2.5]))
        assert np.allclose(res, 2.5)

    def test_too_few_points(self):
        traj = trajectory_from_positions(np.zeros(4), 0.1)
        with pytest.raises(TooFewPoints):
            fourth_order_residual(traj)

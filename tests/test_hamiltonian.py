import re
from dataclasses import replace

import numpy as np
import hypothesis as hyp
import hypothesis.strategies as st
import pytest

import geodisc
from geodisc.checks import _one_step_jacobian
from geodisc.control import obstacle_potential
from geodisc.errors import NonConvergence, TooFewPoints
from geodisc.hamiltonian import (
    HamiltonianSystem,
    SecondOrderState,
    Trajectory,
    _step_jacobian,
    fourth_order_residual,
    integrate,
    lagrangian_energy,
    legendre_second_order,
    second_order_hamiltonian,
    step_residual,
    symplectic_step,
    trajectory_from_positions,
)
from geodisc.lifts import canonical_symplectic_matrix, cotangent_lift, second_order_phase_map
from geodisc.maps import midpoint_map, theta_map
from geodisc.numeric import jacobian_fd


def free_setup(n=1):
    return second_order_phase_map(n), second_order_hamiltonian(n)


def obstacle_setup(tau=1e-3):
    V, gV, hV, _ = obstacle_potential(tau, 1.0, (0.0, 0.0), 3)
    return second_order_phase_map(3), second_order_hamiltonian(3, V, gV, hV)


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
        hV = lambda q: np.zeros((3, 3))
        H = second_order_hamiltonian(3, V, gV, hV)
        m = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        p = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0]])
        assert H.value(m, p) == pytest.approx(0.5 - 1.0 / 3.0)

    def test_partial_potential_pair_rejected(self):
        with pytest.raises(ValueError):
            second_order_hamiltonian(1, potential=lambda q: 0.0)
        with pytest.raises(ValueError):
            second_order_hamiltonian(1, lambda q: 0.0, lambda q: np.zeros(1))

    def test_compares_and_hashes_by_identity(self):
        H = second_order_hamiltonian(1)
        assert H == H and H != second_order_hamiltonian(1)
        assert len({H, H}) == 1

    @hyp.given(st.integers(0, 2 ** 31 - 1))
    def test_gradients_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        V = lambda q: 0.3 * float(np.sin(q[0])) + 0.1 * float(q @ q)
        gV = lambda q: 0.3 * np.cos(q[0]) * np.eye(q.size)[0] + 0.2 * q
        hV = lambda q: -0.3 * np.sin(q[0]) * np.diag(np.eye(q.size)[0]) + 0.2 * np.eye(q.size)
        H = second_order_hamiltonian(2, V, gV, hV)
        m = rng.normal(size=4)
        p = rng.normal(size=4)
        gm = jacobian_fd(lambda x: np.array([H.value(x, p)]), m)[0]
        gp = jacobian_fd(lambda x: np.array([H.value(m, x)]), p)[0]
        assert np.allclose(H.gradient(m, p), np.concatenate([gm, gp]), atol=1e-6)
        grad = lambda z: H.gradient(z[:4], z[4:])
        assert np.allclose(H.hessian(m, p), jacobian_fd(grad, np.concatenate([m, p])), atol=1e-8)


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
        hV = lambda q: 0.4 * np.eye(2)
        Lv = lambda q, qd, qdd: 0.5 * float(qdd @ qdd) + V(q)
        H = second_order_hamiltonian(2, V, gV, hV)
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
        H = HamiltonianSystem(dim=2, S0=np.zeros((4, 4)))
        z0 = rng.normal(size=4)
        assert np.allclose(symplectic_step(C, H, 0.3, z0), z0, atol=1e-12)

    def test_obstacle_step_satisfies_implicit_relations(self):
        n = 3
        C = second_order_phase_map(n)
        V, gV, hV, _ = obstacle_potential(0.5, 1.0, (0.0, 0.0), n)
        H = second_order_hamiltonian(n, V, gV, hV)
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
        with pytest.raises(ValueError, match="4 rows"):
            integrate(C, H, 0.1, 5, np.zeros(4), tangent=np.eye(3))

    def test_stall_names_step_and_time(self):
        # One chord-Newton iteration per step suffices far from the obstacle
        # and stops sufficing on the approach, so the stall comes mid-run.
        C, H = obstacle_setup()
        z0 = np.array([-10.0, -1.2, 0.0, 2.0, 0.0, 0.0] + [0.0] * 6)
        with pytest.raises(NonConvergence) as err:
            integrate(C, H, 0.01, 400, z0, max_iter=1)
        found = re.match(r"step (\d+) at t = ([0-9.]+): one-step solve stalled", str(err.value))
        assert found, str(err.value)
        k, t = int(found.group(1)), float(found.group(2))
        assert k > 0 and t == pytest.approx(0.01 * k)
        assert err.value.x_best is not None and err.value.x_best.size == 12

    def test_nonfinite_gradient_stalls_at_the_step_that_meets_it(self):
        # From z0 = (0, 1, 0, 0) the state moves as q = t while the gradient
        # is 0; it turns infinite once q > 0.5, which the step starting at
        # t = 0.5 is the first to see.
        def gV(q):
            return np.full(1, np.inf) if q[0] > 0.5 else np.zeros(1)

        C = second_order_phase_map(1)
        H = second_order_hamiltonian(1, lambda q: 0.0, gV, lambda q: np.zeros((1, 1)))
        with pytest.raises(NonConvergence, match=r"^step 50 at t = 0\.5: "):
            integrate(C, H, 0.01, 100, np.array([0.0, 1.0, 0.0, 0.0]))

    def test_nonfinite_residual_ends_each_attempt(self, monkeypatch):
        # The same case, counting residual evaluations per step: the step that
        # meets the infinite gradient stops each of its two attempts (carried
        # and fresh Jacobian) at the first non-finite residual.
        def gV(q):
            return np.full(1, np.inf) if q[0] > 0.5 else np.zeros(1)

        evals = []
        original = geodisc.hamiltonian.step_residual

        def counting(*args, **kwargs):
            residual = original(*args, **kwargs)
            evals.append(0)

            def counted(z1):
                evals[-1] += 1
                return residual(z1)

            return counted

        monkeypatch.setattr(geodisc.hamiltonian, "step_residual", counting)
        C = second_order_phase_map(1)
        H = second_order_hamiltonian(1, lambda q: 0.0, gV, lambda q: np.zeros((1, 1)))
        with pytest.raises(NonConvergence, match=r"^step 50 at t = 0\.5: ") as err:
            integrate(C, H, 0.01, 100, np.array([0.0, 1.0, 0.0, 0.0]))
        assert len(evals) == 51 and evals[-1] <= 4
        assert err.value.x_best.shape == (4,) and np.isfinite(err.value.x_best).all()


class TestStepKernel:
    """The closed-form step Jacobian and the array-backed Trajectory."""

    @pytest.mark.parametrize("setup", [free_setup, lambda: obstacle_setup(tau=1.0)], ids=["free", "obstacle"])
    def test_chord_block_matches_fd_of_the_residual(self, setup, rng):
        C, H = setup()
        d = C.dim
        for _ in range(5):
            z0 = rng.normal(size=2 * d) * 0.3
            if d == 6:
                z0[:2] = 2.0 * z0[:2] / np.linalg.norm(z0[:2])  # outside the unit disc
            z1 = z0 + 0.01 * rng.normal(size=2 * d)
            fd = jacobian_fd(step_residual(C, H, 0.01, z0), z1)
            assert np.max(np.abs(_step_jacobian(C, H, 0.01, z0, z1)[:, 2 * d :] - fd)) <= 1e-9

    @pytest.mark.parametrize("setup", [free_setup, obstacle_setup], ids=["free", "obstacle"])
    def test_constant_jacobian_base_takes_no_fd_jacobian(self, setup, monkeypatch):
        calls = []
        original = geodisc.numeric.jacobian_fd

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (geodisc.numeric, geodisc.lifts, geodisc.maps, geodisc.jets):
            monkeypatch.setattr(module, "jacobian_fd", counted)
        C, H = setup()
        z0 = TestTangent.Z0 if C.dim == 6 else np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 50, z0, tangent=np.eye(z0.size))
        symplectic_step(C, H, 0.01, z0)
        assert calls == []

    @pytest.mark.parametrize(
        "n, base, potential",
        [(1, midpoint_map, False), (3, midpoint_map, True), (3, lambda n: theta_map(n, 0.3), True)],
        ids=["free-n1", "obstacle-n3", "theta0.3-n3"],
    )
    def test_folded_residual_matches_the_composed_path(self, n, base, potential, rng):
        # The order-1 lift of a linear base on R^n is that base on R^2n acting
        # on (q, qdot), so a non-constant-Jacobian copy of base(2n) takes the
        # composed path, w = C.inverse_flat(y), for the same map with exact
        # jets (the jet lift of such a copy would take them by finite
        # differences, ~1e-11).
        folded = second_order_phase_map(n, base(n))
        composed = cotangent_lift(replace(base(2 * n), jacobian_constant=False))
        assert folded.affine_inverse is not None and composed.affine_inverse is None
        if potential:
            V, gV, hV, _ = obstacle_potential(1.0, 1.0, (0.0, 0.0), n)
            H = second_order_hamiltonian(n, V, gV, hV)
        else:
            H = second_order_hamiltonian(n)
        eps = np.finfo(float).eps
        for _ in range(100):
            z0 = rng.normal(size=4 * n) * 10.0 ** rng.integers(-2, 3)
            if potential:
                z0[:2] = 2.0 * z0[:2] / np.linalg.norm(z0[:2])  # outside the unit disc
            z1 = z0 + 0.01 * rng.normal(size=4 * n)
            scale = np.abs(np.concatenate([z0, z1])).max()
            a = step_residual(folded, H, 0.01, z0)(z1)
            b = step_residual(composed, H, 0.01, z0)(z1)
            assert np.abs(a - b).max() <= 8 * eps * scale
        # The composed Jacobian takes K by central differences (~1e-11).
        J = _step_jacobian(folded, H, 0.01, z0, z1)
        assert np.max(np.abs(J - _step_jacobian(composed, H, 0.01, z0, z1))) <= 1e-9 * max(1.0, np.abs(J).max())

    @pytest.mark.parametrize("setup", [free_setup, obstacle_setup], ids=["free", "obstacle"])
    def test_blocks_are_built_once_per_call(self, setup, monkeypatch):
        built = []
        original = geodisc.hamiltonian._StepBlocks

        def counted(*args):
            built.append(1)
            return original(*args)

        monkeypatch.setattr(geodisc.hamiltonian, "_StepBlocks", counted)
        C, H = setup()
        z0 = TestTangent.Z0 if C.dim == 6 else np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 50, z0, tangent=np.eye(z0.size))
        assert len(built) == 1
        symplectic_step(C, H, 0.01, z0)
        assert len(built) == 2

    def test_vectorized_energies_match_the_value_loop(self, rng):
        C, H = free_setup()
        traj = integrate(C, H, 0.01, 500, rng.normal(size=4))
        loop = [H.value(z[:2], z[2:]) for z in traj.z]
        assert list(traj.energies) == loop
        C, H = obstacle_setup()
        z0 = TestTangent.Z0.copy()
        z0[6:] = [-9.6e-4, -6.2e-3, 0.0, -5.0e-4, -5.8e-3, 0.0]
        traj = integrate(C, H, 0.01, 400, z0)
        loop = np.array([H.value(z[:6], z[6:]) for z in traj.z])
        assert np.all(np.abs(traj.energies - loop) <= 4 * np.finfo(float).eps * np.abs(loop))

    def test_views_agree_with_the_state_array(self):
        C, H = obstacle_setup()
        traj = integrate(C, H, 0.01, 20, TestTangent.Z0)
        assert isinstance(traj, Trajectory) and traj.z.shape == (21, 12) and traj.n == 3
        assert len(traj.states) == 21 and traj.steps == 20
        for k in (0, 7, -1):
            assert np.array_equal(traj.states[k].flat(), traj.z[k])
        assert [s.q[1] for s in traj.states[2:5]] == list(traj.z[2:5, 1])
        assert np.array_equal(traj.positions(), traj.z[:, :3])
        assert np.array_equal(traj.controls, traj.z[:, 9:])
        with pytest.raises(IndexError):
            traj.states[21]


class TestTangent:
    """The discrete variational equation carried by ``integrate(..., tangent=T0)``."""

    # The benchmark's obstacle boundary at y0 = y1 = -1.2, started from the
    # interpolating-cubic costates.
    Z0 = np.array([-2.0, -1.2, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_states_unchanged_by_tangent(self):
        C, H = obstacle_setup()
        plain = integrate(C, H, 0.01, 100, self.Z0)
        carried = integrate(C, H, 0.01, 100, self.Z0, tangent=np.eye(12))
        assert plain.tangent is None and carried.tangent.shape == (12, 12)
        assert all(np.array_equal(a.flat(), b.flat()) for a, b in zip(plain.states, carried.states))
        assert np.array_equal(plain.energies, carried.energies)

    @pytest.mark.parametrize("setup", [free_setup, lambda: obstacle_setup(tau=1.0)], ids=["free", "obstacle"])
    def test_one_step_jacobian_is_symplectic_and_matches_fd(self, setup, rng):
        C, H = setup()
        d = 4 * (C.dim // 2)
        Om = canonical_symplectic_matrix(d // 2)
        for _ in range(5):
            z0 = rng.normal(size=d) * 0.3
            if d == 12:
                z0[:2] = 2.0 * z0[:2] / np.linalg.norm(z0[:2])  # outside the unit disc
            M = integrate(C, H, 0.01, 1, z0, tangent=np.eye(d)).tangent
            assert np.max(np.abs(M.T @ Om @ M - Om)) < 1e-12
            assert np.max(np.abs(M - _one_step_jacobian(C, H, 0.01, z0))) < 1e-6

    def test_costate_block_matches_central_differences(self):
        # The shooting sensitivity d z(T) / d(p0(0), p1(0)) over 400 obstacle steps.
        C, H = obstacle_setup()
        T0 = np.vstack([np.zeros((6, 6)), np.eye(6)])
        z0 = self.Z0.copy()
        z0[6:] = [-9.6e-4, -6.2e-3, 0.0, -5.0e-4, -5.8e-3, 0.0]
        block = integrate(C, H, 0.01, 400, z0, tangent=T0).tangent
        eps = 1e-6
        fd = np.empty((12, 6))
        for j in range(6):
            e = np.zeros(12)
            e[6 + j] = eps
            hi = integrate(C, H, 0.01, 400, z0 + e).states[-1].flat()
            lo = integrate(C, H, 0.01, 400, z0 - e).states[-1].flat()
            fd[:, j] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(block - fd)) <= 1e-6 * np.max(np.abs(fd))


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

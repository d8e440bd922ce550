import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

import geodisc
from geodisc.checks import _one_step_jacobian, fourth_order_residual
from geodisc.control import obstacle_potential
from geodisc.errors import NonConvergence, SingularJacobian, SingularPotential, TooFewPoints
from geodisc.hamiltonian import (
    HamiltonianSystem,
    Potential,
    Trajectory,
    _step_jacobian,
    integrate,
    second_order_hamiltonian,
    step_residual,
    symplectic_step,
)
from geodisc.lifts import canonical_symplectic_matrix, cotangent_lift, second_order_phase_map
from geodisc.maps import midpoint_map, theta_map
from geodisc.numeric import jacobian_fd


def free_setup(n=1):
    return second_order_phase_map(n), second_order_hamiltonian(n)


def obstacle_setup(tau=1e-3):
    return second_order_phase_map(3), second_order_hamiltonian(3, obstacle_potential(tau, 1.0, (0.0, 0.0), 3)[0])


class TestSecondOrderHamiltonian:
    def test_free_value(self):
        H = second_order_hamiltonian(1)
        assert H.values(np.array([0.0, 1.0, 2.0, 3.0])) == pytest.approx(6.5)

    def test_zero_momenta(self):
        H = second_order_hamiltonian(2)
        assert H.values(np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])) == 0.0

    def test_with_potential(self):
        V = lambda q: 1.0 / (q[0] ** 2 + q[1] ** 2 - 1.0)
        gV = lambda q: np.zeros(3)  # value-only test
        hV = lambda q: np.zeros((3, 3))
        H = second_order_hamiltonian(3, Potential(V, gV, hV))
        m = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        p = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0]])
        assert H.values(np.concatenate([m, p])) == pytest.approx(0.5 - 1.0 / 3.0)

    def test_compares_and_hashes_by_identity(self):
        H = second_order_hamiltonian(1)
        assert H == H and H != second_order_hamiltonian(1)
        assert len({H, H}) == 1


class TestLegendre:
    def test_energy_equals_hamiltonian_after_transform(self, rng):
        # L = |qddot|^2 / 2 + V(q) has the momenta p1 = qddot and
        # p0 = dL/dqdot - d/dt dL/dqddot = -qdddot, and the energy
        # qdot . p0 + qddot . p1 - L.
        V = lambda q: 0.2 * float(q @ q)
        gV = lambda q: 0.4 * q
        hV = lambda q: 0.4 * np.eye(2)
        H = second_order_hamiltonian(2, Potential(V, gV, hV))
        for _ in range(5):
            q, qd, qdd, qddd = (rng.normal(size=2) for _ in range(4))
            p0, p1 = -qddd, qdd
            E = qd @ p0 + qdd @ p1 - (0.5 * qdd @ qdd + V(q))
            Hval = H.values(np.concatenate([q, qd, p0, p1]))
            assert abs(E - Hval) < 1e-9


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
        V = obstacle_potential(0.5, 1.0, (0.0, 0.0), n)[0]
        H = second_order_hamiltonian(n, V)
        h = 0.01
        z0 = np.concatenate([[2.0, 1.0, 0.1], [0.3, -0.2, 0.0], [0.01, 0.02, 0.0], [0.1, 0.0, 0.05]])
        z1 = symplectic_step(C, H, h, z0)
        m, p, mdot, pdot = np.split(C.inverse_flat(np.concatenate([z0, z1])), 4)
        q_mid, qdot_mid = m[:n], m[n:]
        p0_mid, p1_mid = p[:n], p[n:]
        # Midpoint averages and step differences of the scheme.
        assert np.allclose(mdot[:n], h * qdot_mid, atol=1e-10)        # q1 - q0
        assert np.allclose(mdot[n:], h * p1_mid, atol=1e-10)          # qdot1 - qdot0
        assert np.allclose(pdot[:n], h * V.grad(q_mid), atol=1e-10)   # p0_1 - p0_0
        assert np.allclose(pdot[n:], -h * p0_mid, atol=1e-10)         # p1_1 - p1_0


def row_starts(n, k, rng, obstacle=False):
    """k random starts; with ``obstacle`` the positions sit 0.8 to 2.3 outside the unit disc."""
    Z = rng.normal(size=(k, 4 * n)) * (0.3 if obstacle else 1.0)
    if obstacle:
        rho, ang = rng.uniform(1.8, 3.3, size=k), rng.uniform(0.0, 2 * np.pi, size=k)
        Z[:, 0], Z[:, 1] = rho * np.cos(ang), rho * np.sin(ang)
    return Z


def wobbly_system(n=1, amplitude=1e-3):
    """The free system plus a potential whose gradient is +-``amplitude``,
    flipping sign on every call, for q > 0.5 and 0 elsewhere, with a zero
    Hessian: a start beyond q = 0.5 makes the chord iteration stall at a
    residual of about h * amplitude."""
    C, H0 = free_setup(n)
    flips = itertools.count()
    grad = lambda q: np.where(q > 0.5, amplitude * (-1.0) ** next(flips), 0.0)
    hess = lambda q: np.zeros(np.shape(q) + (n,))
    return C, HamiltonianSystem(dim=2 * n, S0=H0.S0, potential=Potential(lambda q: 0.0 * q[..., 0], grad, hess))


class TestRowSteps:
    """symplectic_step on rows (k, 4n): one chord iteration for all rows,
    on any lifted map."""

    @pytest.mark.parametrize(
        "case",
        ["midpoint n=1", "theta:0.3 n=3", "obstacle n=3", "non-affine n=1", "non-affine theta:0.3 n=1"],
    )
    def test_rows_match_one_row_calls(self, case, rng):
        if case == "midpoint n=1":
            (C, H), Z = free_setup(1), row_starts(1, 24, rng)
        elif case == "theta:0.3 n=3":
            C, H = second_order_phase_map(3, base=theta_map(3, 0.3)), second_order_hamiltonian(3)
            Z = row_starts(3, 24, rng)
        elif case == "obstacle n=3":
            (C, H), Z = obstacle_setup(), row_starts(3, 24, rng, obstacle=True)
        else:
            base = midpoint_map(1) if case == "non-affine n=1" else theta_map(1, 0.3)
            C = second_order_phase_map(1, base=replace(base, jacobian_constant=False))
            H, Z = second_order_hamiltonian(1), row_starts(1, 6, rng)
        Z[-1] *= 1e6  # one row far above the absolute tolerance: its own floor must hold
        Z1 = symplectic_step(C, H, 0.01, Z)
        assert Z1.shape == Z.shape
        assert np.array_equal(Z1, np.array([symplectic_step(C, H, 0.01, z0) for z0 in Z]))

    def test_affine_rows_make_one_chord_iteration(self, monkeypatch, rng):
        C, H = obstacle_setup()
        calls = []
        chord_newton = geodisc.hamiltonian._chord_newton

        def counting(*args):
            calls.append(args[2].shape)
            return chord_newton(*args)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counting)
        symplectic_step(C, H, 0.01, row_starts(3, 10, rng, obstacle=True))
        assert calls == [(10, 12)]

    def test_stalled_row_raises_nonconvergence_naming_it(self, rng):
        C, H = wobbly_system()
        Z = row_starts(1, 5, rng) * 0.1
        Z[3, 0] = 0.9
        with pytest.raises(NonConvergence, match=r"one-step solve of row 3 stalled") as info:
            symplectic_step(C, H, 0.1, Z, max_iter=20)
        assert info.value.x_best.shape == (4,) and info.value.iterations == 20
        with pytest.raises(NonConvergence, match=r"^one-step solve stalled"):
            symplectic_step(C, H, 0.1, Z[3], max_iter=20)
        symplectic_step(C, H, 0.1, np.delete(Z, 3, axis=0), max_iter=20)  # the other rows converge

    def test_each_row_stops_against_its_own_floor(self, rng):
        # Row 0 stalls near 1e-10, above its floor 1e-12; row 1's floor,
        # 8 eps ||z0||_inf ~ 1.8e-9, would accept that residual.
        C, H = wobbly_system(amplitude=1e-9)
        Z = np.array([[0.9, 0.1, 0.0, 0.2], [-1e6, 0.0, 0.0, 0.0]])
        with pytest.raises(NonConvergence, match=r"of row 0 stalled at residual .* \(tol 1\.0e-12\)"):
            symplectic_step(C, H, 0.1, Z, max_iter=20)
        symplectic_step(C, H, 0.1, Z[1:], max_iter=20)

    def test_nonfinite_row_residual_raises(self, rng):
        C, H0 = free_setup()
        V = Potential(lambda q: 0.0 * q[..., 0], lambda q: np.where(q > 0.5, np.inf, 0.0),
                      lambda q: np.zeros(np.shape(q) + (1,)))
        H = HamiltonianSystem(dim=2, S0=H0.S0, potential=V)
        Z = row_starts(1, 4, rng) * 0.1
        Z[2, 0] = 0.9
        with pytest.raises(NonConvergence, match=r"of row 2 met a non-finite residual at its starting point"):
            symplectic_step(C, H, 0.1, Z)

    def test_row_on_the_disc_raises_singular_potential(self, rng):
        C, H = obstacle_setup()
        Z = row_starts(3, 6, rng, obstacle=True)
        Z[4, :2] = (0.5, 0.1)
        with pytest.raises(SingularPotential):
            symplectic_step(C, H, 0.01, Z)

    def test_singular_row_jacobian_raises(self, monkeypatch, rng):
        C, H = obstacle_setup()
        step_jacobian = geodisc.hamiltonian._step_jacobian

        def one_singular(*args, **kwargs):
            A = step_jacobian(*args, **kwargs).copy()
            A[1] = 0.0
            return A

        monkeypatch.setattr(geodisc.hamiltonian, "_step_jacobian", one_singular)
        with pytest.raises(SingularJacobian):
            symplectic_step(C, H, 0.01, row_starts(3, 3, rng, obstacle=True))

    def test_one_step_jacobian_steps_its_probes_as_one_array(self, monkeypatch, rng):
        import geodisc.checks

        for C, H, z0 in (
            (*free_setup(1), rng.normal(size=4)),
            (*obstacle_setup(), row_starts(3, 1, rng, obstacle=True)[0]),
        ):
            reference = np.empty((z0.size, z0.size))
            for i in range(z0.size):
                e = np.zeros(z0.size)
                e[i] = 1e-4
                zp = symplectic_step(C, H, 0.01, z0 + e, tol=1e-13)
                zm = symplectic_step(C, H, 0.01, z0 - e, tol=1e-13)
                reference[:, i] = (zp - zm) / 2e-4
            calls = []

            def counting(*args, **kwargs):
                calls.append(np.shape(args[3]))
                return symplectic_step(*args, **kwargs)

            monkeypatch.setattr(geodisc.checks, "symplectic_step", counting)
            M = _one_step_jacobian(C, H, 0.01, z0)
            monkeypatch.undo()
            assert calls == [(2 * z0.size, z0.size)]
            assert np.max(np.abs(M - reference)) <= 1e-12


class TestIntegrate:
    def test_single_step_equals_step(self):
        C, H = free_setup()
        z0 = np.array([0.0, 1.0, 2.0, 3.0])
        traj = integrate(C, H, 0.1, 1, z0)
        assert len(traj.z) == 2
        assert np.allclose(traj.z[1], symplectic_step(C, H, 0.1, z0), atol=1e-12)

    def test_p0_constant_on_free_spline(self, rng):
        C, H = free_setup()
        z0 = rng.normal(size=4)
        traj = integrate(C, H, 0.05, 200, z0)
        p0 = traj.z[:, 2]
        assert np.max(np.abs(p0 - p0[0])) <= 1e-12

    def test_energy_conserved_on_free_spline(self, rng):
        C, H = free_setup()
        traj = integrate(C, H, 0.02, 500, rng.normal(size=4))
        assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-11

    def test_trajectory_length_and_times(self):
        C, H = free_setup()
        traj = integrate(C, H, 0.1, 7, np.zeros(4))
        assert len(traj.z) == 8
        assert np.allclose(traj.times, 0.1 * np.arange(8))

    def test_convergence_ratio_four(self):
        C, H = free_setup()
        z0 = np.array([0.0, 0.0, 12.0, 6.0])
        errs = []
        for h in (0.1, 0.05):
            traj = integrate(C, H, h, int(round(1.0 / h)), z0)
            errs.append(abs(traj.z[-1, 0] - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)

    def test_large_state_does_not_stall(self):
        # At |q| = 2e4 the rounding of the residual (~1.6e-12) lies above the
        # absolute tolerance 1e-12; the step must still converge.
        C, H = free_setup()
        traj = integrate(C, H, 0.01, 5, np.array([2e4, 0.1, 0.01, 0.2]))
        assert traj.steps == 5
        assert np.all(traj.z[:, 2] == 0.01)

    def test_bad_arguments(self):
        C, H = free_setup()
        with pytest.raises(ValueError):
            integrate(C, H, -0.1, 5, np.zeros(4))
        with pytest.raises(ValueError):
            integrate(C, H, 0.1, 0, np.zeros(4))
        with pytest.raises(ValueError, match="4 rows"):
            integrate(C, H, 0.1, 5, np.zeros(4), tangent=np.eye(3))

    def test_stall_names_step_and_time(self):
        # Condensed steps carry the run far from the obstacle; on the grazing
        # approach a step fails its check and goes to the chord iteration,
        # where one iteration no longer suffices, so the stall comes mid-run.
        C, H = obstacle_setup()
        z0 = np.array([-10.0, -1.0, 0.0, 2.0, 0.0, 0.0] + [0.0] * 6)
        with pytest.raises(NonConvergence) as err:
            integrate(C, H, 0.01, 600, z0, max_iter=1)
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
            return np.where(q > 0.5, np.inf, 0.0)

        C = second_order_phase_map(1)
        H = second_order_hamiltonian(1, Potential(lambda q: 0.0, gV, lambda q: np.zeros(np.shape(q) + (1,))))
        with pytest.raises(NonConvergence, match=r"^step 50 at t = 0\.5: "):
            integrate(C, H, 0.01, 100, np.array([0.0, 1.0, 0.0, 0.0]))

    def test_nonfinite_residual_ends_each_attempt(self, monkeypatch):
        # The same case, counting residual evaluations per chord step: step 0
        # and step 50, whose condensed step fails its check, are the only
        # ones; the step that meets the infinite gradient stops each of its
        # two attempts (carried and fresh Jacobian) at the first non-finite
        # residual.
        def gV(q):
            return np.where(q > 0.5, np.inf, 0.0)

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
        H = second_order_hamiltonian(1, Potential(lambda q: 0.0, gV, lambda q: np.zeros(np.shape(q) + (1,))))
        with pytest.raises(NonConvergence, match=r"^step 50 at t = 0\.5: ") as err:
            integrate(C, H, 0.01, 100, np.array([0.0, 1.0, 0.0, 0.0]))
        assert len(evals) == 2 and evals[-1] <= 4
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

        def counting(original):
            def counted(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            return counted

        for name in ("jacobian_fd", "row_jacobian_fd"):
            counted = counting(getattr(geodisc.numeric, name))
            for module in (geodisc.numeric, geodisc.lifts, geodisc.maps, geodisc.jets):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
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
            H = second_order_hamiltonian(n, obstacle_potential(1.0, 1.0, (0.0, 0.0), n)[0])
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
        loop = [H.values(z) for z in traj.z]
        assert list(traj.energies) == loop
        C, H = obstacle_setup()
        z0 = TestTangent.Z0.copy()
        z0[6:] = [-9.6e-4, -6.2e-3, 0.0, -5.0e-4, -5.8e-3, 0.0]
        traj = integrate(C, H, 0.01, 400, z0)
        loop = np.array([H.values(z) for z in traj.z])
        assert np.all(np.abs(traj.energies - loop) <= 4 * np.finfo(float).eps * np.abs(loop))

    def test_views_agree_with_the_state_array(self):
        C, H = obstacle_setup()
        traj = integrate(C, H, 0.01, 20, TestTangent.Z0)
        assert isinstance(traj, Trajectory) and traj.z.shape == (21, 12) and traj.n == 3
        assert traj.steps == 20
        assert np.array_equal(traj.positions(), traj.z[:, :3])
        assert np.array_equal(traj.controls, traj.z[:, 9:])


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
        assert np.array_equal(plain.z, carried.z)
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
            hi = integrate(C, H, 0.01, 400, z0 + e).z[-1]
            lo = integrate(C, H, 0.01, 400, z0 - e).z[-1]
            fd[:, j] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(block - fd)) <= 1e-6 * np.max(np.abs(fd))


def chord_steps(C, H, h, steps, z0, tangent=None):
    """``steps`` steps taken one at a time by :func:`symplectic_step`, the
    chord iteration alone, with the tangent carried by the chord path's own
    solve; returns the states and the final tangent."""
    d = C.dim
    z = [np.asarray(z0, dtype=float)]
    for _ in range(steps):
        z.append(symplectic_step(C, H, h, z[-1]))
        if tangent is not None:
            A = _step_jacobian(C, H, h, z[-2], z[-1])
            tangent = -np.linalg.solve(A[:, 2 * d :], A[:, : 2 * d] @ tangent)
    return np.array(z), tangent


LINEAR_CASES = pytest.mark.parametrize(
    "n, base", [(1, midpoint_map), (3, lambda n: theta_map(n, 0.3))], ids=["midpoint-n1", "theta0.3-n3"]
)


class TestLinearSteps:
    """Free runs on an affine lifted map: step 0 by the chord iteration, every
    later step by the refined affine update, checked per block of rows."""

    @LINEAR_CASES
    def test_states_match_the_chord_steps(self, n, base, rng):
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        z0 = rng.normal(size=4 * n)
        ref = [z0]
        for _ in range(500):
            ref.append(symplectic_step(C, H, 0.01, ref[-1]))
        ref = np.array(ref)
        traj = integrate(C, H, 0.01, 500, z0)
        assert np.max(np.abs(traj.z - ref)) <= 1e-13 * np.max(np.abs(ref))

    @LINEAR_CASES
    def test_tangent_matches_the_chord_path(self, n, base, rng):
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        z0 = rng.normal(size=4 * n)
        T0 = rng.normal(size=(4 * n, 3))
        linear = integrate(C, H, 0.01, 500, z0, tangent=T0)
        chord_z, chord_tangent = chord_steps(C, H, 0.01, 500, z0, T0)
        assert np.max(np.abs(linear.tangent - chord_tangent)) <= 1e-12 * np.max(np.abs(chord_tangent))
        assert np.max(np.abs(linear.z - chord_z)) <= 1e-13 * np.max(np.abs(chord_z))

    def test_p0_exact_and_endpoint_on_the_discrete_cubic(self):
        C, H = free_setup()
        q0, v0, p0, p1 = 0.0, 0.1, 0.01, 0.2
        traj = integrate(C, H, 0.01, 10_000, np.array([q0, v0, p0, p1]))
        assert np.all(traj.z[:, 2] == p0)
        # The midpoint scheme's q(T) is the exact cubic minus T h^2 p0 / 12.
        T = 100.0
        terms = np.array([q0, v0 * T, p1 * T**2 / 2, -p0 * T**3 / 6, -T * 0.01**2 * p0 / 12])
        assert abs(traj.z[-1, 0] - terms.sum()) <= 1e-12 * np.max(np.abs(terms))

    def test_first_step_goes_through_step_residual(self, monkeypatch):
        # The probe that times set-up stops a command at its first
        # step_residual call, so the linear run must make one, on row 0,
        # before its linear loop writes the later rows.
        events = []
        original = geodisc.hamiltonian.step_residual
        linear_steps = geodisc.hamiltonian._linear_steps

        def counting(C, H, h, z0, **kwargs):
            events.append(("step_residual", np.array(z0)))
            return original(C, H, h, z0, **kwargs)

        def linear(*args):
            events.append(("linear", None))
            return linear_steps(*args)

        monkeypatch.setattr(geodisc.hamiltonian, "step_residual", counting)
        monkeypatch.setattr(geodisc.hamiltonian, "_linear_steps", linear)
        C, H = free_setup()
        z0 = np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 1000, z0)
        assert [e[0] for e in events] == ["step_residual", "linear"]
        assert np.array_equal(events[0][1], z0)

        class Stop(BaseException):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(geodisc.hamiltonian, "step_residual", stop)
        with pytest.raises(Stop):
            integrate(C, H, 0.01, 1000, z0)

    @pytest.mark.parametrize("z0, k", [((0.0, 0.0, 0.0, 1e306), 1896), ((0.0, 0.0, 1e305, 0.0), 2209)])
    def test_overflow_ends_in_the_typed_error_alone(self, z0, k):
        # Under the suite's error::RuntimeWarning filter: no numpy overflow
        # warning may escape, only the step's NonConvergence, at the step the
        # chord loop alone stops at (as the message read before linear steps).
        C, H = free_setup()
        expected = re.escape(f"step {k} at t = {k * 0.01:.6g}: ")
        with pytest.raises(NonConvergence, match="^" + expected):
            integrate(C, H, 0.01, 3000, np.array(z0))

    def test_failed_check_hands_the_rest_to_the_chord_loop(self, monkeypatch, rng):
        # An inverse off by 1e-4 leaves the refined update a residual near
        # 1e-8 |r0|, far above the tolerance, so the first linear step fails
        # its check: steps 1.. run by the chord loop, bit for bit as on the
        # chord path, and the linear loop is not entered again.
        entered = []
        linear_steps = geodisc.hamiltonian._linear_steps

        def perturbed(blocks, J, *args):
            entered.append(1)
            return linear_steps(blocks, J * (1 + 1e-4), *args)

        monkeypatch.setattr(geodisc.hamiltonian, "_linear_steps", perturbed)
        C, H = free_setup()
        z0 = rng.normal(size=4)
        traj = integrate(C, H, 0.01, 300, z0, tangent=np.eye(4))
        ref_z, ref_tangent = chord_steps(C, H, 0.01, 300, z0, np.eye(4))
        assert entered == [1]
        assert np.array_equal(traj.z, ref_z) and np.array_equal(traj.tangent, ref_tangent)


class TestBlockPowers:
    """Linear runs advance a block of rows at a time with the prebuilt
    powers of the one-step map."""

    @LINEAR_CASES
    @pytest.mark.parametrize("h", [0.001, 0.5])
    def test_states_match_single_steps(self, n, base, h, rng):
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        z0 = rng.normal(size=4 * n)
        ref = [z0]
        for _ in range(500):
            ref.append(symplectic_step(C, H, h, ref[-1]))
        ref = np.array(ref)
        traj = integrate(C, H, h, 500, z0)
        assert np.max(np.abs(traj.z - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_long_run_makes_one_chord_solve(self, monkeypatch):
        calls = []
        chord_newton = geodisc.hamiltonian._chord_newton

        def counting(*args, **kwargs):
            calls.append(1)
            return chord_newton(*args, **kwargs)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counting)
        C, H = free_setup()
        traj = integrate(C, H, 0.01, 10_000, np.array([0.0, 0.1, 0.01, 0.2]))
        assert len(calls) == 1 and traj.steps == 10_000

    @LINEAR_CASES
    @pytest.mark.parametrize("steps", [1, 2])
    def test_shortest_runs(self, n, base, steps, rng):
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        z0 = rng.normal(size=4 * n)
        T0 = rng.normal(size=(4 * n, 2))
        traj = integrate(C, H, 0.01, steps, z0, tangent=T0)
        ref, chord_tangent = chord_steps(C, H, 0.01, steps, z0, T0)
        assert traj.z.shape == (steps + 1, 4 * n)
        assert np.max(np.abs(traj.z - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(traj.tangent - chord_tangent)) <= 1e-13 * np.max(np.abs(chord_tangent))


def obstacle_run(base=midpoint_map, tau=1e-3):
    return second_order_phase_map(3, base(3)), second_order_hamiltonian(3, obstacle_potential(tau, 1.0, (0.0, 0.0), 3)[0])


OBSTACLE_CASES = pytest.mark.parametrize(
    "base", [midpoint_map, lambda n: theta_map(n, 0.3)], ids=["midpoint", "theta0.3"]
)


class TestRemainderSteps:
    """Obstacle runs on an affine lifted map: step 0 by the chord iteration,
    every later step condensed to the n potential coordinates and solved a
    window of steps at a time, checked and carrying the tangent per block of
    rows."""

    # The documented shot's start (-2, -1.2, 0) with costates near its solution.
    Z0 = np.array([-2.0, -1.2, 0.0, 1.0, 0.0, 0.0, -9.6e-4, -6.2e-3, 0.0, -5.0e-4, -5.8e-3, 0.0])
    T0 = np.vstack([np.zeros((6, 6)), np.eye(6)])

    @staticmethod
    def column_error(z, ref):
        """Largest |z - ref| of each column over that column's largest |ref|."""
        scale = np.abs(ref).max(axis=0)
        return np.max(np.abs(z - ref).max(axis=0) / np.where(scale > 0, scale, 1.0))

    @OBSTACLE_CASES
    def test_states_and_tangent_match_the_chord_steps(self, base):
        C, H = obstacle_run(base)
        traj = integrate(C, H, 0.01, 400, self.Z0, tangent=self.T0)
        ref, ref_tangent = chord_steps(C, H, 0.01, 400, self.Z0, self.T0)
        assert self.column_error(traj.z, ref) <= 1e3 * np.finfo(float).eps
        assert np.max(np.abs(traj.tangent - ref_tangent)) <= 1e-10 * np.max(np.abs(ref_tangent))
        eps = 1e-6
        fd = np.empty((12, 6))
        for j in range(6):
            e = np.zeros(12)
            e[6 + j] = eps
            hi = integrate(C, H, 0.01, 400, self.Z0 + e).z[-1]
            lo = integrate(C, H, 0.01, 400, self.Z0 - e).z[-1]
            fd[:, j] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(traj.tangent - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_coarse_steps_match_the_chord_steps_to_rounding(self):
        # At h = 0.2 each window's fixed point is solved to rounding, so the
        # states sit as near a symplectic_step loop as that loop's own
        # rounding allows (a predictor and one corrector per step left them
        # 4.8e5 eps away).
        C, H = obstacle_run()
        traj = integrate(C, H, 0.2, 20, self.Z0)
        ref, _ = chord_steps(C, H, 0.2, 20, self.Z0)
        assert self.column_error(traj.z, ref) <= 50 * np.finfo(float).eps

    @OBSTACLE_CASES
    @pytest.mark.parametrize("tau, h", [(0.05, 0.1), (0.05, 0.2)])
    def test_forced_hand_offs_keep_the_chord_states(self, base, tau, h, monkeypatch):
        # A strong potential at coarse steps, skimming the disc at squared
        # clearance 0.02-0.03: near the closest approach even a one-step
        # window's fixed point stops contracting, that step goes to the chord
        # iteration, and the run goes on from there.
        calls = []
        chord_newton = geodisc.hamiltonian._chord_newton

        def counting(*args, **kwargs):
            calls.append(1)
            return chord_newton(*args, **kwargs)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counting)
        C, H = obstacle_run(base, tau)
        steps = int(round(4.0 / h))
        z0 = np.array([-2.0, -0.6, 0.0, 0.5, 0.0, 0.0] + [0.0] * 6)
        traj = integrate(C, H, h, steps, z0, tangent=self.T0)
        handed_off = len(calls) - 1
        ref, ref_tangent = chord_steps(C, H, h, steps, z0, self.T0)
        assert 0 < handed_off < steps
        assert self.column_error(traj.z, ref) <= 1e-10
        assert np.max(np.abs(traj.tangent - ref_tangent)) <= 1e-10 * np.max(np.abs(ref_tangent))

    @pytest.mark.parametrize("y0", [-0.8, 0.0])
    def test_run_into_the_disc_raises_where_the_chord_steps_do(self, y0):
        C, H = obstacle_run()
        z0 = np.array([-10.0, y0, 0.0, 2.0, 0.0, 0.0] + [0.0] * 6)
        ref = [z0]
        with pytest.raises(SingularPotential):
            while True:
                ref.append(symplectic_step(C, H, 0.01, ref[-1]))
        k = len(ref) - 1  # the step that meets the disc
        traj = integrate(C, H, 0.01, k, z0)
        assert self.column_error(traj.z, np.array(ref)) <= 1e-10
        with pytest.raises(SingularPotential):
            integrate(C, H, 0.01, k + 1, z0)

    def test_a_stall_past_the_disc_is_the_chord_iterations_own(self, monkeypatch):
        # A strong potential at a coarse step, grazing the disc: window sweeps
        # land on the disc, so window gradient calls raise SingularPotential.
        # Each fails its window, down to one step, which ends its block at
        # that row for the chord iteration, so the run ends as on the chord
        # path (measured there: step 25 stalls at max_iter = 8), in the
        # NonConvergence naming the step, not in SingularPotential.
        V = obstacle_potential(0.2, 1.0, (0.0, 0.0), 3)[0]
        raised, in_block = [], []
        row_gradients = geodisc.hamiltonian._row_gradients

        def recorded(q):
            try:
                return V.grad(q)
            except SingularPotential:
                raised.append("block" if in_block else np.ndim(q))
                raise

        def block_call(grad, Q):
            in_block.append(1)
            try:
                return row_gradients(grad, Q)
            finally:
                in_block.pop()

        monkeypatch.setattr(geodisc.hamiltonian, "_row_gradients", block_call)
        C, H = second_order_phase_map(3), second_order_hamiltonian(3, replace(V, grad=recorded))
        z0 = np.array([-3.0, -0.8, 0.0, 1.0, 0.0, 0.0] + [0.0] * 6)
        with pytest.raises(NonConvergence, match=r"^step 25 at t = 2\.5: one-step solve stalled"):
            integrate(C, H, 0.1, 60, z0, max_iter=8)
        assert 2 in raised  # a window call

    def test_overflow_ends_in_the_typed_error_alone(self):
        # Under the suite's error::RuntimeWarning filter: no numpy overflow
        # warning from the condensed steps, their hand-off or the potential
        # may escape, only the NonConvergence of the step that overflows.
        C, H = obstacle_run()
        z0 = np.array([-2.0, -1.5, 0.0] + [0.0] * 6 + [1e306, 0.0, 0.0])
        with pytest.raises(NonConvergence, match="^" + re.escape("step 1896 at t = 18.96: ")):
            integrate(C, H, 0.01, 3000, z0)

    def test_gradient_calls_per_window_and_block(self, monkeypatch):
        # The documented 400-step run: step 0 by the chord iteration, then one
        # gradient call per window sweep on at most 32 rows and one call on
        # the rows of each block, with no other chord solve.
        V = obstacle_potential(1e-3, 1.0, (0.0, 0.0), 3)[0]
        shapes, chord, blocks = [], [], []
        chord_newton = geodisc.hamiltonian._chord_newton
        row_gradients = geodisc.hamiltonian._row_gradients

        def counted_gV(q):
            shapes.append(np.shape(q))
            return V.grad(q)

        def counted_chord(*args, **kwargs):
            before = len(shapes)
            out = chord_newton(*args, **kwargs)
            chord.append(len(shapes) - before)
            return out

        def counted_block(grad, Q):
            blocks.append(len(shapes))
            return row_gradients(grad, Q)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counted_chord)
        monkeypatch.setattr(geodisc.hamiltonian, "_row_gradients", counted_block)
        C, H = second_order_phase_map(3), second_order_hamiltonian(3, replace(V, grad=counted_gV))
        integrate(C, H, 0.01, 400, self.Z0, tangent=self.T0)
        assert len(chord) == 1 and len(shapes) <= 60
        assert [shapes[i] for i in blocks] == [(256, 3), (143, 3)]
        windows = [s for i, s in enumerate(shapes) if i >= chord[0] and i not in blocks]
        assert windows and all(len(s) == 2 and 1 <= s[0] <= 32 and s[1] == 3 for s in windows)

    def test_potential_rows_equal_point_calls(self, rng):
        V, clearance = obstacle_potential(0.3, 1.0, (0.2, -0.1), 3)
        Q = rng.normal(size=(2, 25, 3))
        Q[..., :2] *= 3.0 / np.linalg.norm(Q[..., :2], axis=-1, keepdims=True)  # outside the disc
        for f in (V.value, V.grad, V.hess, clearance):
            rows = f(Q)
            assert rows.shape == Q.shape[:2] + np.shape(f(Q[0, 0]))
            assert np.array_equal(rows, np.array([[f(q) for q in block] for block in Q]))
        Q[1, 7, :2] = (0.2, -0.1)  # one row at the center
        for f in (V.value, V.grad, V.hess):
            with pytest.raises(SingularPotential):
                f(Q)


class TestNonFiniteEnergy:
    """Finite states whose energy overflows end in NonConvergence, with no
    numpy warning (the suite turns RuntimeWarning into an error)."""

    @pytest.mark.parametrize("z0, k", [((0.0, 0.0, 0.0, 1e200), 0), ((0.0, 0.0, -1e154, 1e154), 35)])
    def test_names_the_first_step(self, z0, k):
        C, H = free_setup()
        expected = re.escape(f"step {k} at t = {k * 0.01:.6g}: ")
        with pytest.raises(NonConvergence, match="^" + expected + ".*energy") as info:
            integrate(C, H, 0.01, 100, np.array(z0))
        # The state itself is finite: only its energy overflows.
        assert np.all(np.isfinite(info.value.x_best)) and abs(info.value.x_best[3]) > 1e154


class TestFourthOrderResidual:
    def test_cubic_is_flat(self):
        h = 0.05
        ts = h * np.arange(9)
        assert np.max(fourth_order_residual(ts**3, h)) < 1e-6

    def test_quartic_unit_residual(self):
        h = 0.05
        ts = h * np.arange(9)
        res = fourth_order_residual(ts**4 / 24.0, h)
        assert np.allclose(res, 1.0, atol=1e-9)

    def test_includes_potential_gradient(self):
        h = 0.1
        res = fourth_order_residual(np.zeros(6), h, grad_potential=lambda q: np.array([2.5]))
        assert np.allclose(res, 2.5)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fourth_order_residual(np.zeros(4), 0.1)

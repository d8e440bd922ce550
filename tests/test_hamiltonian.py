import itertools
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import geodisc
from curve_oracles import TooFewPoints, fourth_order_residual
from geodisc.checks import _one_step_jacobian
from geodisc.control import obstacle_potential
from geodisc.errors import NonConvergence, SingularJacobian, SingularPotential
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


@pytest.fixture
def builds(monkeypatch, clear_memos):
    """The h of every step-block build from here on, the memos emptied first."""
    built, init = [], geodisc.hamiltonian._StepBlocks.__init__
    monkeypatch.setattr(geodisc.hamiltonian._StepBlocks, "__init__", lambda self, *key: built.append(key[-1]) or init(self, *key))
    return built


@pytest.fixture
def cap_iterations(monkeypatch):
    """Sets the iteration cap of every one-step chord solve from here on:
    its ``newton_solve`` call, at that function's default of 50 otherwise."""
    return lambda max_iter: monkeypatch.setattr(
        geodisc.hamiltonian, "newton_solve", partial(geodisc.numeric.newton_solve, max_iter=max_iter)
    )


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

    def test_s0_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match=r"^S0 must be 4 x 4, got shape \(3, 3\)$"):
            HamiltonianSystem(dim=2, S0=np.eye(3))

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
    """symplectic_step on rows (k, 4n): one call for all rows, on any
    lifted map, with each row's one-row bits and errors."""

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
            C = second_order_phase_map(1, base=replace(base, affine=None))
            H, Z = second_order_hamiltonian(1), row_starts(1, 6, rng)
        Z[-1] *= 1e6  # one row far above the absolute tolerance: its own floor must hold
        Z1 = symplectic_step(C, H, 0.01, Z)
        assert Z1.shape == Z.shape
        assert np.array_equal(Z1, np.array([symplectic_step(C, H, 0.01, z0) for z0 in Z]))

    def test_affine_rows_make_one_chord_iteration(self, monkeypatch, rng):
        # Rows that verify make no chord call; one row whose condensed step
        # misses its floor, in the rows' call and in its own, goes through
        # one chord iteration alone and takes its result.
        C, H = obstacle_setup()
        Z = row_starts(3, 10, rng, obstacle=True)
        window = geodisc.hamiltonian._window

        def one_off(terms, V, z0, b, g, out):
            solved = window(terms, V, z0, b, g, out)
            out[(z0 == Z[3]).all(axis=-1)] *= 1 + 1e-4
            return solved

        calls = counted_chord(monkeypatch)
        condensed = symplectic_step(C, H, 0.01, Z)
        assert calls == []
        monkeypatch.setattr(geodisc.hamiltonian, "_window", one_off)
        Z1 = symplectic_step(C, H, 0.01, Z)
        assert calls == [(12,)]
        assert np.array_equal(Z1[3], chord_step(C, H, 0.01, Z[3]))
        assert np.array_equal(np.delete(Z1, 3, axis=0), np.delete(condensed, 3, axis=0))

    def test_stalled_row_raises_nonconvergence_naming_it(self, rng, cap_iterations):
        C, H = wobbly_system()
        Z = row_starts(1, 5, rng) * 0.1
        Z[3, 0] = 0.9
        cap_iterations(20)
        with pytest.raises(NonConvergence, match=r"one-step solve of row 3 stalled") as info:
            symplectic_step(C, H, 0.1, Z)
        assert info.value.x_best.shape == (4,) and info.value.iterations == 20
        assert info.value.row == 3
        with pytest.raises(NonConvergence, match=r"^one-step solve stalled"):
            symplectic_step(C, H, 0.1, Z[3])
        symplectic_step(C, H, 0.1, np.delete(Z, 3, axis=0))  # the other rows converge

    @pytest.mark.parametrize("stall, raising", [(1, 3), (3, 1)])
    def test_of_several_failing_rows_the_lowest_raises_its_one_start_error(self, stall, raising, rng, cap_iterations):
        # One row stalls and one row's gradient raises, so the rows' residual
        # check raises and every row takes its own one-start call: the
        # lowest failing row's error ends the step, a stall with "of row i"
        # inserted and ``row`` = i, a raising gradient's error unchanged.
        def system():
            C, H = wobbly_system()
            wobbly = H.potential.grad

            def grad(q):
                if np.any(q < -0.5):
                    raise SingularPotential("q below -0.5")
                return wobbly(q)

            return C, replace(H, potential=replace(H.potential, grad=grad))

        Z = row_starts(1, 5, rng) * 0.1
        Z[stall, 0], Z[raising, 0] = 0.9, -0.9
        cap_iterations(20)
        kind = NonConvergence if stall < raising else SingularPotential
        with pytest.raises(kind) as rows:
            symplectic_step(*system(), 0.1, Z)
        with pytest.raises(kind) as alone:
            symplectic_step(*system(), 0.1, Z[min(stall, raising)])
        if kind is NonConvergence:
            assert str(alone.value).startswith("one-step solve stalled at residual ")
            assert str(rows.value) == str(alone.value).replace("one-step solve", f"one-step solve of row {stall}", 1)
            assert rows.value.row == stall and alone.value.row is None
            assert rows.value.iterations == alone.value.iterations == 20
        else:
            assert str(rows.value) == str(alone.value) == "q below -0.5"

    def test_each_row_stops_against_its_own_floor(self, rng, cap_iterations):
        # Row 0 stalls near 1e-10, above its floor 1e-12; row 1's floor,
        # 8 eps ||z0||_inf ~ 1.8e-9, would accept that residual.
        C, H = wobbly_system(amplitude=1e-9)
        Z = np.array([[0.9, 0.1, 0.0, 0.2], [-1e6, 0.0, 0.0, 0.0]])
        cap_iterations(20)
        with pytest.raises(NonConvergence, match=r"of row 0 stalled at residual .* \(tol 1\.0e-12\)"):
            symplectic_step(C, H, 0.1, Z)
        symplectic_step(C, H, 0.1, Z[1:])

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
        monkeypatch.setattr(geodisc.hamiltonian, "_SWEEPS", 0)  # no row settles: the chord path
        with pytest.raises(SingularJacobian, match="^one-step linearization is singular$"):
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


def counted_chord(monkeypatch):
    """The row shapes of every chord iteration from here on."""
    calls, chord_newton = [], geodisc.hamiltonian._chord_newton
    monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", lambda *args: calls.append(args[2].shape) or chord_newton(*args))
    return calls


class TestCondensedRows:
    """symplectic_step on an affine lifted map: each row's condensed step,
    kept when it verifies, else the chord iteration's result or error."""

    @pytest.mark.parametrize("case", ["midpoint n=1", "theta:0.3 n=3", "obstacle n=3"])
    @pytest.mark.parametrize("h", [0.01, 0.1])
    def test_rows_are_within_the_floor_and_next_to_the_chord_result(self, case, h, monkeypatch, rng):
        if case == "midpoint n=1":
            (C, H), Z = free_setup(1), row_starts(1, 40, rng)
        elif case == "theta:0.3 n=3":
            C, H = second_order_phase_map(3, base=theta_map(3, 0.3)), second_order_hamiltonian(3)
            Z = row_starts(3, 40, rng)
        else:
            (C, H), Z = obstacle_setup(), row_starts(3, 40, rng, obstacle=True)
        Z[-1] *= 1e6
        calls = counted_chord(monkeypatch)
        Z1 = symplectic_step(C, H, h, Z)
        assert calls == []
        assert np.all(np.abs(step_residual(C, H, h, Z)(Z1)).max(axis=1) <= geodisc.hamiltonian._floor(1e-12, Z))
        ref = chord_step(C, H, h, Z)
        assert np.all(np.abs(Z1 - ref).max(axis=1) <= 8 * np.finfo(float).eps * np.abs(ref).max(axis=1))

    @pytest.mark.parametrize("amplitude", [1e-3, 1e-9])
    def test_a_row_that_cannot_settle_falls_back_with_the_chord_error(self, amplitude, rng, cap_iterations):
        Z = row_starts(1, 5, rng) * 0.1
        Z[3, 0] = 0.9
        errors = []
        cap_iterations(20)
        for step in (symplectic_step, chord_step):
            with pytest.raises(NonConvergence) as info:
                step(*wobbly_system(amplitude=amplitude), 0.1, Z)
            errors.append((str(info.value), info.value.iterations))
        assert errors[0] == errors[1] and "of row 3 stalled" in errors[0][0]

    def test_a_row_whose_gradient_raises_falls_back_with_the_chord_error(self, monkeypatch, rng):
        C, H0 = free_setup()

        def grad(q):
            if np.any(q > 0.5):
                raise SingularPotential("q beyond 0.5")
            return 0.0 * q

        V = Potential(lambda q: 0.0 * q[..., 0], grad, lambda q: 0.0 * q[..., None])
        H = HamiltonianSystem(dim=2, S0=H0.S0, potential=V)
        Z = row_starts(1, 4, rng) * 0.1
        Z[2, 0] = 0.9
        calls, alone, one_start = counted_chord(monkeypatch), [], geodisc.hamiltonian.symplectic_step
        monkeypatch.setattr(geodisc.hamiltonian, "symplectic_step", lambda *args: alone.append(args[3]) or one_start(*args))
        for step in (symplectic_step, chord_step):
            with pytest.raises(SingularPotential, match="^q beyond 0.5$"):
                step(C, H, 0.1, Z)
        # symplectic_step takes every row alone when their residual check
        # raises: rows 0 and 1 verify, row 2 alone goes to its chord
        # iteration; chord_step takes rows 0, 1 and 2, one at a time.
        assert np.array_equal(alone, Z[:3])
        assert calls == [(4,)] + [(4,)] * 3
        symplectic_step(C, H, 0.1, np.delete(Z, 2, axis=0))  # the other rows step

    def test_a_map_without_an_affine_form_keeps_the_chord_bits(self, monkeypatch, rng):
        C, H = second_order_phase_map(1, base=replace(midpoint_map(1), affine=None)), second_order_hamiltonian(1)
        Z = row_starts(1, 6, rng)
        ref = chord_step(C, H, 0.01, Z)
        calls = counted_chord(monkeypatch)
        assert np.array_equal(symplectic_step(C, H, 0.01, Z), ref)
        assert calls == [(4,)] * 6

    def test_a_row_the_chord_cannot_solve_keeps_its_condensed_step_beside_a_fallback(self, monkeypatch, rng):
        # Row 1 verifies condensed, but the chord iteration meets a nan
        # Hessian on it; row 0 misses its floor and falls back.  Each row
        # gets its one-row result, and no error is raised for row 1.
        C, H = obstacle_setup()
        Z = np.zeros((3, 12))
        Z[0] = row_starts(3, 1, rng, obstacle=True)[0]
        Z[1, [0, 1, 3, 9]] = (1e308, -1.5, 1e308, 1e308)
        Z[2] = row_starts(3, 1, rng, obstacle=True)[0]
        alone = [symplectic_step(C, H, 0.1, z0) for z0 in Z]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergence):
            chord_step(C, H, 0.1, Z[1])
        window = geodisc.hamiltonian._window

        def row_0_off(terms, V, z0, b, g, out):
            solved = window(terms, V, z0, b, g, out)
            out[0] *= 1 + 1e-4
            return solved

        monkeypatch.setattr(geodisc.hamiltonian, "_window", row_0_off)
        calls = counted_chord(monkeypatch)
        Z1 = symplectic_step(C, H, 0.1, Z)
        assert calls == [(12,)]
        assert np.array_equal(Z1[0], chord_step(C, H, 0.1, Z[0]))
        assert np.array_equal(Z1[1:], np.array(alone[1:]))

    def test_overflowing_rows_raise_no_warning(self):
        # pytest turns a RuntimeWarning into an error.  The obstacle's
        # clearance overflows on these rows, and their condensed steps verify;
        # on the second row the chord iteration meets a nan Hessian and fails.
        C, H = obstacle_setup()
        Z = np.zeros((2, 12))
        Z[0, :2], Z[0, 9] = (-2.0, -1.5), 1e306
        Z[1, [0, 1, 3, 9]] = (1e308, -1.5, 1e308, 1e308)
        Z1 = symplectic_step(C, H, 0.1, Z)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.abs(step_residual(C, H, 0.1, Z)(Z1)).max(axis=1) <= geodisc.hamiltonian._floor(1e-12, Z))
            ref = chord_step(C, H, 0.1, Z[0])
        assert np.abs(Z1[0] - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()


class TestWindow:
    """``hamiltonian._window``, the one fixed-point kernel: b condensed steps
    from one start for ``integrate``, one step from each row of starts for
    ``symplectic_step``."""

    @pytest.mark.parametrize("potential", [False, True], ids=["free", "obstacle"])
    @pytest.mark.parametrize("base", [midpoint_map, lambda n: theta_map(n, 0.3)], ids=["midpoint", "theta0.3"])
    @pytest.mark.parametrize("h", [0.01, 0.1])
    def test_condensed_terms_at_one_step_are_the_one_step_terms(self, potential, base, h):
        # The merge rests on this: (Z, T, G, K) cut to b = 1 are one_step's
        # (D, hW, Gq, hP).  Z is built by increments from Z_0 = 0, so it holds
        # +0 where D holds -0; the sign of a zero aside, every bit agrees.
        V = obstacle_potential(1e-3, 1.0, (0.0, 0.0), 3)[0] if potential else None
        C, H = second_order_phase_map(3, base(3)), second_order_hamiltonian(3, V)
        blocks = geodisc.hamiltonian._step_blocks(C, H, h)
        d, n = C.dim, C.dim // 4
        Z, T, G, K = blocks.condensed[:4]
        for cut, term in zip((Z[:d], T[:d, :n], G[:n], K[:n, :n]), blocks.one_step):
            assert cut.shape == term.shape
            assert (cut + 0.0).tobytes() == (term + 0.0).tobytes()
        for cut, term in zip((T[:d, :n], G[:n], K[:n, :n]), blocks.one_step[1:]):
            assert cut.tobytes() == term.tobytes()

    def test_rows_that_leave_at_different_sweeps_keep_their_one_start_bits(self, rng):
        # A strong potential at a coarse step, row 0 near the disc: the rows
        # settle after 2 to 4 sweeps, and each leaves the sweeps with the
        # gradient, settled flag and step of its own one-start window.
        V0 = obstacle_potential(0.05, 1.0, (0.0, 0.0), 3)[0]
        sizes = []  # rows per gradient call
        V = replace(V0, grad=lambda q: sizes.append(len(q)) or V0.grad(q))
        C, H = second_order_phase_map(3), second_order_hamiltonian(3, V)
        one_step = geodisc.hamiltonian._step_blocks(C, H, 0.1).one_step
        Z = row_starts(3, 12, rng, obstacle=True)
        Z[0, :2] = (1.1, 0.2)
        out = np.zeros((12, 1, 12))
        g, ok = geodisc.hamiltonian._window(one_step, V, Z, 1, np.zeros((12, 3)), out)
        row_sizes, sweeps = sizes.copy(), []
        for i, z0 in enumerate(Z):
            sizes.clear()
            alone = np.zeros((1, 12))
            g1, ok1 = geodisc.hamiltonian._window(one_step, V, z0, 1, np.zeros(3), alone)
            sweeps.append(len(sizes))
            assert sizes == [1] * sweeps[-1]
            assert ok1 and ok[i] and np.array_equal(g1, g[i]) and np.array_equal(alone, out[i])
        assert sorted(set(sweeps)) == [2, 3, 4] and sweeps[0] == 4
        assert row_sizes == [sum(k > sweep for k in sweeps) for sweep in range(max(sweeps))]

    def test_a_row_whose_gradient_raises_in_the_sweeps_fails_alone(self, monkeypatch, rng):
        # Row 2 starts just outside the disc and runs into it: its sweeps'
        # preimages lie inside, where the gradient raises, so its window
        # fails (its gradient is nan) while its start's own residual is
        # fine.  The other rows keep their windows and make no chord call;
        # row 2 goes to the chord iteration alone and ends in its error.
        C, H = obstacle_setup()
        Z = row_starts(3, 6, rng, obstacle=True)
        Z[2, :6] = (-1.02, 0.0, 0.0, 10.0, 0.0, 0.0)
        out, one_step = Z[:, None].copy(), geodisc.hamiltonian._step_blocks(C, H, 0.01).one_step
        g, ok = geodisc.hamiltonian._window(one_step, H.potential, Z, 1, np.zeros((6, 3)), out)
        assert ok.tolist() == [True, True, False, True, True, True] and np.isnan(g[2]).all()
        assert np.array_equal(out[2, 0], Z[2])
        with pytest.raises(SingularPotential) as alone:
            chord_step(C, H, 0.01, Z[2])
        calls = counted_chord(monkeypatch)
        with pytest.raises(SingularPotential) as rows:
            symplectic_step(C, H, 0.01, Z)
        assert calls == [(12,)] and str(rows.value) == str(alone.value)
        monkeypatch.undo()
        rest = np.delete(Z, 2, axis=0)
        assert np.array_equal(symplectic_step(C, H, 0.01, rest), np.array([symplectic_step(C, H, 0.01, z0) for z0 in rest]))

    def test_a_lone_start_whose_gradient_raises_fails_after_one_call(self):
        # One start's window takes its b rows' gradients in one call and
        # fails when that call raises, without a call per row.
        C, H = obstacle_setup()
        calls = []

        def refusing(q):
            calls.append(np.shape(q))
            raise SingularPotential("refused")

        V = replace(H.potential, grad=refusing)
        blocks = geodisc.hamiltonian._step_blocks(C, second_order_hamiltonian(3, V), 0.01)
        out = np.full((32, 12), 7.0)
        z0 = TestRemainderSteps.Z0
        g, ok = geodisc.hamiltonian._window(blocks.condensed, V, z0, 32, np.zeros(3), out)
        assert not ok and calls == [(32, 3)] and np.all(out == 7.0)

    @pytest.mark.parametrize("case", ["free n=1", "obstacle n=3", "non-affine n=1"])
    def test_no_rows(self, case):
        if case == "free n=1":
            C, H = free_setup(1)
        elif case == "obstacle n=3":
            C, H = obstacle_setup()
        else:
            C, H = second_order_phase_map(1, base=replace(midpoint_map(1), affine=None)), second_order_hamiltonian(1)
        assert symplectic_step(C, H, 0.01, np.empty((0, C.dim))).shape == (0, C.dim)


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
        # The lift of a first-order map: phase points (q, p) on T*R, no (q, qdot) to step.
        with pytest.raises(ValueError, match="^second-order trajectories need an even-dimensional base$"):
            integrate(cotangent_lift(midpoint_map(1)), HamiltonianSystem(dim=1, S0=np.eye(2)), 0.1, 5, np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_tangent_is_refused_like_a_non_finite_start(self, value):
        C, H = free_setup()
        with pytest.raises(ValueError, match="^z0 contains non-finite entries$"):
            integrate(C, H, 0.01, 5, np.full(4, value))
        tangent = np.eye(4)[:, :2].copy()
        tangent[2, 1] = value
        with pytest.raises(ValueError, match="^tangent contains non-finite entries$"):
            integrate(C, H, 0.01, 5, np.array([0.0, 0.1, 0.01, 0.2]), tangent=tangent)
        with pytest.raises(ValueError, match="^tangent contains non-finite entries$"):
            integrate(C, H, 0.01, 5, np.array([0.0, 0.1, 0.01, 0.2]), tangent=np.full((4, 1), value))

    def test_a_map_and_a_hamiltonian_of_different_dimensions_are_refused(self):
        C, H = second_order_phase_map(1), second_order_hamiltonian(2)
        with pytest.raises(ValueError, match=r"^Hamiltonian lives on T\*R\^4 but the map expects dimension 2$"):
            step_residual(C, H, 0.1, np.zeros(4))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.array([[0.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]]), "z0 contains non-finite entries"),
            (np.zeros((2, 5)), "phase points have 4 coordinates, got 5"),
        ],
        ids=["non-finite", "width"],
    )
    def test_bad_rows_of_starts_are_refused(self, rows, message):
        C, H = free_setup()
        with pytest.raises(ValueError, match=f"^{message}$"):
            step_residual(C, H, 0.1, rows)

    def test_stall_names_step_and_time(self, cap_iterations):
        # Condensed steps carry the run far from the obstacle; on the grazing
        # approach a step fails its check and goes to the chord iteration,
        # where one iteration no longer suffices, so the stall comes mid-run.
        C, H = obstacle_setup()
        z0 = np.array([-10.0, -1.0, 0.0, 2.0, 0.0, 0.0] + [0.0] * 6)
        cap_iterations(1)
        with pytest.raises(NonConvergence) as err:
            integrate(C, H, 0.01, 600, z0)
        found = re.match(r"step (\d+) at t = ([0-9.]+): one-step solve stalled", str(err.value))
        assert found, str(err.value)
        k, t = int(found.group(1)), float(found.group(2))
        assert k > 0 and t == pytest.approx(0.01 * k)
        assert err.value.x_best is not None and err.value.x_best.size == 12

    def test_a_fresh_jacobian_is_not_retried(self, monkeypatch, cap_iterations):
        # Step 0 carries no inverse: its one failed attempt already took a
        # fresh Jacobian, so it is not run again before the error.
        calls = []
        chord_newton = geodisc.hamiltonian._chord_newton
        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", lambda *args: calls.append(1) or chord_newton(*args))
        C, H = wobbly_system()
        message = r"^step 0 at t = 0: one-step solve stalled at residual 2\.000e-04 \(tol 1\.0e-12\)$"
        cap_iterations(20)
        with pytest.raises(NonConvergence, match=message):
            integrate(C, H, 0.1, 10, np.array([0.9, 0.1, 0.0, 0.2]))
        assert len(calls) == 1

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
        d = C.dim // 2
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

        counted = counting(geodisc.numeric.jacobian_fd)
        for module in (geodisc.numeric, geodisc.lifts, geodisc.maps, geodisc.jets):
            if hasattr(module, "jacobian_fd"):
                monkeypatch.setattr(module, "jacobian_fd", counted)
        C, H = setup()
        z0 = TestTangent.Z0 if C.dim == 12 else np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 50, z0, tangent=np.eye(z0.size)).tangent  # the tangent is carried when read
        symplectic_step(C, H, 0.01, z0)
        assert calls == []

    @pytest.mark.parametrize(
        "n, base, potential",
        [(1, midpoint_map, False), (3, midpoint_map, True), (3, lambda n: theta_map(n, 0.3), True)],
        ids=["free-n1", "obstacle-n3", "theta0.3-n3"],
    )
    def test_folded_residual_matches_the_composed_path(self, n, base, potential, rng):
        # The order-1 lift of a linear base on R^n is that base on R^2n acting
        # on (q, qdot), so a copy of base(2n) without its affine form takes the
        # composed path, w = C.inverse_flat(y), for the same map with exact
        # jets (the jet lift of such a copy would take them by finite
        # differences, ~1e-11).
        folded = second_order_phase_map(n, base(n))
        composed = cotangent_lift(replace(base(2 * n), affine=None))
        assert folded.affine is not None and composed.affine is None
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
    def test_blocks_are_built_once_per_call(self, setup, builds):
        # A step after a run of the same (C, H, h) looks its blocks up.
        C, H = setup()
        z0 = TestTangent.Z0 if C.dim == 12 else np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 50, z0, tangent=np.eye(z0.size)).tangent
        assert builds == [0.01]
        symplectic_step(C, H, 0.01, z0)
        assert builds == [0.01]

    def test_alternating_step_sizes_build_two_sets(self, builds):
        C, H = obstacle_setup()
        for h in (0.01, 0.02, 0.01):
            integrate(C, H, h, 50, TestTangent.Z0, tangent=np.eye(12)).tangent
            symplectic_step(C, H, h, TestTangent.Z0)
        assert builds == [0.01, 0.02]

    def test_hamiltonians_with_one_quadratic_part_share_their_blocks(self, builds, clear_memos):
        # The blocks read C, S0, whether H has a potential and h: obstacles
        # that differ only in their centre share one build, and the shared
        # build gives each run the bits of a fresh one.  The free system of
        # the same S0 has its own blocks (its windows are _ROWS steps long).
        C = second_order_phase_map(3)
        H0, H1 = (second_order_hamiltonian(3, obstacle_potential(1e-3, 1.0, c, 3)[0]) for c in ((0.0, 0.0), (0.3, 0.5)))
        first = integrate(C, H0, 0.01, 300, TestTangent.Z0)
        shared = integrate(C, H1, 0.01, 300, TestTangent.Z0)
        assert builds == [0.01] and not np.array_equal(first.z, shared.z)
        clear_memos()
        assert np.array_equal(integrate(second_order_phase_map(3), H1, 0.01, 300, TestTangent.Z0).z, shared.z)
        assert builds == [0.01, 0.01]
        free = geodisc.hamiltonian._step_blocks(C, second_order_hamiltonian(3), 0.01)
        assert builds == [0.01, 0.01, 0.01]
        assert free is not geodisc.hamiltonian._step_blocks(C, H1, 0.01)
        assert free.window == geodisc.hamiltonian._ROWS and geodisc.hamiltonian._step_blocks(C, H1, 0.01).window == 32

    @pytest.mark.parametrize("setup", [free_setup, obstacle_setup], ids=["free", "obstacle"])
    def test_cached_blocks_and_map_matrices_are_read_only(self, setup):
        # The blocks and maps live for the whole process, shared by every caller.
        C, H = setup()
        blocks = geodisc.hamiltonian._step_blocks(C, H, 0.01)
        arrays = [blocks.L, blocks.LK, blocks.A0, blocks.A1, blocks.Kq0, blocks.Kq1]
        arrays += [*blocks.one_step, *blocks.condensed, *C.affine, *midpoint_map(C.dim // 4).affine]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        assert C is second_order_phase_map(C.dim // 4) and blocks is geodisc.hamiltonian._step_blocks(C, H, 0.01)

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
        d = C.dim
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


def chord_step(C, H, h, z0, tol=1e-12):
    """One step by the chord iteration alone, from z1 = z0 with the
    closed-form Jacobian there: the path :func:`symplectic_step` falls back
    to.  Rows step one at a time; row i's NonConvergence says "of row i" and
    carries ``row`` = i, as :func:`symplectic_step` words it."""
    if np.ndim(z0) == 2:
        rows = []
        for i, z in enumerate(z0):
            try:
                rows.append(chord_step(C, H, h, z, tol))
            except NonConvergence as exc:
                exc.args, exc.row = (str(exc).replace("one-step solve", f"one-step solve of row {i}", 1),), i
                raise
        return np.array(rows)
    jacobian = lambda z1: _step_jacobian(C, H, h, z0, z1)[:, C.dim :]
    return geodisc.hamiltonian._chord_newton(step_residual(C, H, h, z0), jacobian, z0, None, tol)[0]


def chord_steps(C, H, h, steps, z0, tangent=None):
    """``steps`` steps taken one at a time by the chord iteration alone
    (:func:`chord_step`), with the tangent carried by the chord path's own
    solve; returns the states and the final tangent."""
    d = C.dim // 2
    z = [np.asarray(z0, dtype=float)]
    for _ in range(steps):
        z.append(chord_step(C, H, h, z[-1]))
        if tangent is not None:
            A = _step_jacobian(C, H, h, z[-2], z[-1])
            tangent = -np.linalg.solve(A[:, 2 * d :], A[:, : 2 * d] @ tangent)
    return np.array(z), tangent


def after_windows(monkeypatch, after):
    """Call ``after(z, j, b)`` after each window of the condensed steps of a run, with the run's states z and
    the window's first row j: the window wrote rows j + 1 .. j + b of z from row j."""
    hm = geodisc.hamiltonian
    window, condensed_steps, runs = hm._window, hm._condensed_steps, []

    def steps(blocks, V, z, *args):
        runs.append(z)
        return condensed_steps(blocks, V, z, *args)

    def watched(terms, V, z0, b, g, out):
        solved = window(terms, V, z0, b, g, out)
        z = runs[-1]
        after(z, (z0.ctypes.data - z.ctypes.data) // z.strides[0], b)
        return solved

    monkeypatch.setattr(hm, "_condensed_steps", steps)
    monkeypatch.setattr(hm, "_window", watched)


LINEAR_CASES = pytest.mark.parametrize(
    "n, base", [(1, midpoint_map), (3, lambda n: theta_map(n, 0.3))], ids=["midpoint-n1", "theta0.3-n3"]
)


class TestLinearSteps:
    """Free runs on an affine lifted map: step 0 by the chord iteration, every
    later step by the refined affine update, checked once per span of windows."""

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
        # step_residual call, so the free run must make one, on row 0,
        # before its condensed windows write the later rows.
        events = []
        original = geodisc.hamiltonian.step_residual
        condensed_steps = geodisc.hamiltonian._condensed_steps

        def counting(C, H, h, z0, **kwargs):
            events.append(("step_residual", np.array(z0)))
            return original(C, H, h, z0, **kwargs)

        def windows(*args):
            events.append(("windows", None))
            return condensed_steps(*args)

        monkeypatch.setattr(geodisc.hamiltonian, "step_residual", counting)
        monkeypatch.setattr(geodisc.hamiltonian, "_condensed_steps", windows)
        C, H = free_setup()
        z0 = np.array([0.0, 0.1, 0.01, 0.2])
        integrate(C, H, 0.01, 1000, z0)
        assert [e[0] for e in events] == ["step_residual", "windows"]
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

    def test_failed_check_costs_one_chord_step(self, monkeypatch, rng):
        # The first window's rows, off by 1e-4 of their size, fail their
        # check from step 1 on.  The check comes after the span's windows
        # (rows 2-257 and 258-300), so the second one runs once for nothing;
        # then step 1 alone goes to the chord iteration, and the windows
        # resume after it.
        calls, windows = [], []
        chord_newton = geodisc.hamiltonian._chord_newton

        def counting(*args, **kwargs):
            calls.append(1)
            return chord_newton(*args, **kwargs)

        def perturbed(z, j, b):
            if not windows:
                z[j + 1 : j + b + 1] *= 1 + 1e-4
            windows.append(j)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counting)
        after_windows(monkeypatch, perturbed)
        C, H = free_setup()
        z0 = rng.normal(size=4)
        traj = integrate(C, H, 0.01, 300, z0, tangent=np.eye(4))
        assert len(calls) == 2 and windows == [1, 257, 2, 258]
        ref_z, ref_tangent = chord_steps(C, H, 0.01, 300, z0, np.eye(4))
        assert np.max(np.abs(traj.z - ref_z)) <= 1e-13 * np.max(np.abs(ref_z))
        assert np.max(np.abs(traj.tangent - ref_tangent)) <= 1e-12 * np.max(np.abs(ref_tangent))

    @LINEAR_CASES
    def test_failed_check_in_a_later_window_of_a_span(self, n, base, monkeypatch, rng):
        # Row 1001 of a 3000-step run, off by 1e-6 of its size, sits in the
        # fourth window of the first span (steps 1-2048, checked once after
        # eight windows): steps 1-999 verify, step 1000 alone goes to the
        # chord iteration, and the next span starts at step 1001.
        starts, spans = [], []
        chord_newton = geodisc.hamiltonian._chord_newton
        verified_steps = geodisc.hamiltonian._verified_steps

        def counting(residual, jacobian, x0, *args, **kwargs):
            starts.append(x0.copy())
            return chord_newton(residual, jacobian, x0, *args, **kwargs)

        def perturbed(z, j, b):
            if j < 1001 <= j + b and len(starts) == 1:
                z[1001] *= 1 + 1e-6

        def checked(blocks, z, k, end, *args):
            spans.append((k, end))
            return verified_steps(blocks, z, k, end, *args)

        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", counting)
        after_windows(monkeypatch, perturbed)
        monkeypatch.setattr(geodisc.hamiltonian, "_verified_steps", checked)
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        z0, T0 = rng.normal(size=4 * n), rng.normal(size=(4 * n, 2))
        traj = integrate(C, H, 0.01, 3000, z0, tangent=T0)
        assert spans == [(1, 2049), (1001, 3000)]
        assert len(starts) == 2 and np.array_equal(starts[1], traj.z[1000])
        ref_z, ref_tangent = chord_steps(C, H, 0.01, 3000, z0, T0)
        assert np.max(np.abs(traj.z - ref_z)) <= 1e-13 * np.max(np.abs(ref_z))
        assert np.max(np.abs(traj.tangent - ref_tangent)) <= 1e-12 * np.max(np.abs(ref_tangent))


class TestBlockPowers:
    """Free runs on an affine lifted map advance a block of rows at a time,
    as one condensed window with the prebuilt powers of the one-step map."""

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
    def test_long_runs_stay_near_the_long_double_steps(self, n, base):
        # Five starts, 10^4 steps each, against the same step equations
        # A0 z_k + A1 z_{k+1} = 0 solved in long double: the increment-built
        # powers keep every column within 20 eps of its size (2.9-8.9 at n = 1,
        # 5.5-7.7 here at n = 3); powers built by repeated products of M leave
        # 46-83 and 54-61.
        C, H = second_order_phase_map(n, base(n)), second_order_hamiltonian(n)
        blocks = geodisc.hamiltonian._step_blocks(C, H, 0.01)
        A0, A1 = (np.asarray(a, dtype=np.longdouble) for a in (blocks.A0, blocks.A1))
        X = np.linalg.inv(blocks.A1).astype(np.longdouble)
        for _ in range(2):  # Newton-Schulz refinement of A1^-1 to long double
            X = X + X @ (np.eye(4 * n, dtype=np.longdouble) - A1 @ X)
        D = -X @ (A0 + A1)
        starts = np.random.default_rng(7).normal(size=(5, 4 * n))
        ref = np.empty((10_001,) + starts.shape, dtype=np.longdouble)
        ref[0] = starts
        for k in range(10_000):
            ref[k + 1] = ref[k] + ref[k] @ D.T
        for i, z0 in enumerate(starts):
            z = integrate(C, H, 0.01, 10_000, z0).z
            assert column_error(z, ref[:, i]).max() <= 20

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

    def test_a_stall_past_the_disc_is_the_chord_iterations_own(self, monkeypatch, cap_iterations):
        # A strong potential at a coarse step, grazing the disc: window sweeps
        # land on the disc, so window gradient calls raise SingularPotential.
        # Each fails its window, down to one step, which ends its block at
        # that row for the chord iteration, so the run ends as on the chord
        # path (measured there: step 25 stalls at a cap of 8 iterations), in the
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
        cap_iterations(8)
        with pytest.raises(NonConvergence, match=r"^step 25 at t = 2\.5: one-step solve stalled"):
            integrate(C, H, 0.1, 60, z0)
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

    def test_a_block_check_that_raises_takes_its_rows_one_at_a_time(self):
        # A grad that refuses calls of more than 32 rows refuses the block
        # check alone (a window has at most 32): its gradients are then taken
        # one row at a time, each with the bits of its row in one call.
        C, H = obstacle_run()
        V, point_calls = H.potential, []

        def fussy(q):
            if np.ndim(q) == 2 and len(q) > 32:
                raise SingularPotential("more than 32 rows")
            point_calls.append(np.ndim(q) == 1)
            return V.grad(q)

        traj = integrate(C, second_order_hamiltonian(3, replace(V, grad=fussy)), 0.01, 40, self.Z0)
        assert sum(point_calls) >= 39  # the block check's rows 1..39, and the chord step 0's calls
        assert np.array_equal(traj.z, integrate(C, H, 0.01, 40, self.Z0).z)

    def test_a_failed_first_window_hands_every_step_to_the_chord_iteration(self, monkeypatch):
        # A grad that refuses every call on rows fails every window, down to
        # its first one-step window, so each block ends at its first step
        # and the run goes on step by step in the chord iteration.
        calls = []
        chord_newton = geodisc.hamiltonian._chord_newton
        monkeypatch.setattr(geodisc.hamiltonian, "_chord_newton", lambda *a, **k: calls.append(1) or chord_newton(*a, **k))
        C, H = obstacle_run()
        V = H.potential

        def points_only(q):
            if np.ndim(q) == 2:
                raise SingularPotential("rows")
            return V.grad(q)

        traj = integrate(C, second_order_hamiltonian(3, replace(V, grad=points_only)), 0.01, 40, self.Z0)
        assert len(calls) == 40
        ref, _ = chord_steps(C, H, 0.01, 40, self.Z0)
        assert self.column_error(traj.z, ref) <= 1e-10

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


def row_verified(blocks, z, k, end, tol, hG=None):
    """The count of ``hamiltonian._verified_steps`` written out one step a
    row: the leading steps k .. end - 1 whose residual A0 z_k + A1 z_{k+1},
    plus hG on the p0 rows, is finite and at most max(tol, 8 eps ||z_k||_inf)."""
    R = z[k:end] @ blocks.A0.T + z[k + 1 : end + 1] @ blocks.A1.T
    if hG is not None:
        d = R.shape[1] // 2
        R[:, d : d + hG.shape[1]] += hG
    passed = np.abs(R).max(axis=1) <= np.maximum(tol, 8 * np.finfo(float).eps * np.abs(z[k:end]).max(axis=1))
    return end - k if passed.all() else int(np.argmin(passed))


class TestVerifiedSteps:
    """``hamiltonian._verified_steps``, the check after each block of condensed
    steps, against :func:`row_verified` on blocks of real runs, as they are and
    with faults planted in them."""

    CASES = pytest.mark.parametrize(
        "n, potential", [(1, False), (1, True), (3, False), (3, True)], ids=["n1", "n1-hG", "n3", "n3-hG"]
    )

    @staticmethod
    def block(n, potential, rng):
        """(blocks, z, k, end, hG) for a block of at most 256 steps inside a 300-step run from a random
        start; with a potential (0.1 |q|^2 / 2) hG is -h grad V at the steps' preimages, as the
        condensed steps pass it."""
        V = None
        if potential:
            hess = lambda q: np.broadcast_to(0.1 * np.eye(n), np.shape(q) + (n,))
            V = Potential(lambda q: 0.05 * np.sum(q * q, axis=-1), lambda q: 0.1 * q, hess)
        C, H, h = second_order_phase_map(n), second_order_hamiltonian(n, V), 0.01
        blocks = geodisc.hamiltonian._step_blocks(C, H, h)
        z = integrate(C, H, h, 300, rng.normal(size=4 * n)).z
        k = int(rng.integers(1, 40))
        end = k + int(rng.integers(200, 257))
        hG = None
        if potential:
            Q = z[k:end] @ blocks.Kq0.T + z[k + 1 : end + 1] @ blocks.Kq1.T
            hG = -h * V.grad(Q)
        return blocks, z, k, end, hG

    @CASES
    def test_a_block_of_a_run_passes_whole(self, n, potential, rng):
        blocks, z, k, end, hG = self.block(n, potential, rng)
        for tol in (1e-12, 1e-14):
            want = row_verified(blocks, z, k, end, tol, hG)
            assert geodisc.hamiltonian._verified_steps(blocks, z, k, end, tol, hG) == want
        assert want == end - k

    @CASES
    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "above-floor", "at-floor", "tol-0"])
    def test_planted_faults_count_as_the_row_formula(self, n, potential, fault, rng):
        blocks, z, k, end, hG = self.block(n, potential, rng)
        z = z.copy()
        m, j = int(rng.integers(0, end - k - 1)), int(rng.integers(0, 4 * n))  # step m, component j
        tol = 1e-12
        if fault in ("nan", "inf", "-inf"):
            z[k + m + 1, j] = float(fault)
        elif fault in ("above-floor", "at-floor"):
            # Step m's residual lands near 1e-10, far above every other step's and the
            # 8 eps ||z||_inf term; the tolerance then sits just below or just above it.
            z[k + m + 1, j] += 1e-10 / np.abs(blocks.A1[:, j]).max()
            R = z[k + m] @ blocks.A0.T + z[k + m + 1] @ blocks.A1.T
            if hG is not None:
                R[2 * n : 3 * n] += hG[m]
            tol = np.abs(R).max() * (1 - 1e-9 if fault == "above-floor" else 1 + 1e-9)
        else:
            tol = 0.0  # the floor is 8 eps ||z_k||_inf alone
        with np.errstate(invalid="ignore", over="ignore"):
            want = row_verified(blocks, z, k, end, tol, hG)
            got = geodisc.hamiltonian._verified_steps(blocks, z, k, end, tol, hG)
        assert got == want
        if fault != "tol-0":
            assert want == m if fault != "at-floor" else want > m

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_nan_gradient_fails_its_step(self, n, rng):
        # As _row_gradients leaves it for a row whose gradient raises.
        blocks, z, k, end, hG = self.block(n, True, rng)
        m = int(rng.integers(0, end - k))
        hG[m:] = np.nan
        with np.errstate(invalid="ignore"):
            assert geodisc.hamiltonian._verified_steps(blocks, z, k, end, 1e-12, hG) == m
        assert row_verified(blocks, z, k, end, 1e-12, hG) == m


def toeplitz_by_indices(blocks):
    """The block lower-triangular Toeplitz matrix of ``blocks`` by index
    arithmetic and ``np.where``, the oracle of ``hamiltonian._toeplitz``."""
    i, l = np.indices((len(blocks),) * 2)
    T = np.where((i >= l)[..., None, None], blocks[np.maximum(i - l, 0)], 0.0)
    return T.transpose(0, 2, 1, 3).reshape(T.shape[0] * T.shape[2], -1)


@pytest.mark.parametrize("shape", [(32, 12, 3), (32, 3, 3), (5, 3, 3), (1, 2, 2)])
def test_toeplitz_view_has_the_bits_of_the_index_construction(rng, shape):
    blocks = rng.normal(size=shape)
    T = geodisc.hamiltonian._toeplitz(blocks)
    assert T.shape == (shape[0] * shape[1], shape[0] * shape[2])
    assert np.array_equal(T, toeplitz_by_indices(blocks))


def loop_product(Phi, T):
    """Phi[-1] .. Phi[1] Phi[0] T, one step map at a time."""
    for step_map in Phi:
        T = step_map @ T
    return T


def tree_product(Phi, T):
    """The same product as a pairwise tree, in the order of
    ``hamiltonian._condensed_tangent``: an odd leading map is folded into T,
    the others are paired as Phi[2i + 1] Phi[2i]."""
    while len(Phi) > 1:
        if len(Phi) % 2:
            T, Phi = Phi[0] @ T, Phi[1:]
        Phi = Phi[1::2] @ Phi[0::2]
    return Phi[0] @ T


def exact_product(Phi, T):
    """The loop's product in long double, as the reference of both orders."""
    return loop_product(Phi.astype(np.longdouble), T.astype(np.longdouble))


def column_error(T, ref):
    """Largest deviation of each column of T from ref, in eps of the column's size."""
    return (np.abs(T - ref).max(axis=0) / np.abs(ref).max(axis=0)).astype(float) / np.finfo(float).eps


def eager_run(C, H, h, steps, z0, T, tol=1e-12, product=None):
    """States and tangent of ``integrate(C, H, h, steps, z0, tangent=T)``
    on an affine lifted map, with the tangent carried along the run, each
    step's or block's linearization applied as soon as the step is taken:
    the same paths, steps and blocks as ``integrate`` and the same numpy
    calls on the same arrays, done eagerly.  ``product`` multiplies a
    condensed block's step maps into the tangent; None takes the product of
    ``integrate``: the tree with a potential, T + (M^b - I) T without."""
    hm = geodisc.hamiltonian
    blocks, d, V = hm._step_blocks(C, H, h), C.dim, H.potential
    Z, *_, hW, hP, M, Gq = blocks.condensed
    if product is None:  # without a potential M^b - I is Z's block b - 1
        product = tree_product if V is not None else lambda Phi, T: T + Z[(len(Phi) - 1) * d : len(Phi) * d] @ T
    z = np.empty((steps + 1, d))
    z[0], J_inv, k = z0, None, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            zk = z[k]
            residual = hm.step_residual(C, H, h, zk)
            chord = lambda z1: hm._step_jacobian(C, H, h, zk, z1)[:, d:]
            try:
                z1, J_inv = hm._chord_newton(residual, chord, zk, J_inv, tol)
            except NonConvergence:
                if J_inv is None:
                    raise
                z1, J_inv = hm._chord_newton(residual, chord, zk, None, tol)
            A = hm._step_jacobian(C, H, h, zk, z1)
            T = -np.linalg.solve(A[:, d:], A[:, :d] @ T)
            z[k + 1] = z1
            k += 1
            cond, g, b = blocks.condensed, np.zeros(d // 4), blocks.window  # as hamiltonian._condensed_steps
            while k < steps:
                j, end = k, min(k + hm._ROWS, steps)
                while j < end:
                    b = min(b, end - j)
                    solved, ok = hm._window(cond, V, z[j], b, g, z[j + 1 : j + b + 1])
                    if ok:
                        g, j, b = solved, j + b, min(2 * b, blocks.window)
                    elif b > 1:
                        b //= 2
                    else:
                        break
                if j == k:
                    break
                if V is None:
                    verified = hm._verified_steps(blocks, z, k, j, tol)
                    Phi = np.broadcast_to(M, (verified, d, d))
                else:
                    Q = z[k:j] @ blocks.Kq0.T
                    Q += z[k + 1 : j + 1] @ blocks.Kq1.T
                    verified = hm._verified_steps(blocks, z, k, j, tol, -h * hm._row_gradients(V.grad, Q))
                if verified:
                    if V is not None:
                        Hs = -V.hess(Q[:verified])
                        Phi = hW @ ((Hs @ np.linalg.inv(np.eye(d // 4) + hP @ Hs)) @ Gq)
                        np.subtract(M, Phi, out=Phi)
                    T = product(Phi, T)
                k += verified
                if k < end:
                    break
    return z, T


class TestLazyTangent:
    """``integrate(..., tangent=T0)`` records each step's linearization and
    carries the tangent on the first read of ``Trajectory.tangent``."""

    T6 = np.vstack([np.zeros((6, 6)), np.eye(6)])
    Z0 = TestRemainderSteps.Z0

    def lazy_case(self, case):
        """(C, H, h, steps, z0, T0) of one of the four reference runs."""
        if case == "free-n1":
            return (*free_setup(), 0.01, 3000, np.array([0.3, -0.2, 0.02, -0.1]), np.eye(4))
        if case == "hand-off":  # the run of test_forced_hand_offs_keep_the_chord_states
            return (*obstacle_run(tau=0.05), 0.1, 40, np.array([-2.0, -0.6, 0.0, 0.5] + [0.0] * 8), self.T6)
        base = midpoint_map if case == "obstacle-n3" else (lambda n: theta_map(n, 0.3))
        return (*obstacle_run(base), 0.01, 400, self.Z0, self.T6)

    @pytest.mark.parametrize("case", ["free-n1", "obstacle-n3", "theta0.3-n3", "hand-off"])
    def test_tangent_has_the_bits_of_the_eager_carry(self, case):
        C, H, h, steps, z0, T0 = self.lazy_case(case)
        ref_z, ref_tangent = eager_run(C, H, h, steps, z0, T0)
        traj = integrate(C, H, h, steps, z0, tangent=T0)
        assert np.array_equal(traj.z, ref_z)
        assert np.array_equal(traj.tangent, ref_tangent)

    @pytest.mark.parametrize("tau", [1e-3, 0.05, 0.2])
    def test_tree_is_as_accurate_as_the_loop(self, tau):
        # Both orders against a long-double product of the same step maps on
        # the documented 400-step run: the worst column of either is within
        # 64 eps of its size (about 34 at most for either order here).
        run = (*obstacle_run(tau=tau), 0.01, 400, self.Z0, self.T6)
        exact = eager_run(*run, product=exact_product)[1]
        tree, loop = eager_run(*run)[1], eager_run(*run, product=loop_product)[1]
        assert np.array_equal(integrate(*run[:5], tangent=self.T6).tangent, tree)
        assert column_error(tree, exact).max() <= 64 and column_error(loop, exact).max() <= 64

    @pytest.mark.parametrize("case", ["obstacle-n3", "theta0.3-n3", "hand-off"])
    def test_tree_stays_near_the_loop(self, case):
        C, H, h, steps, z0, T0 = self.lazy_case(case)
        tree = integrate(C, H, h, steps, z0, tangent=T0).tangent
        assert column_error(tree, eager_run(C, H, h, steps, z0, T0, product=loop_product)[1]).max() <= 50

    def test_free_tree_stays_near_the_long_double_product(self):
        # Without a potential every step map is M, and a block of b steps
        # enters as T + (M^b - I) T with the power the step blocks hold.  On
        # the 3000-step free run that is within 4.4 eps of a column's size of
        # the long-double product (a tree of M's: 1.2), where the loop of
        # single products drifts 284 eps off it.
        run = self.lazy_case("free-n1")
        tree = integrate(*run[:5], tangent=run[5]).tangent
        assert column_error(tree, eager_run(*run, product=exact_product)[1]).max() <= 8

    def test_hessians_are_taken_on_the_first_read_alone(self):
        V = obstacle_potential(1e-3, 1.0, (0.0, 0.0), 3)[0]
        calls = []
        counted = replace(V, hess=lambda q: calls.append(np.shape(q)) or V.hess(q))
        C, H = second_order_phase_map(3), second_order_hamiltonian(3, counted)
        integrate(C, H, 0.01, 400, self.Z0)
        plain = len(calls)  # the chord Jacobian of step 0
        traj = integrate(C, H, 0.01, 400, self.Z0, tangent=self.T6)
        assert len(calls) == 2 * plain
        first = traj.tangent
        assert len(calls) > 2 * plain
        read = len(calls)
        assert traj.tangent is first and len(calls) == read

    def test_first_read_of_the_documented_run_peaks_under_550_kb(self):
        # A block's step maps are formed in place and multiplied as a tree
        # into one half-size buffer that alternates with them: a new array a
        # tree level took the first read to about 670 KB; this reads about 460.
        traj = integrate(*obstacle_run(), 0.01, 400, self.Z0, tangent=self.T6)
        tracemalloc.start()
        try:
            traj.tangent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 550_000

    def test_a_singular_linearization_raises_on_read(self, monkeypatch):
        # With every linear solve singular the run still completes (it solves
        # no linearization); with every inverse singular too from then on
        # (the run's chord steps invert their Jacobians), the read raises.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        C, H = obstacle_run()
        monkeypatch.setattr(np.linalg, "solve", singular)
        traj = integrate(C, H, 0.01, 50, self.Z0, tangent=self.T6)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SingularJacobian, match="one-step linearization is singular"):
            traj.tangent

    def test_a_singular_condensed_step_raises_on_read(self):
        # One condensed step's D_k = I + hP Hs_k is exactly zero (hP is a
        # multiple of I here, Hess V = hP^-1 at that step); every chord step
        # and every other condensed step is regular.
        C, H = obstacle_run()
        hP, V = geodisc.hamiltonian._step_blocks(C, H, 0.01).condensed[5], H.potential
        assert not np.any(np.eye(3) - hP @ np.linalg.inv(hP))

        def hess(q):  # rows: the condensed linearization; one point: a chord step
            out = V.hess(q)
            if np.ndim(q) == 2:
                out[7] = np.linalg.inv(hP)
            return out

        H = second_order_hamiltonian(3, replace(V, hess=hess))
        traj = integrate(C, H, 0.01, 50, self.Z0, tangent=self.T6)
        with pytest.raises(SingularJacobian, match="one-step linearization is singular"):
            traj.tangent


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

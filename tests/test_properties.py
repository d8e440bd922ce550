"""Structural guarantees of the one-step method as properties, drawn by
hypothesis over the shipped affine maps (and one map without an affine
form), with and without the obstacle potential.  A bound on a state is
stated per column (coordinate), relative to eps and to that column's size.
The energy orders close the file, on fixed drawn starts that pass the disc."""
from dataclasses import replace

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from geodisc.errors import GeodiscError, NonConvergence, SingularPotential
from geodisc.hamiltonian import integrate, obstacle_potential, second_order_hamiltonian, symplectic_step
from geodisc.lifts import canonical_symplectic_matrix, second_order_phase_map
from geodisc.maps import midpoint_map, theta_map

BASES = ["midpoint", "theta:0", "theta:0.3", "theta:0.5", "theta:1", "midpoint without affine"]
AFFINE_BASES = [name for name in BASES if name != "midpoint without affine"]
EPS = float(np.finfo(float).eps)


def base_map(name: str, n: int):
    if name == "midpoint":
        return midpoint_map(n)
    if name == "midpoint without affine":
        return replace(midpoint_map(n), affine=None)
    return theta_map(n, float(name.split(":")[1]))


# The lifted maps and Hamiltonians, built once: a map without an affine form
# is a new object (and a new lift) on every ``replace``.
LIFTS = {(name, n): second_order_phase_map(n, base=base_map(name, n)) for name in BASES for n in (1, 3)}
HAMILTONIANS = {
    (1, False): second_order_hamiltonian(1),
    (3, False): second_order_hamiltonian(3),
    (3, True): second_order_hamiltonian(3, obstacle_potential(1e-3, 1.0, (0.0, 0.0), 3)[0]),
}


def starts_outside_the_disc(n: int, k: int, seed: int) -> np.ndarray:
    """k random starts; for n = 3 the positions sit 0.8 to 2.3 outside the unit disc."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(k, 4 * n)) * 0.3
    if n == 3:
        rho, ang = rng.uniform(1.8, 3.3, size=k), rng.uniform(0.0, 2 * np.pi, size=k)
        Z[:, 0], Z[:, 1] = rho * np.cos(ang), rho * np.sin(ang)
    return Z


def stacked_one_start_calls(C, H, h, Z):
    """What a K-row call must give: the one-start steps stacked, or the
    error of the lowest row whose one-start call raises, as (type, text,
    row), a NonConvergence's text with "of row i" inserted."""
    rows = []
    for i, z0 in enumerate(Z):
        try:
            rows.append(symplectic_step(C, H, h, z0))
        except NonConvergence as exc:
            return NonConvergence, str(exc).replace("one-step solve", f"one-step solve of row {i}", 1), i
        except GeodiscError as exc:
            return type(exc), str(exc), None
    return np.array(rows)


@hyp.given(
    base=st.sampled_from(BASES),
    case=st.sampled_from([(1, False), (3, False), (3, True)]),
    h=st.sampled_from([0.01, 0.05, 0.1]),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Row 2 of these stalls at residual 1.242e-12 against its floor 1e-12 (the chord iteration on the map without an
# affine form), so the rows raise its error.
@hyp.example(base="midpoint without affine", case=(3, True), h=0.1, k=6, seed=128397)
def test_rows_of_symplectic_step_are_stacked_one_start_calls(base, case, h, k, seed):
    # Each row keeps the bits of its one-start call: on an affine map a row
    # whose window verifies by the shared kernel, a failed one (and every
    # row without an affine form) by being such a call; a failing row
    # raises its one-start error.
    n = case[0]
    C, H = LIFTS[base, n], HAMILTONIANS[case]
    Z = starts_outside_the_disc(n, k, seed)
    expected = stacked_one_start_calls(C, H, h, Z)
    try:
        rows = symplectic_step(C, H, h, Z)
    except GeodiscError as exc:
        assert isinstance(expected, tuple) and (type(exc), str(exc), getattr(exc, "row", None)) == expected
    else:
        assert not isinstance(expected, tuple) and np.array_equal(rows, expected)


def adjoint_lift(base: str, n: int):
    """The lifted map whose step at -h undoes a step of ``base``'s at h: the
    (1 - theta) map's for theta, the midpoint map's own for the midpoint."""
    if base.startswith("theta:"):
        return second_order_phase_map(n, base=theta_map(n, 1.0 - float(base.split(":")[1])))
    return LIFTS[base, n]


@hyp.given(
    base=st.sampled_from(AFFINE_BASES),
    case=st.sampled_from([(1, False), (3, False), (3, True)]),
    h=st.sampled_from([0.01, 0.05, 0.1]),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_step_back_by_the_adjoint_map_returns_to_the_start(base, case, h, k, seed):
    # GNI II.3: the adjoint of the theta step is the (1 - theta) step, so a
    # step at h followed by the adjoint's step at -h is the identity, to
    # rounding: each column within 8 eps of its size over the starts and
    # the steps' ends (3.4 eps at most over 67 500 draws).
    n = case[0]
    H = HAMILTONIANS[case]
    Z = starts_outside_the_disc(n, k, seed)
    Z1 = symplectic_step(LIFTS[base, n], H, h, Z)
    back = symplectic_step(adjoint_lift(base, n), H, -h, Z1)
    size = np.maximum(np.abs(Z), np.abs(Z1)).max(axis=0)
    assert np.all(np.abs(back - Z).max(axis=0) <= 8 * EPS * size), np.abs(back - Z).max(axis=0) / (EPS * size)


@hyp.given(
    base=st.sampled_from(AFFINE_BASES),
    case=st.sampled_from([(1, False), (3, False), (3, True)]),
    h=st.sampled_from([0.01, 0.05, 0.1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_run_conserves_the_momentum_of_a_coordinate_the_potential_does_not_read(base, case, h, seed):
    # p0 is the momentum conjugate to q, and p0' = grad V(q): without a
    # potential every p0 is conserved, and the point obstacle reads (x, y)
    # only, so p0_theta is conserved beside it.  Over a 100-step run each
    # such column stays within 8 eps of its size over the run.
    n, potential = case
    z0 = starts_outside_the_disc(n, 1, seed)[0]
    try:
        traj = integrate(LIFTS[base, n], HAMILTONIANS[case], h, 100, z0)
    except (SingularPotential, NonConvergence):
        # The run reached the disc, where a step raises or, as for theta = 0.3,
        # h = 0.1 and seed 68329 at step 51, stalls: no run to check.
        hyp.reject()
    p0 = traj.z[:, 3 * n - 1 : 3 * n] if potential else traj.z[:, 2 * n : 3 * n]
    drift, size = np.abs(p0 - p0[0]).max(axis=0), np.abs(p0).max(axis=0)
    assert np.all(drift <= 8 * EPS * size), drift / (EPS * size)


# ---------------------------------------------------------------------------
# energy orders: backward error analysis as the oracle (GNI, 2nd ed., ch. IX)

PASSING_H = second_order_hamiltonian(3, obstacle_potential(0.05, 1.0, (0.0, 0.0), 3)[0])


def modified_energy(H, h, z):
    """H - (h^2 / 24) H''(f, f) at each row of z, f = J grad H: the modified
    Hamiltonian that the midpoint step conserves to O(h^4), H'' being S0
    less Hess V on the q block."""
    n = H.dim // 2
    grad, hess = z @ H.S0, np.broadcast_to(H.S0, z.shape[:-1] + H.S0.shape).copy()
    if H.potential is not None:
        grad[..., :n] -= H.potential.grad(z[..., :n])
        hess[..., :n, :n] -= H.potential.hess(z[..., :n])
    f = grad @ canonical_symplectic_matrix(H.dim).T
    return H.values(z) - h * h / 24.0 * np.einsum("...i,...ij,...j->...", f, hess, f)


def starts_passing_the_disc(k: int, seed: int) -> np.ndarray:
    """k starts at x = -2, y in [-1.6, -1.3], moving along +x at unit speed with
    small other velocities and momenta: over T = 4 they pass under the unit
    disc, where the potential bends the path, at squared clearance 0.49 or
    more for seed 20."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(k, 12)) * 0.05
    Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3] = -2.0, rng.uniform(-1.6, -1.3, size=k), rng.uniform(-1.0, 1.0, size=k), 1.0
    return Z


def energy_orders(base: str, energy) -> np.ndarray:
    """Per start, the observed orders of max_k |E(z_k) - E(z_0)| over h = 0.05
    -> 0.025 -> 0.0125 on T = 4 runs, E = energy(h, z); a run that reached
    the disc would raise SingularPotential."""
    def error(h: float, z0: np.ndarray) -> float:
        E = energy(h, integrate(LIFTS[base, 3], PASSING_H, h, int(round(4.0 / h)), z0).z)
        return np.max(np.abs(E - E[0]))

    errors = np.array([[error(h, z0) for z0 in starts_passing_the_disc(4, 20)] for h in (0.05, 0.025, 0.0125)])
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("base", ["midpoint", "theta:0.5"])
def test_the_symmetric_step_conserves_the_modified_energy_to_fourth_order(base):
    # H itself drifts at order 2, and H - (h^2/24) H''(f, f) at order 4
    # (3.99 at least on these starts): a wrong sign or a wrong step shows.
    plain = energy_orders(base, lambda h, z: PASSING_H.values(z))
    assert np.all(np.abs(plain - 2.0) <= 0.1), plain
    modified = energy_orders(base, lambda h, z: modified_energy(PASSING_H, h, z))
    assert np.all(modified >= 3.9), modified


@pytest.mark.parametrize("base", ["theta:0", "theta:0.3", "theta:1"])
def test_a_theta_step_off_one_half_conserves_energy_to_first_order(base):
    # The theta != 1/2 steps are first order methods: their energy error halves with h.
    orders = energy_orders(base, lambda h, z: PASSING_H.values(z))
    assert np.all(np.abs(orders - 1.0) <= 0.1), orders

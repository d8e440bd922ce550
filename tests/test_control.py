import numpy as np
import pytest

from curve_oracles import fourth_order_residual
from geodisc import control, hamiltonian
from geodisc.control import (
    OCProblem,
    ShootingResult,
    grid_steps,
    hermite_costates,
    make_free_spline,
    make_obstacle_problem,
    obstacle_potential,
    running_cost,
    shoot,
    simulate,
)
from geodisc.errors import (
    BadDiscretization,
    ObstaclePenetration,
    SingularPotential,
    StartInsideObstacle,
)
from geodisc.hamiltonian import Potential, Trajectory, integrate, second_order_hamiltonian
from geodisc.lifts import second_order_phase_map
from geodisc.numeric import jacobian_fd, newton_solve

UNIT_FREE = dict(n=1, boundary=([0.0], [0.0], [1.0], [0.0]), T=1.0, h=0.01)


@pytest.fixture(scope="module")
def unit_shot():
    return shoot(make_free_spline(**UNIT_FREE))


class TestGridSteps:
    def test_divisible(self):
        assert grid_steps(1.0, 0.01) == 100
        assert grid_steps(4.0, 0.5) == 8

    def test_rounding_slack(self):
        assert grid_steps(0.1 + 0.2, 0.1) == 3  # 0.30000000000000004

    @pytest.mark.parametrize(
        "T,h",
        [(1.0, 0.03), (1.0, -0.1), (-1.0, 0.1), (0.0, 0.1), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)],
    )
    def test_rejects(self, T, h):
        with pytest.raises(BadDiscretization):
            grid_steps(T, h)


class TestObstaclePotential:
    def test_known_values(self):
        V, clear = obstacle_potential(1.0, 1.0, (0.0, 0.0), 3)
        q = np.array([2.0, 0.0, 0.0])
        assert clear(q) == pytest.approx(3.0)
        assert V.value(q) == pytest.approx(1.0 / 3.0)
        assert np.allclose(V.grad(q), [-4.0 / 9.0, 0.0, 0.0])

    def test_scales_with_tau(self):
        V, _ = obstacle_potential(1e-20, 1.0, (0.0, 0.0), 2)
        assert V.value(np.array([2.0, 0.0])) == pytest.approx(1e-20 / 3.0)

    def test_gradient_matches_fd(self):
        from geodisc.numeric import jacobian_fd

        V, _ = obstacle_potential(0.7, 1.2, (0.3, -0.4), 3)
        q = np.array([2.0, 1.5, 0.3])
        fd = jacobian_fd(lambda X: np.array([[V.value(x)] for x in X]), q)[0]
        assert np.allclose(V.grad(q), fd, atol=1e-7)

    @pytest.mark.parametrize("q", [[2.0, 1.5, 0.3], [0.3, -1.9, -2.0], [-1.1, 0.9, 0.0]])
    def test_hessian_matches_fd_of_gradient(self, q):
        from geodisc.numeric import jacobian_fd

        V, _ = obstacle_potential(0.7, 1.2, (0.3, -0.4), 3)
        hV = V.hess
        q = np.array(q)
        fd = jacobian_fd(V.grad, q)
        assert np.array_equal(hV(q), hV(q).T)
        assert np.allclose(hV(q), fd, rtol=1e-7, atol=1e-9 * np.max(np.abs(fd)))
        assert not np.any(hV(q)[2:]) and not np.any(hV(q)[:, 2:])

    def test_raises_inside_before_reporting(self):
        V, clear = obstacle_potential(1.0, 1.0, (0.0, 0.0), 2)
        inside = np.array([0.5, 0.0])
        assert clear(inside) < 0  # plain clearance just reports
        for f in (V.value, V.grad, V.hess):
            with pytest.raises(SingularPotential):
                f(inside)

    def test_zero_tau_still_guards_interior(self):
        V, _ = obstacle_potential(0.0, 1.0, (0.0, 0.0), 2)
        assert V.value(np.array([5.0, 0.0])) == 0.0
        with pytest.raises(SingularPotential):
            V.value(np.array([0.0, 0.0]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            obstacle_potential(1.0, 1.0, (0.0, 0.0), 1)
        with pytest.raises(ValueError):
            obstacle_potential(1.0, -1.0, (0.0, 0.0), 2)
        with pytest.raises(ValueError):
            obstacle_potential(1.0, 1.0, (0.0, 0.0, 0.0), 2)


class TestProblemConstruction:
    def test_free_spline_fields(self):
        prob = make_free_spline(**UNIT_FREE)
        assert prob.potential is None
        assert prob.steps == 100

    def test_bad_grid_propagates(self):
        with pytest.raises(BadDiscretization):
            make_free_spline(1, ([0.0], [0.0], [1.0], [0.0]), T=1.0, h=0.3)

    @pytest.mark.parametrize("v, T, h", [(0.0, 1e-300, 1e-301), (1e308, 1.0, 0.5)], ids=["T", "v"])
    def test_overflowing_cubic_guess_is_bad_discretization(self, v, T, h):
        with pytest.raises(BadDiscretization, match=r"q0=\[0.0\], v0=\[.*\], q1=\[1.0\], v1=\[.*\] and T="):
            make_free_spline(1, ([0.0], [v], [1.0], [v]), T=T, h=h)

    def test_boundary_size_checked(self):
        with pytest.raises(ValueError):
            make_free_spline(2, ([0.0], [0.0], [1.0], [0.0]), T=1.0, h=0.1)

    def test_start_inside_obstacle(self):
        boundary = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(StartInsideObstacle):
            make_obstacle_problem(3, 1.0, 1.0, (0.0, 0.0), boundary, T=1.0, h=0.1)
        with pytest.raises(StartInsideObstacle):
            make_obstacle_problem(
                3, 1.0, 1.0, (0.0, 0.0), (boundary[2], boundary[1], boundary[0], boundary[3]), T=1.0, h=0.1
            )

    def test_obstacle_hamiltonian_value(self):
        boundary = ([2.0, 0.0, 0.0], [0.0] * 3, [3.0, 0.0, 0.0], [0.0] * 3)
        prob = make_obstacle_problem(3, 1.0, 1.0, (0.0, 0.0), boundary, T=1.0, h=0.1)
        H = second_order_hamiltonian(3, prob.potential)
        x = np.concatenate([prob.q_start, np.zeros(6), [1.0, 0.0, 0.0]])
        assert H.values(x) == pytest.approx(0.5 - 1.0 / 3.0)


class TestHermiteCostates:
    def test_unit_displacement(self):
        p0, p1 = hermite_costates([0.0], [0.0], [1.0], [0.0], 1.0)
        assert np.allclose(p0, [12.0]) and np.allclose(p1, [6.0])

    def test_reads_off_cubic_coefficients(self, rng):
        a, b, c, e = rng.normal(size=(4, 2))
        T = 1.7
        q1 = a + b * T + c * T**2 / 2 + e * T**3 / 6
        v1 = b + c * T + e * T**2 / 2
        p0, p1 = hermite_costates(a, b, q1, v1, T)
        assert np.allclose(p1, c, atol=1e-10)
        assert np.allclose(p0, -e, atol=1e-10)


class TestRunningCost:
    @staticmethod
    def two_state_traj():
        z = np.array([[0.0, 0.0, 0.0, u] for u in (2.0, 0.0)])  # u = p1
        return Trajectory(h=0.1, z=z, energies=np.zeros(2))

    def test_left_rule(self):
        assert running_cost(self.two_state_traj()) == pytest.approx(0.2)

    def test_potential_term(self):
        traj = self.two_state_traj()
        assert running_cost(traj, Potential(lambda q: 1.0, None, None)) == pytest.approx(0.3)
        assert running_cost(traj, Potential(lambda q: np.array([1.0, 5.0]), None, None)) == pytest.approx(0.3)

    def test_matches_per_state_loop(self, rng):
        # Row sums of u*u may round apart from u @ u: three positive terms
        # per row, so a few eps relative.
        V, _ = obstacle_potential(1e-3, 1.0, (0.0, 0.0), 3)
        z = rng.normal(size=(50, 12))
        z[:, 0] = rng.uniform(2.0, 3.0, size=50)  # outside the unit disc
        traj = Trajectory(h=0.01, z=z, energies=np.zeros(50))
        vals = [0.5 * float(s[9:] @ s[9:]) + float(V.value(s[:3])) for s in traj.z]
        assert running_cost(traj, V) == pytest.approx(0.01 * np.sum(vals[:-1]), rel=8 * np.finfo(float).eps, abs=0.0)


class TestFreeSplineShooting:
    def test_default_guess_is_exact(self, unit_shot):
        res = unit_shot
        assert res.converged
        assert res.defect <= 1e-10
        assert abs(res.p0[0] - 12.0) / 12.0 < 0.02
        assert abs(res.p1[0] - 6.0) / 6.0 < 0.02
        assert abs(res.cost - 6.0) / 6.0 < 0.01

    def test_zero_guess_converges_to_same_solution(self, unit_shot):
        res = shoot(make_free_spline(**UNIT_FREE), guess=(np.zeros(1), np.zeros(1)))
        assert res.converged and res.defect <= 1e-10
        assert np.allclose(res.p0, unit_shot.p0, atol=1e-8)
        assert np.allclose(res.p1, unit_shot.p1, atol=1e-8)

    def test_discrete_curve_is_nearly_cubic(self, unit_shot):
        assert np.max(fourth_order_residual(unit_shot.trajectory.positions(), unit_shot.trajectory.h)) < 1e-5

    def test_rest_problem_costs_nothing(self):
        prob = make_free_spline(1, ([0.0], [0.0], [0.0], [0.0]), T=1.0, h=0.1)
        res = shoot(prob)
        assert res.converged and res.cost == 0.0
        assert np.all(res.trajectory.z == 0.0)

    def test_cost_refines_quadratically(self):
        costs = []
        for h in (0.1, 0.05, 0.025):
            costs.append(shoot(make_free_spline(1, UNIT_FREE["boundary"], 1.0, h)).cost)
        gaps = np.diff([c - 6.0 for c in costs])
        assert costs[0] > costs[1] > costs[2] > 6.0
        ratio = (costs[0] - 6.0) / (costs[1] - 6.0)
        assert ratio == pytest.approx(4.0, rel=0.2)
        assert (costs[1] - 6.0) / (costs[2] - 6.0) == pytest.approx(4.0, rel=0.2)
        assert np.all(gaps < 0)

    def test_deterministic_rerun(self, unit_shot):
        again = shoot(make_free_spline(**UNIT_FREE))
        assert np.array_equal(again.p0, unit_shot.p0)
        assert again.cost == unit_shot.cost
        assert np.array_equal(again.trajectory.z, unit_shot.trajectory.z)


class TestObstacleShooting:
    BOUNDARY = ([-2.0, -1.2, 0.0], [1.0, 0.0, 0.0], [2.0, -1.2, 0.0], [1.0, 0.0, 0.0])

    def test_skirts_the_obstacle(self):
        prob = make_obstacle_problem(3, 1e-3, 1.0, (0.0, 0.0), self.BOUNDARY, T=4.0, h=0.05)
        res = shoot(prob)
        assert res.converged and res.defect <= 1e-10
        clearances = [prob.clearance(q) for q in res.trajectory.positions()]
        assert min(clearances) > 0.0
        assert len(res.trajectory.z) == prob.steps + 1

    def test_exact_sensitivities_match_finite_differences(self, monkeypatch):
        # At the benchmark's step h = 0.01 Newton takes two iterations: one
        # integration each plus the starting one, and the result reuses the
        # last.  Finite-difference sensitivities took 28.
        prob = make_obstacle_problem(3, 1e-3, 1.0, (0.0, 0.0), self.BOUNDARY, T=4.0, h=0.01)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("tangent") is not None)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(control, "integrate", counted)
        res = shoot(prob)
        assert calls == [True, True, True]
        assert res.converged and res.defect <= 1e-10

        C, H = second_order_phase_map(3), second_order_hamiltonian(3, prob.potential)

        def endpoint_defect(x):
            end = integrate(C, H, prob.h, prob.steps, np.concatenate([prob.q_start, prob.qdot_start, x])).z[-1]
            return np.concatenate([end[:3] - prob.q_end, end[3:6] - prob.qdot_end])

        x0 = np.concatenate(hermite_costates(prob.q_start, prob.qdot_start, prob.q_end, prob.qdot_end, prob.T))
        fd = lambda x: jacobian_fd(lambda X: np.array([endpoint_defect(y) for y in X]), x)
        reference, _ = newton_solve(endpoint_defect, x0, jacobian=fd, tol=1e-10, max_iter=40, backtracking=True)
        assert np.max(np.abs(np.concatenate([res.p0, res.p1]) - reference)) <= 1e-12

    def test_step_blocks_are_built_once_per_problem(self, monkeypatch, clear_memos):
        # At y0 = y1 = -1.12 Newton takes three iterations: four integrations
        # look up the one set of step blocks, and no tangent is carried for
        # the converged trial, which Newton never linearizes.
        built = []
        init = hamiltonian._StepBlocks.__init__
        monkeypatch.setattr(hamiltonian._StepBlocks, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        trials = []

        def recorded(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            trials.append(traj)
            return traj

        monkeypatch.setattr(control, "integrate", recorded)
        boundary = ([-2.0, -1.12, 0.0], [1.0, 0.0, 0.0], [2.0, -1.12, 0.0], [1.0, 0.0, 0.0])
        res = shoot(make_obstacle_problem(3, 1e-3, 1.0, (0.0, 0.0), boundary, T=4.0, h=0.01))
        assert res.converged and len(trials) == 4 and len(built) == 1
        # A tangent once read is cached in the trajectory's own attributes.
        assert ["tangent" in vars(t) for t in trials] == [True, True, True, False]

    def test_guess_of_the_wrong_size_is_refused(self):
        prob = make_free_spline(1, ([0.0], [0.0], [1.0], [0.0]), T=1.0, h=0.1)
        with pytest.raises(ValueError, match="^costate guess must have 2 entries$"):
            shoot(prob, guess=(np.zeros(1), np.zeros(2)))

    def test_guess_through_obstacle_raises(self):
        boundary = ([-2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        prob = make_obstacle_problem(3, 1e-3, 1.0, (0.0, 0.0), boundary, T=4.0, h=0.5)
        with pytest.raises(ObstaclePenetration):
            shoot(prob, guess=(np.zeros(3), np.zeros(3)))


class TestSE2Experiment:
    INIT = np.array([-2.0, -1.5, 0.0, 1.0, 0.0, 0.05, 0.0, 0.02, 0.0, 0.0, 0.1, -0.05])

    @staticmethod
    def run(init=INIT, steps=50, tau=1e-20):
        return simulate(3, 0.01, steps, init, obstacle=(tau, 1.0, np.zeros(2)))

    def test_short_run(self):
        report = self.run()
        assert len(report.trajectory.z) == 51
        assert report.min_clearance > 0.0
        assert report.h_drift <= 1e-12

    def test_resting_body_stays_put(self):
        init = np.zeros(12)
        init[:3] = [-2.0, -1.5, 0.0]
        # tau = 0 makes the rest state an exact fixed point; a tiny tau only
        # an approximate one.
        exact = self.run(init, steps=20, tau=0.0)
        assert np.all(exact.trajectory.z == init)
        nudged = self.run(init, steps=20)
        assert np.max(np.abs(nudged.trajectory.z[-1] - init)) < 1e-15

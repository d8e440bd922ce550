"""Geometric integrators from discretization maps.

A discretization map turns a point-with-velocity into a pair of nearby points;
its cotangent lift is a symplectomorphism and therefore generates implicit
symplectic one-step methods.  This package builds those maps (Euclidean,
sphere, SE(2)), lifts them to higher-order tangent bundles and to cotangent
bundles, and applies them to acceleration-controlled optimal control problems
(free splines, obstacle avoidance, a planar rigid body).
"""

from .errors import (
    BadDiscretization,
    ConfigError,
    DomainViolation,
    EvaluationFailure,
    GeodiscError,
    NonConvergence,
    ObstaclePenetration,
    SingularJacobian,
    SingularPotential,
    StartInsideObstacle,
    TooFewPoints,
    UnsupportedOrder,
)
from .numeric import MAX_TAYLOR_ORDER, TaylorScalar, fd_weights, jacobian_fd, newton_solve, taylor_derivatives
from .jets import (
    Jet,
    JetTangent,
    directional_second_derivative,
    jet_of_curve,
    jet_pushforward,
    unzip_jet_tangent,
    zip_jet_tangent,
)
from .maps import (
    AxiomReport,
    DiscretizationMap,
    midpoint_map,
    se2_exp,
    se2_exp_map,
    se2_log,
    sphere_geodesic_midpoint_map,
    sphere_initial_point_map,
    theta_map,
    verify_discretization_axioms,
)
from .lifts import (
    CotangentLiftedMap,
    HigherOrderDiscretizationMap,
    SymplectomorphismReport,
    canonical_symplectic_matrix,
    check_symplectomorphism,
    cotangent_lift,
    higher_order_lift,
    second_order_phase_map,
)
from .hamiltonian import (
    HamiltonianSystem,
    Trajectory,
    integrate,
    second_order_hamiltonian,
    symplectic_step,
)
from .control import (
    OCProblem,
    ShootingResult,
    SimulationReport,
    cost_of,
    hermite_costates,
    make_free_spline,
    make_obstacle_problem,
    obstacle_potential,
    running_cost,
    shoot,
    simulate,
)
from .checks import CheckResult, fourth_order_residual, midpoint_cotangent_closed_form, run_all

__version__ = "0.1.0"

"""Geometric integrators from discretization maps.

A discretization map turns a point-with-velocity into a pair of nearby points;
its cotangent lift is a symplectomorphism and therefore generates implicit
symplectic one-step methods.  This package builds those maps (Euclidean,
sphere, SE(2)), lifts them to higher-order tangent bundles and to cotangent
bundles, and applies them to acceleration-controlled optimal control problems
(free splines, obstacle avoidance, a planar rigid body).  The API lives in
the submodules: ``geodisc.maps``, ``geodisc.jets``, ``geodisc.lifts``,
``geodisc.hamiltonian``, ``geodisc.control``, ``geodisc.checks``,
``geodisc.numeric``, ``geodisc.artifacts``, ``geodisc.cli`` and
``geodisc.errors``.
"""

__version__ = "0.1.0"

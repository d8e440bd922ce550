"""Exception types shared across the package.

Every error raised on purpose by geodisc derives from :class:`GeodiscError`,
so callers (and the CLI) can distinguish domain failures from plain bugs.
"""


class GeodiscError(Exception):
    """Base class for all geodisc errors."""


class NonConvergence(GeodiscError):
    """An iterative solve hit its iteration cap before reaching tolerance.

    Carries the best iterate seen so far and its residual norm so callers can
    degrade gracefully instead of losing the partial result, and the index
    of the failed row of a ``symplectic_step`` on rows (else None).
    """

    def __init__(self, message, x_best=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.x_best = x_best
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.row = None


class SingularJacobian(GeodiscError):
    """A linear solve against a (numerically) singular matrix was requested."""


class EvaluationFailure(GeodiscError):
    """A user-supplied callable raised while being probed."""


class UnsupportedOrder(GeodiscError):
    """A derivative or jet order outside the supported range was requested."""


class DomainViolation(GeodiscError):
    """Input lies outside the validity domain of a map (off-manifold point,
    non-tangent vector, log branch, antipodal pair, ...)."""


class BadDiscretization(GeodiscError):
    """Time grid parameters are inconsistent (T not an integer multiple of
    h) or give the boundary data a non-finite cubic guess."""


class StartInsideObstacle(GeodiscError):
    """A boundary point of an obstacle problem lies inside the obstacle."""


class ObstaclePenetration(GeodiscError):
    """A shooting trial produced a trajectory that entered the obstacle."""


class SingularPotential(GeodiscError):
    """The obstacle potential was evaluated on (or numerically on top of) the
    singular circle."""


class ConfigError(GeodiscError):
    """Command line / config file contents do not form a valid experiment."""

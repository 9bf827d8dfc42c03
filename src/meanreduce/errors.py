"""Exception hierarchy shared by all modules."""


class MeansError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(MeansError, ValueError):
    """Arity, dimension, or domain mismatch in an operation's inputs."""


class DomainError(MeansError, ValueError):
    """A computed value escaped the domain or range of a supplied function."""


class InvalidDeviationError(MeansError):
    """A supplied deviation function violates its axioms (detected by sampling
    or during bracketing)."""


class InvalidPotentialError(MeansError):
    """A supplied potential violates the convexity/zero-gradient property."""


class HullViolationError(MeansError, ValueError):
    """A point that must lie in the convex hull of the data does not."""


class NotAMeanError(MeansError):
    """A function presented as a mean violates the mean property."""


class InvalidSamplerError(MeansError, ValueError):
    """A domain sampler produced points outside the declared domain."""


class ReductionMismatchError(MeansError):
    """A mean reduced by selection disagrees with its reduction by the fixed
    point at a recorded witness."""


class NoConvergenceError(MeansError):
    """An iterative solve exhausted its iteration budget.

    Raised only by operations that must return a bare value; solvers that
    return a report emit ``converged=False`` instead.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ExpressionError(MeansError, ValueError):
    """Malformed expression text or evaluation failure in the expression
    grammar."""

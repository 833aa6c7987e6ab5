"""Exception hierarchy shared by the whole package.

Two branches matter to callers.  ValidationError means the inputs were
rejected before any numerics ran.  NumericalError means a computation
ran but produced something that cannot be trusted.  The command line
tool maps the branches to exit codes 1 and 2.
"""


class HHalfError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HHalfError, ValueError):
    """Input rejected before any numerical work started."""


class GridError(ValidationError):
    """Sample grid too small, or a sample array that does not fit it."""


class MonotonicityError(ValidationError):
    """A circle map lift is not strictly increasing."""


class NumericalError(HHalfError, ArithmeticError):
    """A computation completed but its output is unreliable."""


class AliasingError(NumericalError):
    """Requested grid cannot resolve the spectrum of a composition."""


class ConditioningError(NumericalError):
    """A linear solve hit an unacceptable condition number."""

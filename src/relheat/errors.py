"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Argument outside the supported domain."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the partial value and the residual estimate so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, value=None, residual=None):
        super().__init__(message)
        self.value = value
        self.residual = residual


class SingularityError(ValueError):
    """Evaluation requested exactly at a non-integrable singularity."""


class StepTooLargeError(RuntimeError):
    """Tempering acceptance rate below the configured floor; use smaller dt."""


class StaleTableError(RuntimeError):
    """Kernel table was built for a different m*t product."""


class BudgetError(ValueError):
    """Sample budget too small for a meaningful estimate."""

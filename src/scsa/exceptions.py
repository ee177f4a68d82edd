"""Exception hierarchy shared across the package."""


class ScsaError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateModelError(ScsaError):
    """A matrix that must be invertible is singular or too ill-conditioned."""


class InsufficientDataError(ScsaError):
    """Fewer samples than the model order allows."""


class StabilityError(ScsaError):
    """An MVAR model whose companion matrix has spectral radius >= 1 (or above
    the configured margin) was passed where a stable model is required."""


class NumericError(ScsaError):
    """A nonfinite value appeared in a numerical computation."""


class StagnationError(ScsaError):
    """Line search could not find a step with sufficient decrease.

    Carries the last iterate and trace so callers can fall back to it.
    """

    def __init__(self, message, x=None, trace=None):
        super().__init__(message)
        self.x = x
        self.trace = trace


class SamplingError(ScsaError):
    """Rejection sampling exceeded its retry budget."""


class PartitionError(ScsaError):
    """A cross-validation fold is too short for the requested model order."""


class IllPosedError(ScsaError):
    """No model could be fitted: every candidate order of BIC failed."""

"""Exception types shared across the package."""


class RejectedInputError(ValueError):
    """An argument violates a documented precondition (domain, shape, range)."""


class _TracedError(RuntimeError):
    """A failed fit or search, with the trace of what it evaluated."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class ConvergenceError(_TracedError):
    """An iterative fit diverged; `trace` holds its objective values."""


class CalibrationError(_TracedError):
    """Noise-scale calibration could not bracket or hit the target radius."""


class UnboundedRadiusError(_TracedError):
    """A radius solver reached the top of its grid without an answer."""


class UnsupportedConfigurationError(ValueError):
    """A configuration is outside what this implementation supports."""

"""The package's two failures: a refused input (CLI exit 2) and a solve
that finds no answer (CLI exit 3)."""


class RejectedInputError(ValueError):
    """An input or configuration the package refuses: a violated
    precondition (domain, shape, range) or a case it does not support."""


class SolveError(RuntimeError):
    """A fit or search that found no answer: a diverged fit, a calibration
    that missed its target, a radius solver that ran off its grid.  `trace`
    holds what it evaluated."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []

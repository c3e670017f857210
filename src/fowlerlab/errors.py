"""Exception types shared across the package."""


class FowlerLabError(Exception):
    """Base class for all package errors."""


class DomainError(FowlerLabError):
    """Input outside the mathematical domain of an operation."""


class NoPositiveSolution(FowlerLabError):
    """The coupling (or equilibrium) algebraic system has no positive root."""


class ConvergenceFailure(FowlerLabError):
    """A solver's result missed its residual tolerance."""


class InsufficientWindow(FowlerLabError):
    """Trajectory does not cover enough of the time axis for the request."""


class BracketFailure(FowlerLabError):
    """Shooting could not bracket (or verify) the decay/loss dichotomy."""


class SamplerDegenerate(FowlerLabError):
    """Sampler could not produce an admissible draw."""


class SchemaMismatch(FowlerLabError):
    """Artifact failed schema validation or carries the wrong version."""

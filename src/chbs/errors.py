"""Exception types shared across the solver."""


class ChbsError(Exception):
    """Base class for all solver errors."""


class IterationFailure(ChbsError):
    """The log-graph resolvent iteration missed its residual tolerance.

    Only that Newton loop raises it (the other resolvents are closed
    forms).  Its scalar problem is strictly monotone, so hitting this
    indicates a bug or a non-finite or huge evaluation point, not a user
    error.
    """


class OutOfDomain(ChbsError):
    """A point lies outside the effective domain of a monotone graph."""


class DegenerateElement(ChbsError):
    """A mesh triangle has (numerically) vanishing area."""


class LinSolveFailure(ChbsError):
    """A linear solve exceeded its relative residual tolerance."""


class NotZeroMean(ChbsError):
    """An input that must have zero mean does not."""


class NewtonFailure(ChbsError):
    """The nonlinear step solver stagnated.

    Carries the last residual norm in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ValidationFailure(ChbsError):
    """Problem data violates one or more admissibility assumptions."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class MeanMismatch(ChbsError):
    """Paired runs do not share the mean values required for comparison."""


class GridMismatch(ChbsError):
    """Two trajectories are not nested in time or do not share a mesh."""


class OutOfRange(ChbsError):
    """A query time lies outside the trajectory's time interval."""


class ParseError(ChbsError):
    """A config or mesh file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownKey(ParseError):
    """A config file contains a key the parser does not know."""

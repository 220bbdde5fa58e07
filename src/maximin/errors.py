"""Exception types shared across the package.

Every failure mode callers are expected to branch on gets its own class;
the command line maps them to stable exit codes.
"""


class EstimationError(Exception):
    """Base class for all library-specific failures."""


class DimensionError(EstimationError):
    """Inputs have inconsistent or unusable shapes.

    ``groups`` holds the indices of the groups at fault when the error
    is about particular groups, such as two that share a label.
    """

    def __init__(self, message, groups=()):
        super().__init__(message)
        self.groups = tuple(groups)


class CsvFormatError(EstimationError):
    """A CSV input could not be parsed.

    ``line`` and ``column`` locate the offending cell when known. Either
    may be None for structural problems such as a missing header column
    or unequal group sizes.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SingularFitError(EstimationError):
    """A per-group least-squares system is singular. Names the group."""

    def __init__(self, message, group=None):
        super().__init__(message)
        self.group = group


class DefinitenessError(EstimationError):
    """A matrix required to be symmetric positive definite is not."""


class ConvergenceError(EstimationError):
    """A simplex QP has no solution: its B^T Sigma B is not finite, or the
    lockstep active-set loop left it unsolved (at its cap of 100 G face
    solves). stacked_maximin keeps one per refused program as a value;
    maximin_point and contains_relaxed raise it."""


class DegenerateGeometryError(EstimationError):
    """The maximin configuration sits at a non-differentiable point."""


class RankError(EstimationError):
    """A difference matrix that must have full column rank does not."""


class ConditioningError(EstimationError):
    """A covariance is too ill-conditioned to invert safely.

    ``eigenvalues`` carries the sorted spectrum for diagnostics.
    """

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class BudgetError(EstimationError):
    """A size or enumeration budget would be exceeded."""

"""Exception types shared across the package."""


class CovdecompError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CovdecompError):
    """A matrix required to be positive definite is not."""


class DimensionMismatch(CovdecompError):
    """Operands have incompatible dimensions."""


class PreconditionViolated(CovdecompError):
    """Caller-supplied inputs violate a documented precondition."""


class SingularSubmatrix(CovdecompError):
    """A Hessian submatrix that must be inverted is numerically singular."""


class EmptyTruthSupport(CovdecompError):
    """Normalization requested against a truth matrix with empty support."""


class InfeasibleConstraints(CovdecompError):
    """No step length keeps a solver iterate positive definite."""


class NonPositiveDiagonal(CovdecompError):
    """A precision matrix has a nonpositive diagonal entry."""


class MessagePrecisionNonpositive(CovdecompError):
    """A belief propagation message drove a conditioning precision to
    zero or below; the surrounding run records itself as diverged."""


class MalformedCsv(CovdecompError):
    """A CSV file is empty, ragged, or otherwise unparseable."""


class NonNumericCell(MalformedCsv):
    """A CSV data cell failed numeric conversion.

    Coordinates in the message are 1-based file coordinates (the header
    counts as row 1); ``row`` and ``col`` attributes hold the 0-based
    data-matrix indices.
    """

    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            "non-numeric cell %r at file row %d, column %d" % (value, row + 2, col + 1)
        )

"""Exception types shared across the package."""


class CovdecompError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(CovdecompError):
    """A matrix required to be positive definite is not."""


class DimensionMismatch(CovdecompError, ValueError):
    """Operands have incompatible dimensions."""


class MalformedMatrix(CovdecompError, ValueError):
    """A matrix or vector is empty, has a non-finite entry, or a matrix is
    not exactly symmetric."""


class PreconditionViolated(CovdecompError, ValueError):
    """Caller-supplied inputs violate a documented precondition."""


class SingularSubmatrix(CovdecompError):
    """A Hessian submatrix that must be inverted is numerically singular."""


class EmptyTruthSupport(CovdecompError):
    """Normalization requested against a truth matrix with empty support."""


class InfeasibleConstraints(CovdecompError):
    """No step length keeps a solver iterate positive definite."""


class NonPositiveDiagonal(CovdecompError):
    """A precision matrix has a nonpositive diagonal entry."""


class MalformedCsv(CovdecompError):
    """A CSV file is empty, ragged, or otherwise unparseable."""


class NonNumericCell(MalformedCsv):
    """A CSV data cell failed numeric conversion.

    Coordinates in the message are 1-based file coordinates counting the
    ``header_rows`` above the data; ``row`` and ``col`` attributes hold
    the 0-based data-matrix indices.
    """

    def __init__(self, path, row, col, value, header_rows):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            "%s: non-numeric cell %r at file row %d, column %d"
            % (path, value, row + header_rows + 1, col + 1)
        )

"""Dense symmetric matrix kernel.

Everything downstream (models, solver, diagnostics) moves data around as
``SymmetricMatrix`` instances or plain ndarrays; the helpers here are the
only linear-algebra primitives the package needs.
"""

import csv

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite


class SymmetricMatrix:
    """Immutable dense symmetric p x p matrix.

    Parameters
    ----------
    entries : array-like of shape (p, p)
        Matrix entries. Must be exactly symmetric unless ``symmetrize``
        is set, and must contain only finite values.
    symmetrize : bool, default False
        Replace the input with (A + A.T)/2. Intended for data read back
        from text formats, where rounding breaks exact symmetry;
        internal producers are expected to construct exact input.

    Attributes
    ----------
    entries : ndarray of shape (p, p)
        Read-only storage.
    dim : int
        The dimension p.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, symmetrize=False):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("expected a square matrix, got shape %s" % (a.shape,))
        if a.shape[0] < 1:
            raise ValueError("dim must be >= 1")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if symmetrize:
            a = 0.5 * (a + a.T)
        elif not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric; pass symmetrize=True to average")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMatrix is immutable")

    @property
    def dim(self):
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.entries, dtype=dtype)
        return np.asarray(self.entries, dtype=dtype)

    def __getitem__(self, key):
        return self.entries[key]

    def __repr__(self):
        return "SymmetricMatrix(dim=%d)" % self.dim


class PairIndexSet:
    """Ordered collection of (row, col) index pairs into a p x p grid.

    Parameters
    ----------
    pairs : iterable of (int, int), or int array of shape (n, 2)
        Index pairs; duplicates are rejected.
    dim : int
        Grid dimension p; every index must lie in [0, p).
    """

    __slots__ = ("pairs", "dim", "_lookup")

    def __init__(self, pairs, dim):
        dim = int(dim)
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.array(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be (row, col) index pairs")
        outside = ((arr < 0) | (arr >= dim)).any(axis=1)
        if outside.any():
            i, j = arr[outside][0]
            raise ValueError("pair (%d, %d) out of range for dim %d" % (i, j, dim))
        if np.unique(arr[:, 0] * dim + arr[:, 1]).size != len(arr):
            raise ValueError("duplicate index pairs")
        object.__setattr__(self, "pairs", tuple(zip(*arr.T.tolist())))
        object.__setattr__(self, "dim", dim)
        # built on the first membership test: for the 158k pairs of a
        # p = 400 complement set the hash table alone takes ~8 MB
        object.__setattr__(self, "_lookup", None)

    def __setattr__(self, name, value):
        raise AttributeError("PairIndexSet is immutable")

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair):
        if self._lookup is None:
            object.__setattr__(self, "_lookup", frozenset(self.pairs))
        return tuple(pair) in self._lookup

    def __eq__(self, other):
        return isinstance(other, PairIndexSet) and self.pairs == other.pairs and self.dim == other.dim

    def __hash__(self):
        return hash((self.pairs, self.dim))

    def __repr__(self):
        return "PairIndexSet(%d pairs, dim=%d)" % (len(self.pairs), self.dim)


def logdet_pd(m):
    """Log-determinant of a positive definite matrix via Cholesky.

    Raises
    ------
    NotPositiveDefinite
        If the factorization encounters a nonpositive pivot.
    """
    a = np.asarray(m, dtype=float)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def inf_operator_norm(m):
    """Max absolute row sum |||U|||_inf; 0.0 for empty matrices.

    Accepts rectangular input. The empty convention keeps norms over an
    empty index partition well defined.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def hessian_submatrix(sigma_m, rows, cols):
    """Submatrix of the Hessian Gamma = Sigma (x) Sigma without materializing it.

    Entry ((i,j),(k,l)) equals ``sigma_m[i,k] * sigma_m[j,l]`` under
    Kronecker pair indexing.

    Parameters
    ----------
    sigma_m : SymmetricMatrix or ndarray
    rows, cols : PairIndexSet
        Ordered pair sets selecting Hessian rows and columns.

    Returns
    -------
    ndarray of shape (len(rows), len(cols))
    """
    s = np.asarray(sigma_m, dtype=float)
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((len(rows), len(cols)))
    ri = np.array([p[0] for p in rows])
    rj = np.array([p[1] for p in rows])
    ck = np.array([p[0] for p in cols])
    cl = np.array([p[1] for p in cols])
    return s[np.ix_(ri, ck)] * s[np.ix_(rj, cl)]


def read_matrix_csv(path):
    """Load a p x p matrix from CSV, symmetrize, and validate finiteness."""
    with open(path, newline="") as fh:
        data = [[float(cell) for cell in row] for row in csv.reader(fh) if row]
    return SymmetricMatrix(np.array(data), symmetrize=True)


def write_matrix_csv(m, path):
    """Write a matrix as full (not triangular) CSV with repr-precision floats."""
    a = np.asarray(m, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in a:
            writer.writerow([repr(float(x)) for x in row])

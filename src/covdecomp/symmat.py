"""Dense symmetric matrix kernel.

Everything downstream (models, solver, diagnostics) moves data around as
``SymmetricMatrix`` instances or plain ndarrays, and sets of index pairs
as p x p boolean masks; the helpers here are the only linear-algebra
primitives the package needs.
"""

import ctypes
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedMatrix, NotPositiveDefinite


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
            raise MalformedMatrix("dim must be >= 1")
        if not np.isfinite(a).all():
            raise MalformedMatrix("matrix entries must be finite")
        if symmetrize:
            a = 0.5 * (a + a.T)
        elif not np.array_equal(a, a.T):
            raise MalformedMatrix(
                "matrix is not exactly symmetric; pass symmetrize=True to average")
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


def _load_dpotri():
    # LAPACKE dpotri of the ILP64 OpenBLAS that numpy's wheels bundle;
    # None when this numpy ships no such library
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_LAPACKE_dpotri_work64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64]
        fn.restype = ctypes.c_int64
        return fn
    return None


_dpotri = _load_dpotri()
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def inv_pd(a, chol=None):
    """Exactly symmetric inverse of a positive definite matrix.

    ``chol`` is the lower Cholesky factor of ``a``, zero above the
    diagonal as ``np.linalg.cholesky`` returns it, when the caller holds
    one; it may be overwritten. The inverse comes from that factor
    through LAPACK ``dpotri`` when numpy's bundled OpenBLAS exports it,
    and otherwise is ``(inv(a) + inv(a).T) / 2``.

    Raises
    ------
    NotPositiveDefinite
        If ``a`` has no Cholesky factor, or ``chol`` is singular.
    DimensionMismatch
        If ``chol`` is not square.
    """
    if chol is None:
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("matrix is not positive definite") from None
    if _dpotri is None:
        inv = np.linalg.inv(a)
        return 0.5 * (inv + inv.T)
    c = np.require(chol, dtype=np.float64, requirements=["C", "A", "W"])
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch("Cholesky factor must be square, got shape %s" % (c.shape,))
    # the C-order lower factor read column-major is the upper factor L^T;
    # the inverse lands in that triangle and the zeros above stay
    p = c.shape[0]
    if _dpotri(_COL_MAJOR, b"U", p, c.ctypes.data, max(p, 1)) != 0:
        raise NotPositiveDefinite("Cholesky factor is singular")
    c += np.tril(c, -1).T
    return c


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
    sigma_m : SymmetricMatrix or ndarray of shape (p, p)
    rows, cols : bool ndarray of shape (p, p)
        Pair masks selecting Hessian rows and columns, enumerated in
        row-major order.

    Returns
    -------
    ndarray of shape (count_nonzero(rows), count_nonzero(cols))

    Raises
    ------
    DimensionMismatch
        If a mask is not p x p.
    """
    s = np.asarray(sigma_m, dtype=float)
    ri, rj = np.nonzero(shaped_like(rows, s, "rows", dtype=bool))
    ck, cl = np.nonzero(shaped_like(cols, s, "cols", dtype=bool))
    return s[np.ix_(ri, ck)] * s[np.ix_(rj, cl)]


def shaped_like(a, ref, name, dtype=float):
    """``a`` as an array of ``ref``'s shape; raises DimensionMismatch otherwise."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != ref.shape:
        raise DimensionMismatch("%s is %s, expected %s" % (name, a.shape, ref.shape))
    return a

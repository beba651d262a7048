"""Dense symmetric matrix kernel.

Everything downstream (models, solver, diagnostics) moves data around as
``SymmetricMatrix`` instances or plain ndarrays, and sets of index pairs
as p x p boolean masks; the helpers here are the only linear-algebra
primitives the package needs.

Positive definite matrices are factored and inverted through LAPACK
``dpotrf`` and ``dpotri`` of the OpenBLAS that numpy's wheels bundle,
bound once with ``ctypes``: ``inv_pd`` inverts from a Cholesky factor,
and ``PdWorkspace`` factors and inverts in reused buffers, which the
solver loop needs to run without allocating. When the library or a
symbol is missing, both fall back to ``np.linalg.cholesky`` and the
symmetrised ``np.linalg.inv``; ``_lapack`` is the one switch.
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


def _load_lapack():
    # LAPACKE dpotrf and dpotri of the ILP64 OpenBLAS that numpy's wheels
    # bundle, as (dpotrf, dpotri); None when this numpy ships no such library
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            fns = (lib.scipy_LAPACKE_dpotrf_work64_, lib.scipy_LAPACKE_dpotri_work64_)
        except (OSError, AttributeError):
            continue
        for fn in fns:
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                           ctypes.c_void_p, ctypes.c_int64]
            fn.restype = ctypes.c_int64
        return fns
    return None


# the one switch between the LAPACK routes and numpy's cholesky and inv
_lapack = _load_lapack()
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def inv_pd(a, chol=None):
    """Exactly symmetric inverse of a positive definite matrix.

    ``chol`` is the lower Cholesky factor of ``a``, zero above the
    diagonal as ``np.linalg.cholesky`` returns it, when the caller holds
    one; it may be overwritten. The inverse comes from that factor
    through LAPACK ``dpotri`` when numpy's bundled OpenBLAS exports
    ``dpotrf`` and ``dpotri``, and otherwise is ``(inv(a) + inv(a).T) / 2``.

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
    if _lapack is None:
        inv = np.linalg.inv(a)
        return 0.5 * (inv + inv.T)
    c = np.require(chol, dtype=np.float64, requirements=["C", "A", "W"])
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch("Cholesky factor must be square, got shape %s" % (c.shape,))
    # the C-order lower factor read column-major is the upper factor L^T;
    # the inverse lands in that triangle and the zeros above stay
    p = c.shape[0]
    if _lapack[1](_COL_MAJOR, b"U", p, c.ctypes.data, max(p, 1)) != 0:
        raise NotPositiveDefinite("Cholesky factor is singular")
    c += np.tril(c, -1).T
    return c


class PdWorkspace:
    """Factors and inverts p x p positive definite matrices in reused buffers.

    With LAPACK bound, ``factor`` runs ``dpotrf`` in place on a copy of
    its argument and ``inverse`` runs ``dpotri`` into the caller's
    buffer, so neither allocates a p x p array; both are bit for bit
    ``np.linalg.cholesky`` and ``inv_pd``. Without it they are those two
    calls. Arguments must be exactly symmetric C-order float arrays.
    """

    def __init__(self, p):
        self._p = p
        self._lapack = _lapack
        if self._lapack is not None:
            self._fac = np.empty((p, p))
            self._upper = np.triu(np.ones((p, p), dtype=bool), 1)

    def factor(self, a):
        """Diagonal of the lower Cholesky factor of ``a``, or None if ``a`` is not PD.

        The factor is kept for the next ``inverse``, which also reads ``a``
        on the fallback route, so ``a`` must not change before it.
        """
        if self._lapack is None:
            try:
                self._chol = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                return None
            self._a = a
            return self._chol.diagonal()
        # read column-major, symmetric a is itself, and the lower factor
        # lands in the column-major lower triangle: C order's upper one
        np.copyto(self._fac, a)
        if self._lapack[0](_COL_MAJOR, b"L", self._p, self._fac.ctypes.data,
                           max(self._p, 1)) != 0:
            return None
        return self._fac.diagonal()

    def inverse(self, out):
        """Inverse of the last matrix factored, written into ``out`` when
        LAPACK is bound (and returned); a new array otherwise."""
        return self.mirror(self.lower_inverse(out))

    def lower_inverse(self, out):
        """``inverse`` before ``mirror``: exact in the lower triangle only
        when LAPACK is bound, and the whole inverse otherwise."""
        if self._lapack is None:
            return inv_pd(self._a, self._chol)
        # the transposed factor holds L in C order, as inv_pd's does, so
        # dpotri 'U' sees the same operand; 'L' on the factor in place
        # differs in the last bit
        np.copyto(out, self._fac.T)
        if self._lapack[1](_COL_MAJOR, b"U", self._p, out.ctypes.data,
                           max(self._p, 1)) != 0:
            raise NotPositiveDefinite("Cholesky factor is singular")
        return out

    def mirror(self, out):
        """Copy the lower triangle of a ``lower_inverse`` result onto its
        upper one, in place, and return it; this overwrites the factor."""
        if self._lapack is None:
            return out
        # adding 0.0 clears negative zeros, as inv_pd's addition does
        np.copyto(self._fac, out.T)
        np.copyto(out, self._fac, where=self._upper)
        out += 0.0
        return out


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

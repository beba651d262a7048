"""Dense symmetric matrix kernel.

Everything downstream (models, solver, diagnostics) moves matrices
around as plain float ndarrays, and sets of index pairs as p x p boolean
masks; the helpers here are the only linear-algebra primitives the
package needs. ``checked_symmetric`` is the one check on a symmetric
matrix from outside the program: models validate theirs with it once,
and carry read-only copies.

Positive definite matrices are factored and inverted through LAPACK
and BLAS routines of the OpenBLAS that numpy's wheels bundle, bound once
with ``ctypes``: ``inv_pd`` inverts from a Cholesky factor, and
``PdWorkspace`` factors and inverts in reused buffers, which the solver
loop needs to run without allocating. ``BandWorkspace`` does the same
for banded matrices held in band storage, forming the inverse on the
band alone. When the library or a symbol is missing, all three fall
back to ``np.linalg.cholesky`` and the symmetrised ``np.linalg.inv``;
``_lapack`` is the one switch.
"""

import ctypes
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedMatrix, NotPositiveDefinite


def checked_symmetric(a, name):
    """Read-only float copy of ``a``, a matrix from outside the program.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a square matrix.
    MalformedMatrix
        If ``a`` is not numeric or empty, has a non-finite entry or is not
        exactly symmetric.
    """
    try:
        a = np.array(a, dtype=float)
    except (TypeError, ValueError):
        raise MalformedMatrix("%s must hold numbers" % name) from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("%s must be a square matrix, got shape %s" % (name, a.shape))
    if a.size == 0:
        raise MalformedMatrix("%s is empty" % name)
    if not np.isfinite(a).all():
        raise MalformedMatrix("%s entries must be finite" % name)
    if not np.array_equal(a, a.T):
        raise MalformedMatrix("%s is not exactly symmetric" % name)
    a.flags.writeable = False
    return a


_Lapack = namedtuple("_Lapack", "potrf potri trtri pbtrf symm")


def _load_lapack():
    # LAPACKE dpotrf, dpotri, dtrtri and dpbtrf and CBLAS dsymm of the
    # ILP64 OpenBLAS that numpy's wheels bundle; None when this numpy
    # ships no such library
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    layout, uplo = ctypes.c_int, ctypes.c_char
    signatures = {
        "scipy_LAPACKE_dpotrf_work64_": [layout, uplo, i64, ptr, i64],
        "scipy_LAPACKE_dpotri_work64_": [layout, uplo, i64, ptr, i64],
        "scipy_LAPACKE_dtrtri_work64_": [layout, uplo, ctypes.c_char, i64, ptr, i64],
        "scipy_LAPACKE_dpbtrf_work64_": [layout, uplo, i64, i64, ptr, i64],
        "scipy_cblas_dsymm64_": [layout, ctypes.c_int, ctypes.c_int, i64, i64,
                                 ctypes.c_double, ptr, i64, ptr, i64,
                                 ctypes.c_double, ptr, i64],
    }
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            fns = [getattr(lib, name) for name in signatures]
        except (OSError, AttributeError):
            continue
        for fn, (name, argtypes) in zip(fns, signatures.items()):
            fn.argtypes = argtypes
            fn.restype = None if "cblas" in name else ctypes.c_int64
        return _Lapack(*fns)
    return None


# the one switch between the LAPACK routes and numpy's cholesky and inv
_lapack = _load_lapack()
_COL_MAJOR = 102  # LAPACK_COL_MAJOR
# CblasRowMajor, CblasLeft and CblasLower of cblas_dsymm
_ROW_MAJOR, _LEFT, _LOWER = 101, 141, 122
# BandWorkspace's least block size, so that a narrow band is not cut into
# many blocks that each cost a few numpy calls
_MIN_BLOCK = 32


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
    if _lapack.potri(_COL_MAJOR, b"U", p, c.ctypes.data, max(p, 1)) != 0:
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
        if self._lapack.potrf(_COL_MAJOR, b"L", self._p, self._fac.ctypes.data,
                              max(self._p, 1)) != 0:
            return None
        return self._fac.diagonal()

    def inverse(self, out):
        """Inverse of the last matrix factored, written into ``out`` when
        LAPACK is bound (and returned); a new array otherwise."""
        if self._lapack is None:
            return inv_pd(self._a, self._chol)
        # the transposed factor holds L in C order, as inv_pd's does, so
        # dpotri 'U' sees the same operand; 'L' on the factor in place
        # differs in the last bit. dpotri fills the lower triangle, which
        # goes onto the upper one through the factor's buffer; adding 0.0
        # clears negative zeros, as inv_pd's addition does
        np.copyto(out, self._fac.T)
        if self._lapack.potri(_COL_MAJOR, b"U", self._p, out.ctypes.data,
                              max(self._p, 1)) != 0:
            raise NotPositiveDefinite("Cholesky factor is singular")
        np.copyto(self._fac, out.T)
        np.copyto(out, self._fac, where=self._upper)
        out += 0.0
        return out


def to_band(a, kd):
    """The lower band of half-width kd of the p x p matrix ``a`` in band
    storage: the (p, kd + 1) array with ``band[j, d] = a[j + d, j]``, zero
    where ``j + d >= p``."""
    p = a.shape[0]
    band = np.zeros((p, kd + 1))
    for d in range(kd + 1):
        band[:p - d, d] = np.diagonal(a, -d)
    return band


def _unpack(band, out):
    # band's entries onto the lower triangle of the C-order p x p out
    p = out.shape[0]
    flat = out.reshape(-1)
    for d in range(band.shape[1]):
        flat[d * p::p + 1] = band[:p - d, d]


class BandWorkspace:
    """Factors p x p positive definite matrices of half-bandwidth kd held in
    band storage (see ``to_band``), and inverts them on the band's blocks.

    ``factor`` runs LAPACK ``dpbtrf`` on a copy of its argument, in
    O(p kd^2). ``selected_inverse`` cuts the matrix into blocks of
    ``b = max(kd, _MIN_BLOCK)`` rows, the last taking the remainder, so
    that the factor L is block bidiagonal, and forms Z = J^-1 on its block
    tridiagonal part by the recursion of Takahashi, Fagan & Chin (1973):
    Z_NN = (L_NN L_NN^T)^-1 by ``dpotri``, then for k = N-2 down to 0,
    with M = L_(k+1,k) L_kk^-1, Z_(k+1,k) = -Z_(k+1,k+1) M and
    Z_kk = L_kk^-T L_kk^-1 + M^T Z_(k+1,k+1) M, in O(p b^2). A band wider
    than half the matrix, or a matrix of fewer than 2 _MIN_BLOCK rows, is
    one block: ``dpbtrf`` and ``dpotri``. Neither method allocates an
    array of p rows. Without LAPACK, ``factor`` runs
    ``np.linalg.cholesky`` on the dense matrix and ``selected_inverse``
    returns its whole inverse by ``inv_pd``.
    """

    def __init__(self, p, kd):
        self._p, self._kd, self._lapack = p, kd, _lapack
        b = max(kd, _MIN_BLOCK)
        self._starts = [k * b for k in range(max(1, p // b))] + [p]
        self._fac = np.empty((p, kd + 1))
        if len(self._starts) > 2:
            # [L_kk^-1; -M] and [L_kk^-1; Z_(k+1,k)], whose product is
            # Z_kk; the inverse's upper triangle stays zero
            tall = b + p - self._starts[-2]
            self._s, self._u = np.zeros((tall, b)), np.zeros((tall, b))
            self._lower = np.tri(b, dtype=bool)
            # addresses of L_kk^-1, of -M and of Z_(k+1,k), the same for every k
            self._at = (self._s.ctypes.data, self._s[b:].ctypes.data, self._u[b:].ctypes.data)

    def factor(self, band):
        """Diagonal of the Cholesky factor of the matrix that ``band``
        holds, or None if it is not PD. The factor is kept for the next
        ``selected_inverse``."""
        p, kd = self._p, self._kd
        if self._lapack is None:
            a = np.zeros((p, p))
            _unpack(band, a)
            a += np.tril(a, -1).T
            try:
                self._chol = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                return None
            self._a = a
            return self._chol.diagonal()
        np.copyto(self._fac, band)
        if self._lapack.pbtrf(_COL_MAJOR, b"L", p, kd, self._fac.ctypes.data, kd + 1) != 0:
            return None
        return self._fac[:, 0]

    def selected_inverse(self, out):
        """Inverse of the last matrix factored on the lower triangle of its
        block tridiagonal part, written into the C-order p x p ``out`` when
        LAPACK is bound (and returned); out's other entries are scratch.
        Without LAPACK, the whole inverse in a new array."""
        if self._lapack is None:
            return inv_pd(self._a, self._chol)
        lapack, p, s = self._lapack, self._p, self._starts
        # L on the blocks the recursion reads, zero off the band
        for a, m, e in zip(s, s[1:], s[2:] + [p]):
            out[a:e, a:m] = 0.0
        _unpack(self._fac, out)
        at = out.ctypes.data
        last = s[-2]
        # the factor's lower triangle in C order is the upper one read
        # column-major, so each LAPACK call takes "U"
        self._check(lapack.potri(_COL_MAJOR, b"U", p - last, at + 8 * (p + 1) * last, p))
        for k in range(len(s) - 3, -1, -1):
            a, m, e = s[k:k + 3]
            b, n = m - a, e - m
            linv, mm = self._s[:b], self._s[b:b + n]
            at_linv, at_mm, at_z = self._at
            np.copyto(linv, out[a:m, a:m], where=self._lower)
            self._check(lapack.trtri(_COL_MAJOR, b"U", b"N", b, at_linv, b))
            np.copyto(self._u[:b], linv)
            np.matmul(out[m:e, a:m], linv, out=mm)
            np.negative(mm, out=mm)
            # Z_(k+1,k) = Z_(k+1,k+1) (-M), from Z_(k+1,k+1)'s lower triangle
            lapack.symm(_ROW_MAJOR, _LEFT, _LOWER, n, b, 1.0, at + 8 * (p + 1) * m, p,
                        at_mm, b, 0.0, at_z, b)
            np.copyto(out[m:e, a:m], self._u[b:b + n])
            np.matmul(self._s[:b + n].T, self._u[:b + n], out=out[a:m, a:m])
        return out

    @staticmethod
    def _check(info):
        if info != 0:
            raise NotPositiveDefinite("Cholesky factor is singular")


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
    sigma_m : ndarray of shape (p, p)
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

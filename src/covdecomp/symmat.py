"""Dense symmetric matrix kernel.

Everything downstream (models, solver, diagnostics) moves matrices
around as plain float ndarrays, and sets of index pairs as p x p boolean
masks; the helpers here are the only linear-algebra primitives the
package needs. Outside input enters through ``as_floats`` (to numbers),
``checked_number`` (a scalar), ``seeded_rng`` (a seed), ``checked_square`` (a finite
square matrix) and ``checked_symmetric``: models validate theirs once, keep them read-only.

Positive definiteness is decided here alone: ``cholesky`` tests it, and
``inv_pd`` is a one-shot ``PdWorkspace``, which factors and inverts in
reused buffers so that the solver loop runs without allocating.
``BandWorkspace`` does the same for banded matrices in band storage,
forming the inverse on the band alone, and ``eigenvalue`` finds one
eigenvalue. They bind LAPACK ``dpotrf``, ``dpotri``, ``dtrtri``,
``dpbtrf``, ``dsyevr`` and CBLAS ``dsymm`` of the OpenBLAS in numpy's
wheels, through ``ctypes``; without it they fall back to ``cholesky``,
the symmetrised ``np.linalg.inv`` and ``eigvalsh``, and ``_lapack`` is
the one switch.
"""

import ctypes
import numbers
from collections import namedtuple
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedMatrix, NotPositiveDefinite, PreconditionViolated


def as_floats(a, name, dtype=float):
    """``a`` as an ndarray of ``dtype``; MalformedMatrix if it holds no numbers."""
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError):
        raise MalformedMatrix("%s must hold numbers" % name) from None


def checked_number(value, name, integer=False):
    """``value``, a real number (an integer if ``integer``) but no bool, or PreconditionViolated."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise PreconditionViolated("%s must be %s, got %r" % (name, what, value))
    return value


def seeded_rng(seed):
    """``np.random.default_rng(seed)`` for an integer ``seed >= 0``, or PreconditionViolated."""
    if not checked_number(seed, "rng_seed", integer=True) >= 0:
        raise PreconditionViolated("rng_seed must be >= 0, got %r" % (seed,))
    return np.random.default_rng(seed)


def checked_square(a, name):
    """``a`` as a float ndarray; DimensionMismatch if it is not a square
    matrix, MalformedMatrix if it is empty, not numeric or not finite."""
    a = as_floats(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("%s must be a square matrix, got shape %s" % (name, a.shape))
    if a.size == 0:
        raise MalformedMatrix("%s is empty" % name)
    if not np.isfinite(a).all():
        raise MalformedMatrix("%s entries must be finite" % name)
    return a


def checked_symmetric(a, name):
    """Read-only float copy of ``a``, a matrix from outside the program,
    or ``a`` itself if it is read-only, C-ordered and owns its data.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a square matrix.
    MalformedMatrix
        If ``a`` is not numeric or empty, has a non-finite entry or is not
        exactly symmetric.
    """
    a = checked_square(a, name)
    if a.flags.writeable or not (a.flags.owndata and a.flags.c_contiguous):
        a = np.array(a)
    if not np.array_equal(a, a.T):
        raise MalformedMatrix("%s is not exactly symmetric" % name)
    a.flags.writeable = False
    return a


def cholesky(a):
    """Lower Cholesky factor of ``a``, as ``np.linalg.cholesky`` returns
    it, or None if ``a`` is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


_Lapack = namedtuple("_Lapack", "potrf potri trtri pbtrf symm syevr")


def _load_lapack():
    # the LAPACKE routines and CBLAS dsymm of the ILP64 OpenBLAS that
    # numpy's wheels bundle; None when this numpy ships no such library.
    # dsyevr allocates its own workspace
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    layout, char = ctypes.c_int, ctypes.c_char
    signatures = {
        "scipy_LAPACKE_dpotrf_work64_": [layout, char, i64, ptr, i64],
        "scipy_LAPACKE_dpotri_work64_": [layout, char, i64, ptr, i64],
        "scipy_LAPACKE_dtrtri_work64_": [layout, char, char, i64, ptr, i64],
        "scipy_LAPACKE_dpbtrf_work64_": [layout, char, i64, i64, ptr, i64],
        "scipy_cblas_dsymm64_": [layout, ctypes.c_int, ctypes.c_int, i64, i64,
                                 dbl, ptr, i64, ptr, i64, dbl, ptr, i64],
        "scipy_LAPACKE_dsyevr64_": [layout, char, char, char, i64, ptr, i64, dbl, dbl,
                                    i64, i64, dbl, ptr, ptr, ptr, i64, ptr],
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


# the one switch between the LAPACK routes and their numpy fallbacks
_lapack = _load_lapack()
_COL_MAJOR = 102  # LAPACK_COL_MAJOR
# CblasRowMajor, CblasLeft and CblasLower of cblas_dsymm
_ROW_MAJOR, _LEFT, _LOWER = 101, 141, 122
# BandWorkspace's least block size, so that a narrow band is not cut into
# many blocks that each cost a few numpy calls, and copy_upper's
_MIN_BLOCK = 32


def inv_pd(a, ws=None):
    """Exactly symmetric inverse of a positive definite matrix, through the
    ``PdWorkspace`` ws or a one-shot one.

    Raises
    ------
    NotPositiveDefinite
        If ``a`` has no Cholesky factor.
    """
    ws = PdWorkspace(a.shape[0]) if ws is None else ws
    if ws.factor(a) is None:
        raise NotPositiveDefinite("matrix is not positive definite")
    return ws.inverse(np.empty(a.shape))


class PdWorkspace:
    """Factors and inverts p x p positive definite matrices in reused buffers.

    With LAPACK bound, ``factor`` runs ``dpotrf`` in place on a copy of
    its argument, bit for bit ``np.linalg.cholesky``, and ``inverse``
    runs ``dpotri`` into the caller's buffer, so neither allocates a
    p x p array; ``buffer``, given or new, holds the factor, is scratch
    between calls, and a matrix formed in it is factored in place. Without
    it, ``factor`` is ``cholesky`` and ``inverse`` the symmetrised
    ``np.linalg.inv``. Arguments must be exactly symmetric float arrays.
    """

    def __init__(self, p, buffer=None):
        self._p = p
        self._lapack = _lapack
        self.buffer = np.empty((p, p)) if buffer is None else buffer

    def factor(self, a):
        """A copy of the diagonal of the lower Cholesky factor of ``a``, or None if not PD.

        The factor is kept for the next ``inverse``, which also reads ``a``
        on the fallback route, so ``a`` must not change before it.
        """
        if self._lapack is None:
            self._a, self._chol = a, cholesky(a)
            return None if self._chol is None else self._chol.diagonal()
        # read column-major, symmetric a is itself, and the lower factor
        # lands in the column-major lower triangle: C order's upper one
        if a is not self.buffer:
            np.copyto(self.buffer, a)
        if self._lapack.potrf(_COL_MAJOR, b"L", self._p, self.buffer.ctypes.data,
                              max(self._p, 1)) != 0:
            return None
        return self.buffer.diagonal().copy()

    def lower(self):
        """The lower Cholesky factor of the last matrix factored, as
        ``np.linalg.cholesky`` returns it, in one new array; an ``inverse``
        into ``buffer`` overwrites the factor."""
        return self._chol if self._lapack is None else copy_upper(
            self.buffer.T.copy(), np.broadcast_to(0.0, self.buffer.shape))  # zeros above

    def inverse(self, out):
        """Exactly symmetric inverse of the last matrix factored, written
        into ``out``, which may be ``buffer``, when LAPACK is bound (and
        returned); a new array otherwise."""
        if self._lapack is None:
            inv = np.linalg.inv(self._a)
            return 0.5 * (inv + inv.T)
        # L in C order, which dpotri 'U' reads as L^T, is the transposed factor, or in
        # the buffer its upper triangle mirrored ('L' on the factor would differ in the
        # last bit); dpotri's lower triangle is mirrored up, and adding 0.0 clears -0.0
        if out is self.buffer:
            copy_upper(out.T, out)
        else:
            np.copyto(out, self.buffer.T)
        _check(self._lapack.potri(_COL_MAJOR, b"U", self._p, out.ctypes.data, max(self._p, 1)))
        copy_upper(out, out.T)
        out += 0.0
        return out


def copy_upper(out, src):
    """``src``'s strict upper triangle onto ``out``'s, with no p x p mask;
    returns ``out``. One may be the other's transpose, to mirror a triangle."""
    for a in range(0, len(out), _MIN_BLOCK):
        e = a + _MIN_BLOCK
        out[a:e, e:] = src[a:e, e:]
        np.copyto(out[a:e, a:e], src[a:e, a:e], where=~np.tri(*out[a:e, a:e].shape, dtype=bool))
    return out


def _check(info):
    # the status of dpotri or dtrtri on a factor; nonzero is a zero pivot
    if info != 0:
        raise NotPositiveDefinite("Cholesky factor is singular")


def eigenvalue(a, k):
    """The k-th smallest eigenvalue, from 0, of the symmetric matrix on
    ``a``'s lower triangle, as ``np.linalg.eigvalsh`` reads it, found alone
    by ``dsyevr``'s bisection. Without LAPACK, ``eigvalsh(a)[k]``."""
    if _lapack is None:
        return float(np.linalg.eigvalsh(a)[k])
    p = a.shape[0]
    # C order's lower triangle is the column-major upper one. JOBZ='N'
    # reads no Z or ISUPPZ; ABSTOL 2 * underflow bisects to full precision
    work, w, m = np.array(a, dtype=float), np.empty(p), np.empty(1, np.int64)
    if _lapack.syevr(_COL_MAJOR, b"N", b"I", b"U", p, work.ctypes.data, max(p, 1), 0.0, 0.0,
                     k + 1, k + 1, 2 * np.finfo(float).tiny, m.ctypes.data, w.ctypes.data,
                     None, 1, None) != 0:
        raise MalformedMatrix("dsyevr found no eigenvalue %d" % k)
    return float(w[0])


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
    array of p rows. Without LAPACK, both hand the dense matrix to a
    ``PdWorkspace``, and ``selected_inverse`` returns its whole inverse.
    """

    def __init__(self, p, kd):
        self._p, self._kd, self._lapack = p, kd, _lapack
        b = max(kd, _MIN_BLOCK)
        self._starts = [k * b for k in range(max(1, p // b))] + [p]
        self._fac = np.empty((p, kd + 1))
        if self._lapack is None:
            self._dense = PdWorkspace(p)
        elif len(self._starts) > 2:
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
            return self._dense.factor(a)
        np.copyto(self._fac, band)
        if self._lapack.pbtrf(_COL_MAJOR, b"L", p, kd, self._fac.ctypes.data, kd + 1) != 0:
            return None
        return self._fac[:, 0]

    def selected_inverse(self, out, whole=False):
        """Inverse of the last matrix factored on the lower triangle of its
        block tridiagonal part, written into the C-order p x p ``out`` when
        LAPACK is bound (and returned); out's other entries are scratch.
        With ``whole``, on the whole lower triangle, as one block, and zero
        above it. Without LAPACK, the whole inverse in a new array."""
        if self._lapack is None:
            return self._dense.inverse(out)
        lapack, p, s = self._lapack, self._p, [0, self._p] if whole else self._starts
        # L on the blocks the recursion reads, zero off the band
        for a, m, e in zip(s, s[1:], s[2:] + [p]):
            out[a:e, a:m] = 0.0
        _unpack(self._fac, out)
        at = out.ctypes.data
        last = s[-2]
        # the factor's lower triangle in C order is the upper one read
        # column-major, so each LAPACK call takes "U"
        _check(lapack.potri(_COL_MAJOR, b"U", p - last, at + 8 * (p + 1) * last, p))
        for k in range(len(s) - 3, -1, -1):
            a, m, e = s[k:k + 3]
            b, n = m - a, e - m
            linv, mm = self._s[:b], self._s[b:b + n]
            at_linv, at_mm, at_z = self._at
            np.copyto(linv, out[a:m, a:m], where=self._lower)
            _check(lapack.trtri(_COL_MAJOR, b"U", b"N", b, at_linv, b))
            np.copyto(self._u[:b], linv)
            np.matmul(out[m:e, a:m], linv, out=mm)
            np.negative(mm, out=mm)
            # Z_(k+1,k) = Z_(k+1,k+1) (-M), from Z_(k+1,k+1)'s lower triangle
            lapack.symm(_ROW_MAJOR, _LEFT, _LOWER, n, b, 1.0, at + 8 * (p + 1) * m, p,
                        at_mm, b, 0.0, at_z, b)
            np.copyto(out[m:e, a:m], self._u[b:b + n])
            np.matmul(self._s[:b + n].T, self._u[:b + n], out=out[a:m, a:m])
        return out


def shaped_like(a, ref, name, dtype=float):
    """``a`` as an array of ``ref``'s shape and of ``dtype``; raises
    DimensionMismatch otherwise, and MalformedMatrix if it does not hold numbers."""
    a = as_floats(a, name, dtype)
    if a.shape != ref.shape:
        raise DimensionMismatch("%s is %s, expected %s" % (name, a.shape, ref.shape))
    return a

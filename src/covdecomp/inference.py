"""Gaussian belief propagation in information form, walk-summability,
and exact-moment references.

Messages are parametrized as precision/potential corrections
(dJ_e, dh_e) on the directed edges e = (s -> t) of J's off-diagonal
support, updated synchronously from zero initialization, so one sweep
costs O(|E|). The cavity precision for the s -> t message is the
node-s belief precision minus the t -> s message; a nonpositive cavity
precision means the recursion left the Gaussian family and the run
records itself as diverged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedMatrix,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .symmat import (as_floats, checked_square, checked_symmetric, cholesky, eigenvalue,
                     solve_and_inverse_diagonal)

MESSAGE_NORM_LIMIT = 1e12


@dataclass(frozen=True)
class InfoModel:
    """Information-form Gaussian: density proportional to
    exp(-x' J x / 2 + h' x). ``j`` is checked with ``checked_symmetric``
    and kept as a read-only copy."""

    j: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        j = checked_symmetric(self.j, "j")
        h = np.array(as_floats(self.h, "h")).reshape(-1)
        if h.shape[0] != j.shape[0]:
            raise DimensionMismatch("h has length %d but j is %s" % (h.shape[0], j.shape))
        if not np.isfinite(h).all():
            raise MalformedMatrix("h must be finite")
        if cholesky(j) is None:
            raise NotPositiveDefinite("information matrix must be positive definite")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)

    @property
    def dim(self):
        return self.j.shape[0]


@dataclass
class LbpTrace:
    """Per-iteration error trace of one belief propagation run."""

    mean_errors: np.ndarray
    var_errors: np.ndarray
    converged: bool
    iterations_run: int


def exact_moments(m):
    """Exact mean vector and marginal variances of an ``InfoModel``, whose
    ``j`` is proved positive definite, from one LDL^T factor of ``j``:
    exact on a diagonal ``j``, where D = j and L = I, so each variance is
    ``1 / j_ii``; a Cholesky inverse would read ``(1/sqrt 3)^2`` for ``1/3``.
    """
    return solve_and_inverse_diagonal(m.j, m.h)


def walk_summability(j):
    """Spectral norm of the entrywise-absolute partial-correlation matrix.

    Values below 1 certify that loopy propagation of the means converges
    to the exact means. The quantity is invariant under positive
    diagonal rescaling of j. The matrix is entrywise nonnegative, so by
    Perron-Frobenius its spectral norm is its largest eigenvalue; on a
    diagonal ``j`` that is +0.0, never the -0.0 that JSON would print.

    Raises
    ------
    DimensionMismatch
        If ``j`` is not a square matrix.
    MalformedMatrix
        If ``j`` is not numeric or empty, or has a non-finite entry.
    NonPositiveDiagonal
        If a diagonal entry of ``j`` is not positive.
    """
    # not checked_symmetric: a rescaled D J D need not be exactly symmetric
    a = checked_square(j, "j")
    if not np.isfinite(a).all():
        raise MalformedMatrix("information matrix entries must be finite")
    d = np.diag(a)
    if np.any(d <= 0):
        raise NonPositiveDiagonal("information matrix diagonal must be positive")
    # scaled on each side: sqrt(outer(d, d)) would underflow or overflow
    s = 1.0 / np.sqrt(d)
    r_bar = np.abs(a) * s[:, None] * s
    np.fill_diagonal(r_bar, 0.0)
    return eigenvalue(r_bar, a.shape[0] - 1) + 0.0


def lbp_run(m, max_iter, tol):
    """Synchronous loopy belief propagation with error tracing.

    Each iteration updates every directed message once, then records the
    average absolute mean and variance errors of the node beliefs
    against ``exact_moments``. ``converged`` becomes true when the
    largest message change drops below ``tol``; a nonpositive cavity
    precision or a message norm beyond 1e12 halts the run as diverged.

    Messages live on the directed edges of J's off-diagonal support, so
    one iteration costs O(|E|).

    Raises
    ------
    PreconditionViolated
        If ``max_iter < 1`` or ``tol`` is negative or NaN.
    """
    if not max_iter >= 1:
        raise PreconditionViolated("max_iter must be >= 1")
    if not tol >= 0:
        raise PreconditionViolated("tol must be >= 0, got %r" % (tol,))
    j, h = m.j, m.h
    p = j.shape[0]
    exact_mean, exact_var = exact_moments(m)
    j_diag = np.diag(j).copy()
    # edge e carries the message src[e] -> tgt[e]; ordered by target, then
    # source, so bincount adds each node's messages in source order
    tgt, src = np.nonzero((j != 0.0) & ~np.eye(p, dtype=bool))
    rev = np.lexsort((tgt, src))  # index of the edge tgt[e] -> src[e]
    neg_j = -j[tgt, src]
    neg_j_sq = neg_j * j[tgt, src]

    def beliefs(d_j, d_h):
        return (j_diag + np.bincount(tgt, weights=d_j, minlength=p),
                h + np.bincount(tgt, weights=d_h, minlength=p))

    d_j = np.zeros(tgt.size)
    d_h = np.zeros(tgt.size)
    belief_j, belief_h = beliefs(d_j, d_h)
    mean_errors = []
    var_errors = []
    converged = False
    for _ in range(max_iter):
        # belief at the source with the target's incoming message removed
        cavity_j = belief_j[src] - d_j[rev]
        if np.any(cavity_j <= 0):
            break
        cavity_h = belief_h[src] - d_h[rev]
        new_j = neg_j_sq / cavity_j
        new_h = neg_j * cavity_h / cavity_j
        delta = max(np.abs(new_j - d_j).max(initial=0.0),
                    np.abs(new_h - d_h).max(initial=0.0))
        d_j, d_h = new_j, new_h
        belief_j, belief_h = beliefs(d_j, d_h)
        if np.any(belief_j <= 0):
            mean_errors.append(np.inf)
            var_errors.append(np.inf)
        else:
            mean_errors.append(float(np.abs(belief_h / belief_j - exact_mean).mean()))
            var_errors.append(float(np.abs(1.0 / belief_j - exact_var).mean()))
        if max(np.abs(d_j).max(initial=0.0),
               np.abs(d_h).max(initial=0.0)) > MESSAGE_NORM_LIMIT:
            break
        if delta < tol:
            converged = True
            break
    return LbpTrace(
        mean_errors=np.asarray(mean_errors),
        var_errors=np.asarray(var_errors),
        converged=converged,
        iterations_run=len(mean_errors),
    )

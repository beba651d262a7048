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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedMatrix,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .symmat import (as_floats, checked_square, checked_symmetric, eigenvalue,
                     solve_and_inverse_diagonal)

MESSAGE_NORM_LIMIT = 1e12


@dataclass(frozen=True)
class InfoModel:
    """Information-form Gaussian: density proportional to
    exp(-x' J x / 2 + h' x). ``j`` is checked with ``checked_symmetric``
    and kept read-only. The one LDL^T factor that proves ``j`` positive
    definite also gives the exact moments, kept for ``exact_moments``."""

    j: np.ndarray
    h: np.ndarray
    moments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = checked_symmetric(self.j, "j")
        h = np.array(as_floats(self.h, "h")).reshape(-1)
        if h.shape[0] != j.shape[0]:
            raise DimensionMismatch("h has length %d but j is %s" % (h.shape[0], j.shape))
        if not np.isfinite(h).all():
            raise MalformedMatrix("h must be finite")
        moments = solve_and_inverse_diagonal(j, h, pd=True)
        if moments is None:
            raise NotPositiveDefinite("information matrix must be positive definite")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "moments", moments)

    @property
    def dim(self):
        return self.j.shape[0]


def _with_moments(j, h, mean, var):
    # an InfoModel of a checked j proved PD elsewhere, with its exact moments
    m = object.__new__(InfoModel)
    m.__dict__.update(j=j, h=h, moments=(mean, var))
    return m


@dataclass
class LbpTrace:
    """Per-iteration error trace of one belief propagation run."""

    mean_errors: np.ndarray
    var_errors: np.ndarray
    converged: bool
    iterations_run: int


def exact_moments(m):
    """Exact mean vector and marginal variances of an ``InfoModel``, from
    the one LDL^T factor of ``j`` that proved it positive definite: exact
    on a diagonal ``j``, where D = j and L = I, so each variance is
    ``1 / j_ii``; a Cholesky inverse would read ``(1/sqrt 3)^2`` for ``1/3``.
    """
    return m.moments


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
    # edge e carries the message src[e] -> tgt[e] at J's flat index tgt * p
    # + src: ordered by target, then source, so bincount adds each node's
    # messages in source order. J is exactly symmetric, and its diagonal,
    # the flat multiples of p + 1, is nonzero
    flat = np.flatnonzero(j)
    flat = np.delete(flat, np.searchsorted(flat, np.arange(0, p * p, p + 1)))
    e = flat.size
    tgt, src = np.divmod(flat, p)
    rev = np.empty(p * p, dtype=np.intp)
    rev[flat] = np.arange(e)
    rev = rev.take(src * p + tgt)  # index of the edge tgt[e] -> src[e]
    vals = j.take(flat)
    # stacked: messages d = [dh; dJ], beliefs [1; h; J] and cavities [h; J],
    # each cavity operand gathered by one take; new messages [-J h; -J^2] / J_cav
    coef = np.negative(np.concatenate((vals, vals * vals)))
    at_tgt = np.add.outer([0, p], tgt).ravel()
    del flat, tgt, vals  # before the message buffers: a lower peak
    base = np.concatenate((h, np.diag(j)))
    exact = np.stack((exact_var, exact_mean))
    d, new, cavity, belief = np.zeros(2 * e), np.empty(2 * e), np.empty(2 * e), np.ones(3 * p)
    np.add(base, 0.0, out=belief[p:])  # the beliefs of zero messages
    trace = []  # (mean error, variance error) per sweep
    converged = False
    for _ in range(max_iter):
        # belief at the source with the target's incoming message removed;
        # new is scratch until it takes the messages
        belief[p:].reshape(2, p).take(src, axis=1, out=cavity.reshape(2, e), mode="clip")
        d.reshape(2, e).take(rev, axis=1, out=new.reshape(2, e), mode="clip")
        np.subtract(cavity, new, out=cavity)
        if cavity[e:].min(initial=1.0) <= 0:
            break
        np.multiply(coef[:e], cavity[:e], out=new[:e])
        np.divide(new[:e], cavity[e:], out=new[:e])
        np.divide(coef[e:], cavity[e:], out=new[e:])
        delta = np.abs(np.subtract(new, d, out=d), out=d).max(initial=0.0)
        d, new = new, d
        np.add(base, np.bincount(at_tgt, weights=d, minlength=2 * p), out=belief[p:])
        if belief[2 * p:].min() <= 0:
            trace.append((np.inf, np.inf))
        else:
            # [1; h] / J is [variance; mean]; np.mean's own sum and division
            err = np.abs(belief[:2 * p].reshape(2, p) / belief[2 * p:] - exact)
            trace.append(err.sum(axis=1)[::-1] / p)
        if np.abs(d, out=new).max(initial=0.0) > MESSAGE_NORM_LIMIT:
            break
        if delta < tol:
            converged = True
            break
    mean_errors, var_errors = np.array(trace).reshape(-1, 2).T
    return LbpTrace(mean_errors=mean_errors, var_errors=var_errors, converged=converged,
                    iterations_run=len(trace))

"""Gaussian belief propagation in information form, walk-summability,
and exact-moment references.

Messages are parametrized as precision/potential corrections
(dJ_e, dh_e) on the directed edges e = (s -> t) of J's off-diagonal
support, updated synchronously from zero initialization. A sparse J
holds them on an edge list, so one sweep costs O(|E|); a J in which
most pairs are edges, in p x p arrays, at O(p^2) with no index set-up.
The cavity precision for the s -> t message is the node-s belief
precision minus the t -> s message; a nonpositive cavity precision
means the recursion left the Gaussian family and the run records
itself as diverged.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedMatrix,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .symmat import as_floats, checked_square, checked_symmetric, cholesky, eigenvalue

MESSAGE_NORM_LIMIT = 1e12
# lbp_run holds a J's messages in p x p arrays when more than this share
# of its off-diagonal pairs are edges, and on an edge list otherwise: above
# it the arrays set up faster and sweep no slower at p = 49 to 400, and
# below 0.6 the edge list sweeps faster (BENCH_lbp_dense.json)
DENSE_EDGE_SHARE = 0.75


@dataclass(frozen=True)
class InfoModel:
    """Information-form Gaussian: density proportional to
    exp(-x' J x / 2 + h' x). ``j`` is checked with ``checked_symmetric``;
    it, ``h`` and the moments are kept read-only. A Cholesky factor
    proves ``j`` positive definite. ``moments`` holds the exact mean
    vector and marginal variances, from an LU solve of ``j`` and the
    diagonal of its LU inverse: exact on a diagonal ``j``, where L = I and
    U = j, so each variance is ``1 / j_ii``; a Cholesky inverse would read
    ``(1/sqrt 3)^2`` for ``1/3``."""

    j: np.ndarray
    h: np.ndarray
    moments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = checked_symmetric(self.j, "j")
        h = _read_only(as_floats(self.h, "h"))
        if h.shape[0] != j.shape[0]:
            raise DimensionMismatch("h has length %d but j is %s" % (h.shape[0], j.shape))
        if not np.isfinite(h).all():
            raise MalformedMatrix("h must be finite")
        if cholesky(j) is None:
            raise NotPositiveDefinite("information matrix must be positive definite")
        moments = np.linalg.solve(j, h), np.diag(np.linalg.inv(j))
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "moments", tuple(map(_read_only, moments)))

    @property
    def dim(self):
        return self.j.shape[0]


def _read_only(a):
    # a read-only copy of a, flattened
    a = np.array(a.reshape(-1))
    a.flags.writeable = False
    return a


def _with_moments(j, h, mean, var):
    # an InfoModel of a checked, read-only j proved PD elsewhere, with its
    # exact moments
    m = object.__new__(InfoModel)
    m.__dict__.update(j=j, h=_read_only(h), moments=(_read_only(mean), _read_only(var)))
    return m


@dataclass
class LbpTrace:
    """Per-iteration error trace of one belief propagation run."""

    mean_errors: np.ndarray
    var_errors: np.ndarray
    converged: bool
    iterations_run: int


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
    against the model's exact ``moments``. ``converged`` becomes true
    when the largest message change drops below ``tol``; a nonpositive
    cavity precision or a message norm beyond 1e12 halts the run as
    diverged.

    The messages take one of two layouts, by the share of J's
    off-diagonal pairs that are edges (nonzero). Up to DENSE_EDGE_SHARE
    (3/4) they live on the directed edges, gathered by one ``take`` per
    operand and summed per node by one ``bincount``, so one iteration
    costs O(|E|) after an O(p^2) scan. Above it they live in (2, p, p)
    arrays, the reverse message a transposed view and the node sums a
    running sum down the sources, where J's zeros carry zero messages;
    an iteration costs O(p^2), with no index set-up. Both layouts give
    the same trace, bit for bit.

    Raises
    ------
    PreconditionViolated
        If ``max_iter`` is not an integer or is below 1, or ``tol`` is not
        a real number or is negative or NaN.
    """
    if not isinstance(max_iter, numbers.Integral) or isinstance(max_iter, bool):
        raise PreconditionViolated("max_iter must be an integer, got %r" % (max_iter,))
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise PreconditionViolated("tol must be a number, got %r" % (tol,))
    if not max_iter >= 1:
        raise PreconditionViolated("max_iter must be >= 1")
    if not tol >= 0:
        raise PreconditionViolated("tol must be >= 0, got %r" % (tol,))
    j, h = m.j, m.h
    p = j.shape[0]
    exact = np.stack(m.moments[::-1])  # [variance; mean]
    # J's off-diagonal support, as a mask: np.flatnonzero scans a mask
    # several times faster than floats
    edges = j != 0
    np.fill_diagonal(edges, False)
    dense = np.count_nonzero(edges) > DENSE_EDGE_SHARE * p * (p - 1)
    j_st, j_st2, cavities, node_sums = (_dense_messages if dense else _edge_messages)(j, edges)
    # messages d = [dh; dJ], written, not calloc'd: a fresh page read before
    # its first write faults twice. The beliefs [1; h; J] are one vector,
    # whose rows [1; h] over J are each node's [variance; mean]
    d, new = np.full((2, j_st.size), 0.0), np.empty((2, j_st.size))
    base, belief, err = np.stack((h, np.diag(j))), np.ones(3 * p), np.empty((2, p))
    ratio, beliefs = belief[:2 * p].reshape(2, p), belief[p:].reshape(2, p)
    precision = beliefs[1]
    np.add(base, 0.0, out=beliefs)  # the beliefs of zero messages
    trace = []  # p times the (variance error, mean error) per sweep
    converged = False
    for _ in range(max_iter):
        # new holds the cavities [h_cav; -J_cav] until it takes the messages
        # [-J_st h_cav; -J_st^2] / J_cav, in place
        cavities(beliefs, d, new)
        if new[1].max(initial=-1.0) >= 0:
            break
        np.multiply(j_st, new[0], out=new[0])
        np.divide(new[0], new[1], out=new[0])
        np.divide(j_st2, new[1], out=new[1])
        delta = np.abs(np.subtract(new, d, out=d), out=d).max(initial=0.0)
        d, new = new, d
        np.add(base, node_sums(d), out=beliefs)
        if precision.min() <= 0:
            trace.append((np.inf, np.inf))
        else:
            # np.mean's own sum, its division at the end
            np.subtract(np.divide(ratio, precision, out=err), exact, out=err)
            trace.append(np.abs(err, out=err).sum(axis=1))
        if np.abs(d, out=new).max(initial=0.0) > MESSAGE_NORM_LIMIT:
            break
        if delta < tol:
            converged = True
            break
    var_errors, mean_errors = (np.array(trace).reshape(-1, 2) / p).T
    return LbpTrace(mean_errors=mean_errors, var_errors=var_errors, converged=converged,
                    iterations_run=len(trace))


# A message layout gives J_st and J_st^2 on its messages (s -> t), as
# vectors; cavities(beliefs, d, out), which writes into out the cavities
# of the messages d, [h_cav; -J_cav]: the belief [h; J] at s less the
# message t -> s, the precision row negated, so that J_st itself scales
# the potential messages and (-a) / b is a / (-b) bit for bit; and
# node_sums(d), each node's incoming messages [h; J] summed in source order.

def _cavity(belief, reverse, out):
    # [belief_h - reverse_h; reverse_J - belief_J] into out
    np.subtract(belief[0], reverse[0], out=out[0])
    np.subtract(reverse[1], belief[1], out=out[1])


def _edge_messages(j, edges):
    # edge e carries the message src[e] -> tgt[e] at J's flat index tgt * p
    # + src: ordered by target, then source, so bincount adds each node's
    # messages in source order. J is exactly symmetric
    p = j.shape[0]
    flat = np.flatnonzero(edges)
    e = flat.size
    tgt, src = np.divmod(flat, p)
    rev = np.empty(p * p, dtype=np.intp)
    rev[flat] = np.arange(e)
    rev = rev.take(src * p + tgt)  # index of the edge tgt[e] -> src[e]
    j_st = j.take(flat)
    at_tgt = np.add.outer([0, p], tgt).ravel()
    del flat, tgt  # before the buffers: a lower peak
    reverse = np.empty((2, e))

    def cavities(beliefs, d, out):
        # each operand gathered by one take
        beliefs.take(src, axis=1, out=out, mode="clip")
        _cavity(out, d.take(rev, axis=1, out=reverse, mode="clip"), out)

    def node_sums(d):
        return np.bincount(at_tgt, weights=d.reshape(-1), minlength=2 * p).reshape(2, p)

    return j_st, j_st * j_st, cavities, node_sums


def _dense_messages(j, edges):
    # the message s -> t at [., s, t] of (2, p, p) arrays, t -> s at its
    # transpose. The pairs off the edges, J's zeros and its diagonal, are
    # idle: a zero J_st^2 and the cavity [0; -1] there give them zero
    # messages and pass the nonpositive-cavity test
    p = j.shape[0]
    idle = np.flatnonzero(~edges)
    fill = np.repeat([0.0, -1.0], idle.size)
    idle = np.concatenate((idle, idle + p * p))
    j_st2 = np.multiply(j, j)
    np.fill_diagonal(j_st2, 0.0)
    sums = np.empty((2, p))

    def cavities(beliefs, d, out):
        _cavity(beliefs.reshape(2, p, 1), d.reshape(2, p, p).transpose(0, 2, 1),
                out.reshape(2, p, p))
        np.put(out, idle, fill)

    def node_sums(d):
        # down axis 1 of C-ordered arrays: a running sum in source order
        return np.add.reduce(d.reshape(2, p, p), axis=1, out=sums)

    return j.reshape(-1), j_st2.reshape(-1), cavities, node_sums

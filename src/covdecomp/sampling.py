"""Gaussian sampling from the zero-mean decomposition models into plain
(n, p) arrays, one observation per row, the direct Wishart draw of a
sample covariance, sample-covariance formation, and the penalty
schedule used by the experiments."""

import numpy as np

from .errors import MalformedMatrix, PreconditionViolated
from .symmat import as_floats, checked_number


def derive_seed(seed, *indices):
    """Derive a child seed for a task from a base seed and index path.

    Uses a ``SeedSequence`` over (seed, path length, indices + 1), so
    parallel sweeps get reproducible per-cell streams regardless of
    execution order. The length term and index shift keep distinct
    paths distinct (SeedSequence ignores trailing zero entropy words).
    """
    if not all(checked_number(v, "seed or index", integer=True) >= 0 for v in (seed,) + indices):
        raise PreconditionViolated("seed and indices must be >= 0, got %r" % ((seed,) + indices,))
    entropy = (int(seed), len(indices)) + tuple(int(i) + 1 for i in indices)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def draw_samples(m, n, seed):
    """Draw n i.i.d. rows from N(0, Sigma) for a model's covariance.

    Rows are ``L z`` with L the lower Cholesky factor of the overall
    covariance and z standard normal from ``default_rng(seed)`` (PCG64), so
    identical (model, n, seed) inputs give bitwise-identical data.

    Returns
    -------
    ndarray, shape (n, p)
    """
    if not checked_number(n, "n", integer=True) >= 1:
        raise PreconditionViolated("n must be >= 1")
    _, chol, _ = m._overall
    return np.random.default_rng(seed).standard_normal((n, chol.shape[0])) @ chol.T


def draw_sample_covariance(m, n, seed):
    """Draw the sample covariance X^T X / n of n rows from N(0, Sigma),
    without drawing the rows.

    X^T X is Wishart(n, Sigma), which Bartlett's decomposition draws as
    ``(L B)(L B)^T``: L is the lower Cholesky factor of the overall
    covariance, and B is p x min(n, p) lower triangular, with
    ``sqrt(chi2(n - j))`` at (j, j) and standard normals below the
    diagonal, drawn in that order from ``default_rng(seed)``. The min(n, p)
    columns give the singular law when n < p. Costs O(p^3) time and
    O(p^2) memory whatever n is. Identical (model, n, seed) inputs give
    bitwise-identical matrices; the law is that of
    ``sample_covariance(draw_samples(m, n, seed))``, the random stream
    is not.
    """
    if not checked_number(n, "n", integer=True) >= 1:
        raise PreconditionViolated("n must be >= 1")
    _, chol, _ = m._overall
    p = chol.shape[0]
    k = min(n, p)
    rng = np.random.default_rng(seed)
    b = np.zeros((p, k))
    b[np.diag_indices(k)] = np.sqrt(rng.chisquare(n - np.arange(k)))
    below = np.tri(p, k, -1, dtype=bool)  # filled in row-major order, as drawn
    b[below] = rng.standard_normal(np.count_nonzero(below))
    lb = chol @ b
    w = np.matmul(lb, lb.T, out=b if k == p else None)  # b, if square, is free by now
    return np.divide(w, n, out=w)


def sample_covariance(data):
    """Uncentered second-moment matrix (1/n) sum_k x_k x_k^T.

    No mean subtraction: the estimator is defined for zero-mean data and
    matches the program's input convention exactly. Use
    :func:`sample_covariance_centered` for real-world data.
    """
    return _second_moment(data, centered=False)


def sample_covariance_centered(data):
    """Covariance of mean-subtracted data with 1/n normalization.

    The 1/n (not 1/(n-1)) factor keeps the centered and uncentered
    estimators on the same scale; ``fit --data`` applies it to a data CSV.
    Needs at least 2 rows, since one row's centered covariance is zero.
    """
    return _second_moment(data, centered=True)


def _second_moment(data, centered):
    # x^T x / n, about the column means when centered; x is checked first
    x = as_floats(data, "data")
    if x.ndim != 2 or min(x.shape) < 1:
        raise PreconditionViolated(
            "data must be an n x p array with n, p >= 1, got shape %s" % (x.shape,))
    if centered and x.shape[0] < 2:
        raise PreconditionViolated(
            "a centered covariance needs at least 2 rows of data, got 1")
    # an overflow shows as a non-finite entry, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        if centered:
            x = x - x.mean(axis=0)
        c = x.T @ x / x.shape[0]
    if not np.isfinite(c).all():
        raise MalformedMatrix("sample covariance entries must be finite")
    return 0.5 * (c + c.T)


def gamma_schedule(c_gamma, p, n):
    """Penalty level c_gamma * sqrt(ln(p) / n) (natural log)."""
    # each test is written so that NaN fails it
    if not checked_number(p, "p", integer=True) >= 2:
        raise PreconditionViolated("p must be >= 2")
    if not checked_number(n, "n") >= 1:
        raise PreconditionViolated("n must be >= 1")
    if not checked_number(c_gamma, "c_gamma") > 0:
        raise PreconditionViolated("c_gamma must be positive")
    return float(c_gamma * np.sqrt(np.log(p) / n))

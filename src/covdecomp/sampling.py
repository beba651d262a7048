"""Gaussian sampling from the zero-mean decomposition models into plain
(n, p) arrays, one observation per row, sample-covariance formation, and
the penalty schedule used by the experiments."""

import numpy as np

from .errors import MalformedMatrix, PreconditionViolated
from .symmat import as_floats


def derive_seed(seed, *indices):
    """Derive a child seed for a task from a base seed and index path.

    Uses a ``SeedSequence`` over (seed, path length, indices + 1), so
    parallel sweeps get reproducible per-cell streams regardless of
    execution order. The length term and index shift keep distinct
    paths distinct (SeedSequence ignores trailing zero entropy words).
    """
    entropy = (int(seed), len(indices)) + tuple(int(i) + 1 for i in indices)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def draw_samples(m, n, seed):
    """Draw n i.i.d. rows from N(0, Sigma) for a model's covariance.

    Rows are ``L z`` with L the lower Cholesky factor of the overall
    covariance and z standard normal from a PCG64 generator, so
    identical (model, n, seed) inputs give bitwise-identical data.

    Returns
    -------
    ndarray, shape (n, p)
    """
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    _, chol, _ = m._overall
    return np.random.default_rng(seed).standard_normal((n, chol.shape[0])) @ chol.T


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
    estimators on the same scale; intended for ingested real data.
    """
    return _second_moment(data, centered=True)


def _second_moment(data, centered):
    # x^T x / n, about the column means when centered; x is checked first
    x = as_floats(data, "data")
    if x.ndim != 2 or min(x.shape) < 1:
        raise PreconditionViolated(
            "data must be an n x p array with n, p >= 1, got shape %s" % (x.shape,))
    if centered:
        x = x - x.mean(axis=0)
    c = x.T @ x / x.shape[0]
    if not np.isfinite(c).all():
        raise MalformedMatrix("sample covariance entries must be finite")
    return 0.5 * (c + c.T)


def gamma_schedule(c_gamma, p, n):
    """Penalty level c_gamma * sqrt(ln(p) / n) (natural log)."""
    if p < 2:
        raise PreconditionViolated("p must be >= 2")
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if c_gamma <= 0:
        raise PreconditionViolated("c_gamma must be positive")
    return float(c_gamma * np.sqrt(np.log(p) / n))

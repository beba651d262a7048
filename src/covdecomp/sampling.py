"""Gaussian sampling from decomposition models and sample-covariance
formation, plus the penalty schedule used by the experiments."""

from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedMatrix, PreconditionViolated


@dataclass(frozen=True)
class SampleSet:
    """n x p observation matrix with its provenance.

    ``model_meta`` records where the data came from (generator name and
    parameters for synthetic data, column names for ingested files).
    """

    data: np.ndarray
    seed: int = None
    model_meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]


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
    """Draw n i.i.d. rows from N(mean, Sigma) for a model's covariance.

    Rows are ``mean + L z`` with L the lower Cholesky factor of the
    overall covariance and z standard normal from a PCG64 generator, so
    identical (model, n, seed) inputs give bitwise-identical data.

    Returns
    -------
    SampleSet
    """
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    _, chol, _ = m._overall
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, chol.shape[0]))
    data = m.mean + z @ chol.T
    meta = {"kind": "synthetic", "p": chol.shape[0], "lambda_star": m.lambda_star}
    return SampleSet(data=data, seed=seed, model_meta=meta)


def sample_covariance(s):
    """Uncentered second-moment matrix (1/n) sum_k x_k x_k^T.

    No mean subtraction: the estimator is defined for zero-mean data and
    matches the program's input convention exactly. Use
    :func:`sample_covariance_centered` for real-world data.

    Accepts a SampleSet or a raw (n, p) array.
    """
    return _second_moment(s, centered=False)


def sample_covariance_centered(s):
    """Covariance of mean-subtracted data with 1/n normalization.

    The 1/n (not 1/(n-1)) factor keeps the centered and uncentered
    estimators on the same scale; intended for ingested real data.

    Accepts a SampleSet or a raw (n, p) array.
    """
    return _second_moment(s, centered=True)


def _second_moment(s, centered):
    # x^T x / n for the (n, p) data x of a SampleSet or an array, its column
    # means subtracted first when centered; x is checked before any arithmetic
    x = np.asarray(s.data if isinstance(s, SampleSet) else s, dtype=float)
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

"""Support-recovery and estimation-error metrics.

Supports are binarized at a magnitude threshold (default 1e-6; the
solver's reported iterate carries exact zeros, so anything above the
threshold is a deliberate nonzero) into strictly upper-triangular
boolean masks. Edit distance counts unordered off-diagonal pairs in the
symmetric difference of two supports.
"""

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyTruthSupport, NotPositiveDefinite
from .symmat import inv_pd, shaped_like

logger = logging.getLogger(__name__)

DEFAULT_SUPPORT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class MetricsRecord:
    """One row of estimator-vs-truth comparisons."""

    edit_distance_markov: int
    edit_distance_residual: int
    normalized_edit_markov: float
    normalized_edit_residual: float
    linf_error_j: float
    linf_error_r: float
    linf_error_precision_overall: float
    spectral_error_sigma: float
    sign_consistent_r: bool
    sign_consistent_j: bool

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def support_of(m, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Mask of the unordered off-diagonal pairs (i<j) with magnitude above threshold.

    Returns a p x p boolean array, true only strictly above the diagonal.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return np.triu(np.abs(np.asarray(m, dtype=float)) > threshold, k=1)


def edit_distance(a, b, threshold):
    """Number of unordered pairs in exactly one of the two supports."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = shaped_like(b, a_arr, "edit_distance operand")
    differ = support_of(a_arr, threshold) ^ support_of(b_arr, threshold)
    return int(np.count_nonzero(differ))


def normalized_edit_distance(est, truth, threshold):
    """Edit distance divided by the truth's edge count.

    May exceed 1 when the estimate carries many spurious edges.
    """
    denom = int(np.count_nonzero(support_of(truth, threshold)))
    if denom == 0:
        raise EmptyTruthSupport("truth matrix has no off-diagonal support")
    return edit_distance(est, truth, threshold) / denom


def sign_consistency(est, truth, threshold):
    """True iff supports match exactly and signs agree on that support."""
    est_arr = np.asarray(est, dtype=float)
    truth_arr = shaped_like(truth, est_arr, "sign_consistency truth")
    support = support_of(truth_arr, threshold)
    if not np.array_equal(support_of(est_arr, threshold), support):
        return False
    return bool(np.all(est_arr[support] * truth_arr[support] > 0))


def overall_precision_error(j_hat, sigma_r_hat, truth_model):
    """Max-norm error of the implied overall precision matrix.

    Inverts ``j_hat^-1 - sigma_r_hat`` and compares against the inverse
    of the model's true overall covariance.
    """
    _, _, true_precision = truth_model._overall
    return _overall_precision_error(j_hat, sigma_r_hat, true_precision)


def _overall_precision_error(j_hat, sigma_r_hat, true_precision):
    j = np.asarray(j_hat, dtype=float)
    r = np.asarray(sigma_r_hat, dtype=float)
    try:
        overall_cov = inv_pd(j) - r
        est_precision = inv_pd(0.5 * (overall_cov + overall_cov.T))
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            "overall precision is undefined: j_hat or j_hat^-1 - sigma_r_hat "
            "is not positive definite"
        ) from None
    return float(np.abs(est_precision - true_precision).max())


def compare_to_truth(result, truth_model, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Build the full MetricsRecord for a solve against a known model.

    ``linf_error_precision_overall`` degrades to +inf instead of raising
    when the estimated overall covariance is indefinite, so sweep rows
    for bad cells still carry the remaining metrics.
    """
    j_hat = np.asarray(result.j_hat, dtype=float)
    r_hat = np.asarray(result.sigma_r_hat, dtype=float)
    j_true = np.asarray(truth_model.j_markov, dtype=float)
    r_true = np.asarray(truth_model.sigma_residual, dtype=float)
    sigma_true, _, true_precision = truth_model._overall
    try:
        overall_err = _overall_precision_error(result.j_hat, result.sigma_r_hat,
                                               true_precision)
    except NotPositiveDefinite:
        logger.warning("indefinite overall estimate; recording +inf precision error")
        overall_err = float("inf")
    overall_cov_err = (
        np.asarray(result.sigma_m_hat, dtype=float) - r_hat - sigma_true
    )
    spectral = float(np.abs(np.linalg.eigvalsh(
        0.5 * (overall_cov_err + overall_cov_err.T))).max())
    return MetricsRecord(
        edit_distance_markov=edit_distance(j_hat, j_true, threshold),
        edit_distance_residual=edit_distance(r_hat, r_true, threshold),
        normalized_edit_markov=normalized_edit_distance(j_hat, j_true, threshold),
        normalized_edit_residual=normalized_edit_distance(r_hat, r_true, threshold),
        linf_error_j=float(np.abs(j_hat - j_true).max()),
        linf_error_r=float(np.abs(r_hat - r_true).max()),
        linf_error_precision_overall=overall_err,
        spectral_error_sigma=spectral,
        sign_consistent_r=sign_consistency(r_hat, r_true, threshold),
        sign_consistent_j=sign_consistency(j_hat, j_true, threshold),
    )

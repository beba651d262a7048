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

from .errors import EmptyTruthSupport, NotPositiveDefinite, PreconditionViolated
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
        raise PreconditionViolated("threshold must be >= 0")
    return np.triu(np.abs(np.asarray(m, dtype=float)) > threshold, k=1)


def edit_distance(a, b, threshold):
    """Number of unordered pairs in exactly one of the two supports."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = shaped_like(b, a_arr, "edit_distance operand")
    return _edit(support_of(a_arr, threshold), support_of(b_arr, threshold))


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
    return _sign_consistent(est_arr, truth_arr, support_of(est_arr, threshold),
                            support_of(truth_arr, threshold))


# the three comparisons on supports formed once, as compare_to_truth needs

def _edit(sup_a, sup_b):
    return int(np.count_nonzero(sup_a ^ sup_b))


def _normalized_edit(sup_est, sup_truth):
    denom = int(np.count_nonzero(sup_truth))
    if denom == 0:
        raise EmptyTruthSupport("truth matrix has no off-diagonal support")
    return _edit(sup_est, sup_truth) / denom


def _sign_consistent(est, truth, sup_est, sup_truth):
    if not np.array_equal(sup_est, sup_truth):
        return False
    return bool(np.all(est[sup_truth] * truth[sup_truth] > 0))


def _overall_precision_error(sigma_m_hat, sigma_r_hat, true_precision):
    # sigma_m_hat is a result's exactly symmetric J^-1, and r is symmetric
    overall_cov = sigma_m_hat - sigma_r_hat
    try:
        est_precision = inv_pd(overall_cov)
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            "overall precision is undefined: sigma_m_hat - sigma_r_hat "
            "is not positive definite"
        ) from None
    return float(np.abs(est_precision - true_precision).max())


def compare_to_truth(result, truth_model, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Build the full MetricsRecord for a solve against a known model.

    ``linf_error_precision_overall`` degrades to +inf instead of raising
    when the estimated overall covariance is indefinite, so sweep rows
    for bad cells still carry the remaining metrics.
    """
    j_hat, r_hat = result.j_hat, result.sigma_r_hat
    j_true, r_true = truth_model.j_markov, truth_model.sigma_residual
    sigma_true, _, true_precision = truth_model._overall
    try:
        overall_err = _overall_precision_error(result.sigma_m_hat, result.sigma_r_hat,
                                               true_precision)
    except NotPositiveDefinite:
        logger.warning("indefinite overall estimate; recording +inf precision error")
        overall_err = float("inf")
    # a difference of exactly symmetric matrices, so exactly symmetric
    overall_cov_err = result.sigma_m_hat - r_hat - sigma_true
    spectral = float(np.abs(np.linalg.eigvalsh(overall_cov_err)).max())
    sup_j, sup_j_true, sup_r, sup_r_true = (
        support_of(m, threshold) for m in (j_hat, j_true, r_hat, r_true))
    return MetricsRecord(
        edit_distance_markov=_edit(sup_j, sup_j_true),
        edit_distance_residual=_edit(sup_r, sup_r_true),
        normalized_edit_markov=_normalized_edit(sup_j, sup_j_true),
        normalized_edit_residual=_normalized_edit(sup_r, sup_r_true),
        linf_error_j=float(np.abs(j_hat - j_true).max()),
        linf_error_r=float(np.abs(r_hat - r_true).max()),
        linf_error_precision_overall=overall_err,
        spectral_error_sigma=spectral,
        sign_consistent_r=_sign_consistent(r_hat, r_true, sup_r, sup_r_true),
        sign_consistent_j=_sign_consistent(j_hat, j_true, sup_j, sup_j_true),
    )

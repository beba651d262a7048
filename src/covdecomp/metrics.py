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
from .symmat import PdWorkspace, checked_number, checked_square, inv_pd, shaped_like

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
    Raises PreconditionViolated for a threshold that is not a number, or is
    negative or NaN, and what ``checked_square`` raises for a bad ``m``.
    """
    if not checked_number(threshold, "threshold") >= 0:
        raise PreconditionViolated("threshold must be >= 0")
    return np.triu(np.abs(checked_square(m, "matrix")) > threshold, k=1)


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


def _overall_precision_error(sigma_m_hat, sigma_r_hat, true_precision, out=None):
    # sigma_m_hat is a result's exactly symmetric J^-1, and r is symmetric;
    # their difference is formed, and factored, in out
    overall_cov = np.subtract(sigma_m_hat, sigma_r_hat, out=out)
    try:
        est = inv_pd(overall_cov, PdWorkspace(len(overall_cov), overall_cov))
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            "overall precision is undefined: sigma_m_hat - sigma_r_hat "
            "is not positive definite"
        ) from None
    return float(np.abs(np.subtract(est, true_precision, out=est), out=est).max())


def compare_to_truth(result, truth_model, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Build the full MetricsRecord for a solve against a known model.

    ``linf_error_precision_overall`` degrades to +inf instead of raising
    when the estimated overall covariance is indefinite, so sweep rows
    for bad cells still carry the remaining metrics. Raises
    ``DimensionMismatch`` when a result's matrix is not of the model's
    shape.
    """
    j_true, r_true = truth_model.j_markov, truth_model.sigma_residual
    j_hat, sigma_m_hat, r_hat = (shaped_like(getattr(result, name), j_true, name)
                                 for name in ("j_hat", "sigma_m_hat", "sigma_r_hat"))
    sigma_true, _, true_precision = truth_model._overall
    diff = np.empty(sigma_true.shape)  # the one buffer of every difference below
    try:
        overall_err = _overall_precision_error(sigma_m_hat, r_hat, true_precision, diff)
    except NotPositiveDefinite:
        logger.warning("indefinite overall estimate; recording +inf precision error")
        overall_err = float("inf")
    # a difference of exactly symmetric matrices, so exactly symmetric
    np.subtract(np.subtract(sigma_m_hat, r_hat, out=diff), sigma_true, out=diff)
    spectral = float(np.abs(np.linalg.eigvalsh(diff)).max())
    sup_j, sup_j_true, sup_r, sup_r_true = (
        support_of(m, threshold) for m in (j_hat, j_true, r_hat, r_true))
    return MetricsRecord(
        edit_distance_markov=_edit(sup_j, sup_j_true),
        edit_distance_residual=_edit(sup_r, sup_r_true),
        normalized_edit_markov=_normalized_edit(sup_j, sup_j_true),
        normalized_edit_residual=_normalized_edit(sup_r, sup_r_true),
        linf_error_j=float(np.abs(np.subtract(j_hat, j_true, out=diff), out=diff).max()),
        linf_error_r=float(np.abs(np.subtract(r_hat, r_true, out=diff), out=diff).max()),
        linf_error_precision_overall=overall_err,
        spectral_error_sigma=spectral,
        sign_consistent_r=_sign_consistent(r_hat, r_true, sup_r, sup_r_true),
        sign_consistent_j=_sign_consistent(j_hat, j_true, sup_j, sup_j_true),
    )

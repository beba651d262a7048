"""Proximal-gradient solver for the l1+linf penalized log-det program,
KKT-based residual extraction, duality-gap certification, the
soft-threshold limiting estimator, and the support-constrained witness
program.

The primal program solved here is

    min_{J > 0}  <Sigma_hat, J> - log det J + gamma ||J||_{1,off}
    subject to   ||J||_{inf,off} <= lambda_off.

Both programs share one loop (G-ISTA, Guillot et al. 2012): a gradient
step with a Barzilai-Borwein length, then an entrywise prox, halving the
length until the candidate has a Cholesky factor and passes a
nonmonotone sufficient-decrease test. It stops on the certified KKT
residual, and for the box program also on the duality gap.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InfeasibleConstraints,
                     NotPositiveDefinite, PreconditionViolated)
from .symmat import SymmetricMatrix, inv_pd, logdet_pd, shaped_like

logger = logging.getLogger(__name__)

# clip-detection band relative to the box: an off-diagonal entry with
# |J_ij| >= lambda_off - CLIP_TIE * lambda_off counts as clipped
CLIP_TIE = 1e-4

# a candidate must beat the largest of this many recent objective values
_HISTORY = 10
# step halvings tried before no step length counts as feasible
_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Regularization levels, iteration cap, and tolerances.

    ``lambda_off`` is the off-diagonal linf cap (may be +inf, which
    removes the box). ``eps_abs`` and ``eps_rel`` set the KKT bound a
    converged result meets and the duality gap the box program stops at.
    """

    gamma: float
    lambda_off: float
    max_iter: int = 5000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.gamma >= 0:
            raise PreconditionViolated("gamma must be >= 0")
        if not self.lambda_off > 0:
            raise PreconditionViolated("lambda_off must be positive (possibly +inf)")
        if not self.max_iter >= 1:
            raise PreconditionViolated("max_iter must be >= 1")
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise PreconditionViolated("eps_abs and eps_rel must be positive")


@dataclass
class SolveResult:
    """Solver output: estimates, certificates, and diagnostics.

    ``j_hat`` is the PD precision estimate; ``sigma_r_hat`` has an
    exactly zero diagonal and support inside the clip set, and the mask
    ``sign_conflicts`` (i < j) marks the residual entries zeroed for
    fighting the sign of ``j_hat``. Passing a result as ``warm_start``
    restarts the solver from its ``j_hat``.
    """

    j_hat: SymmetricMatrix
    sigma_m_hat: SymmetricMatrix
    sigma_r_hat: SymmetricMatrix
    z_gamma: SymmetricMatrix
    kkt_residual: float
    duality_gap: float
    iterations: int
    converged: bool
    overall_pd: bool
    min_eig_overall: float
    sign_conflicts: np.ndarray


def _checked_sigma(sigma_hat):
    sigma = np.asarray(sigma_hat, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch("sigma_hat must be square, got shape %s" % (sigma.shape,))
    if not np.isfinite(sigma).all():
        raise PreconditionViolated("sigma_hat has non-finite entries")
    if np.any(np.diag(sigma) <= 0):
        raise NotPositiveDefinite("sigma_hat needs a strictly positive diagonal")
    # <Sigma, J> over symmetric J sees only the symmetric part of Sigma
    return 0.5 * (sigma + sigma.T)


def _soft_threshold(m, level):
    # sign(m) (|m| - level)_+, in two array passes
    return m - np.clip(m, -level, level)


def _prox_gradient(sigma, cfg, prox, j, clip_mask=None, kkt_mask=None,
                   gap_tol=np.inf):
    # prox(m, t) maps a gradient step of length t onto the feasible set,
    # which must hold the PD start j.
    # Stops once the KKT residual is within eps_abs + eps_rel max(|Sigma|,
    # |J|), a tenth of the documented bound, and the gap within gap_tol.
    # Returns (J, J^-1, iterations, converged, _certificate(J)).

    def objective(a, chol):
        # a is PD, so its diagonal is positive and |a|_1,off = |a|_1 - tr a
        return (float(np.sum(sigma * a)) - 2.0 * float(np.log(np.diag(chol)).sum())
                + cfg.gamma * float(np.abs(a).sum() - np.trace(a)))

    try:
        chol = np.linalg.cholesky(j)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("starting point is not positive definite") from None
    history = [objective(j, chol)]
    j_inv = inv_pd(j, chol)
    t = 1.0
    for it in range(1, cfg.max_iter + 1):
        grad = sigma - j_inv
        for _ in range(_BACKTRACKS):
            cand = prox(j - t * grad, t)
            try:
                chol = np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            f = objective(cand, chol)
            step = cand - j
            ss = float(np.sum(step * step))
            if f <= max(history) - 1e-4 * ss / t:
                break
            t *= 0.5
        else:
            raise InfeasibleConstraints(
                "no step length gives a positive definite iterate (iteration %d)" % it)
        cand_inv = inv_pd(cand, chol)
        # Barzilai-Borwein length <s,s>/<s,y> with y the gradient change;
        # <s,y> > 0 by strict convexity of -log det unless the step vanished
        sy = float(np.sum(step * (j_inv - cand_inv)))
        if sy > 0:
            t = ss / sy
        j, j_inv = cand, cand_inv
        history = (history + [f])[-_HISTORY:]
        stop = cfg.eps_abs + cfg.eps_rel * max(np.abs(sigma).max(), np.abs(j).max())
        # the diagonal is part of every KKT residual and costs O(p)
        if np.abs(np.diag(sigma) - np.diag(j_inv)).max() > stop:
            continue
        cert = _certificate(j, j_inv, sigma, cfg, clip_mask, kkt_mask)
        if cert[0] <= stop and abs(_gap(j, sigma, cert[2], cfg)) <= gap_tol:
            return j, j_inv, it, True, cert
    logger.warning("solver hit max_iter=%d without converging", cfg.max_iter)
    cert = _certificate(j, j_inv, sigma, cfg, clip_mask, kkt_mask)
    return j, j_inv, cfg.max_iter, False, cert


def _clip_mask(j_hat, cfg):
    # may include diagonal entries; _extract zeroes the diagonal
    if not np.isfinite(cfg.lambda_off):
        return np.zeros(j_hat.shape, dtype=bool)
    return np.abs(j_hat) >= cfg.lambda_off - CLIP_TIE * cfg.lambda_off


def _extract(j_hat, j_inv, sigma, z_gamma, cfg, clip_mask):
    vals = j_inv - sigma - cfg.gamma * z_gamma
    r = np.where(clip_mask, vals, 0.0)
    np.fill_diagonal(r, 0.0)
    r = 0.5 * (r + r.T)
    # multipliers are nonnegative, so a residual whose sign fights the
    # precision entry is boundary noise; zero it and report the pair
    conflict = (r != 0.0) & (r * np.sign(j_hat) < -1e-8)
    r[conflict] = 0.0
    return r, np.triu(conflict, k=1)


def _certificate(j_hat, j_inv, sigma, cfg, clip_mask=None, kkt_mask=None):
    # (kkt, z_gamma, residual, sign conflicts) of one iterate; the KKT
    # residual is read on kkt_mask only when one is given.
    # z_gamma is sign(J_ij) off the zero set; on exact zeros the
    # stationarity system implies the interior value (J^-1 - Sigma)_ij /
    # gamma, clipped to the unit interval. Without the interior term the
    # KKT residual would artificially read ~gamma on every zeroed entry.
    zg = np.where(np.abs(j_hat) > 1e-8, np.sign(j_hat), 0.0)
    if cfg.gamma > 0:
        interior = np.clip((j_inv - sigma) / cfg.gamma, -1.0, 1.0)
        zg = np.where(np.abs(j_hat) > 1e-8, zg, interior)
    np.fill_diagonal(zg, 0.0)
    zg = 0.5 * (zg + zg.T)
    mask = _clip_mask(j_hat, cfg) if clip_mask is None else clip_mask
    r, conflicts = _extract(j_hat, j_inv, sigma, zg, cfg, mask)
    stationarity = sigma - j_inv + r + cfg.gamma * zg
    if kkt_mask is not None:
        stationarity = stationarity[kkt_mask]
    return float(np.abs(stationarity).max()), zg, r, conflicts


def _sym_mask(a, sigma, name):
    # a p x p boolean mask in which (i,j) implies (j,i)
    mask = shaped_like(a, sigma, name, dtype=bool)
    return mask | mask.T


def soft_threshold_covariance(sigma_hat, gamma):
    """Negative soft-threshold estimator, the lambda -> 0 limit.

    Returns
    -------
    sigma_estimate : SymmetricMatrix
        Diagonal of Sigma_hat with soft-thresholded off-diagonals.
    sigma_r : SymmetricMatrix
        Off-diagonal entries sign(-x)(|x| - gamma)_+ of Sigma_hat,
        zero diagonal; satisfies sigma_estimate_off == -sigma_r_off.
    """
    if gamma < 0:
        raise PreconditionViolated("gamma must be >= 0")
    s = np.asarray(sigma_hat, dtype=float)
    shrunk = np.sign(s) * np.maximum(np.abs(s) - gamma, 0.0)
    r = -shrunk
    np.fill_diagonal(r, 0.0)
    est = shrunk.copy()
    np.fill_diagonal(est, np.diag(s))
    return SymmetricMatrix(est), SymmetricMatrix(r)


def _gap(j_hat, sigma, sigma_r, cfg):
    # duality_gap where Sigma_M = J^-1, so the log-determinants cancel;
    # J is PD, so |J|_1,off = |J|_1 - tr J
    r_l1 = float(np.abs(sigma_r).sum() - np.abs(np.diag(sigma_r)).sum())
    lam_term = cfg.lambda_off * r_l1 if r_l1 > 0 else 0.0
    return (float(np.sum(sigma * j_hat)) - sigma.shape[0] + lam_term
            + cfg.gamma * float(np.abs(j_hat).sum() - np.trace(j_hat)))


def duality_gap(result, sigma_hat, cfg):
    """Primal minus dual objective with the analytic +p shift.

    The shift comes from substituting the stationarity identity
    <Sigma_hat, J> = p - lambda ||Sigma_R||_{1,off} - gamma ||J||_{1,off}
    into the dual; at the optimum the gap is zero. Raises
    ``DimensionMismatch`` for a non-square sigma_hat or a result of
    another size, ``PreconditionViolated`` for a non-finite sigma_hat and
    ``NotPositiveDefinite`` when j_hat or sigma_m_hat is not PD.
    """
    sigma = _checked_sigma(sigma_hat)
    j_hat, sigma_m, sigma_r = (
        shaped_like(getattr(result, name), sigma, name)
        for name in ("j_hat", "sigma_m_hat", "sigma_r_hat"))
    return _gap(j_hat, sigma, sigma_r, cfg) - logdet_pd(j_hat) - logdet_pd(sigma_m)


def _finalize(solved, sigma, cfg):
    j_hat, j_inv, iterations, converged, (kkt, zg, r, conflicts) = solved
    if conflicts.any():
        logger.warning("zeroed %d sign-conflicting residual entries",
                       np.count_nonzero(conflicts))
    # spectral check of the overall covariance estimate Sigma_M - Sigma_R
    overall = j_inv - r
    min_eig = float(np.linalg.eigvalsh(0.5 * (overall + overall.T)).min())
    return SolveResult(
        j_hat=SymmetricMatrix(j_hat),
        sigma_m_hat=SymmetricMatrix(j_inv),
        sigma_r_hat=SymmetricMatrix(r),
        z_gamma=SymmetricMatrix(zg),
        kkt_residual=kkt,
        duality_gap=_gap(j_hat, sigma, r, cfg),
        iterations=iterations,
        converged=converged,
        overall_pd=min_eig > 0,
        min_eig_overall=min_eig,
        sign_conflicts=conflicts,
    )


def admm_solve(sigma_hat, cfg, warm_start=None):
    """Solve the penalized program for a sample covariance.

    Parameters
    ----------
    sigma_hat : SymmetricMatrix or ndarray
        Square, finite input with strictly positive diagonal; only its
        symmetric part enters the program.
    cfg : SolverConfig
    warm_start : SolveResult, optional
        Restart from a previous solution's ``j_hat`` when it lies inside
        the box; a re-solve from an optimum converges in one iteration.

    Returns
    -------
    SolveResult
        ``converged`` is True when the KKT residual is within 10 (eps_abs
        + eps_rel max(|Sigma|, |J|)) and the duality gap within 10 eps_abs;
        else max_iter ran out, and the last iterate is returned with a warning.

    Raises
    ------
    DimensionMismatch
        If sigma_hat is not square or the warm start's size differs.
    PreconditionViolated
        If sigma_hat has a non-finite entry, or if gamma is 0 and
        lambda_off infinite while sigma_hat is not PD: that program is
        unbounded below.
    """
    sigma = _checked_sigma(sigma_hat)
    if cfg.gamma == 0 and not np.isfinite(cfg.lambda_off):
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise PreconditionViolated(
                "gamma = 0 with no box is unbounded unless sigma_hat is "
                "positive definite") from None

    def prox(m, t):
        a = np.clip(_soft_threshold(m, cfg.gamma * t), -cfg.lambda_off, cfg.lambda_off)
        np.fill_diagonal(a, np.diag(m))
        return a

    j = np.diag(1.0 / np.diag(sigma))
    if warm_start is not None:
        warm = shaped_like(warm_start.j_hat, sigma, "warm start")
        # a warm start outside this box (from a wider one) restarts cold
        if np.array_equal(prox(warm, 0.0), warm):
            j = warm

    solved = _prox_gradient(sigma, cfg, prox, j, gap_tol=10.0 * cfg.eps_abs)
    return _finalize(solved, sigma, cfg)


def witness_solve(sigma_hat, s_m, s_r, signs_on_sr, cfg):
    """Solve the support-constrained companion program.

    ``s_m`` and ``s_r`` are p x p boolean masks (as ``partition_pairs``
    returns them) in which (i,j) implies (j,i), and ``signs_on_sr`` is a
    p x p array read on ``s_r``. Off-diagonal entries outside ``s_m`` are
    fixed to zero, entries on ``s_r`` to ``lambda_off * sign``, and the
    free entries (s_m minus s_r, off-diagonal) carry the l1 penalty with
    no box. The residual is extracted on ``s_r`` from the
    equality-constraint multipliers, and the KKT residual is evaluated on
    the free set and the diagonal only; ``converged`` follows the same KKT
    rule as ``admm_solve``. The solve starts from the fixed pattern with a
    diagonally dominant diagonal.

    Raises
    ------
    InfeasibleConstraints
        If no step length keeps an iterate positive definite; with the
        diagonal free this is a breakdown, not an infeasible program.
    DimensionMismatch
        If sigma_hat is not square, or s_m, s_r or signs_on_sr is not of
        its shape.
    PreconditionViolated
        If sigma_hat has a non-finite entry, lambda_off is infinite,
        s_r is not inside s_m, or the diagonal is not inside s_m.
    """
    sigma = _checked_sigma(sigma_hat)
    if not np.isfinite(cfg.lambda_off):
        raise PreconditionViolated("witness program needs a finite lambda_off")
    mask_m = _sym_mask(s_m, sigma, "s_m")
    mask_r = _sym_mask(s_r, sigma, "s_r")
    signs = np.sign(shaped_like(signs_on_sr, sigma, "signs_on_sr"))
    if not np.all(np.diag(mask_m)):
        raise PreconditionViolated("s_m must contain the diagonal")
    if np.any(mask_r & ~mask_m) or np.any(np.diag(mask_r)):
        raise PreconditionViolated("s_r must be off-diagonal and inside s_m")
    if np.any(signs[mask_r] == 0):
        raise PreconditionViolated("signs_on_sr must be nonzero on every s_r pair")
    fixed_r = np.where(mask_r, cfg.lambda_off * signs, 0.0)
    eye = np.eye(sigma.shape[0], dtype=bool)
    free_off = mask_m & ~mask_r & ~eye

    def prox(m, t):
        # fixed_r is zero off s_r, which also zeroes the pairs outside s_m
        a = np.where(free_off, _soft_threshold(m, cfg.gamma * t), fixed_r)
        np.fill_diagonal(a, np.diag(m))
        return a

    start = fixed_r + np.diag(
        np.maximum(1.0 / np.diag(sigma), np.abs(fixed_r).sum(axis=1) + 1.0))
    solved = _prox_gradient(sigma, cfg, prox, start, clip_mask=mask_r,
                            kkt_mask=free_off | eye)
    return _finalize(solved, sigma, cfg)

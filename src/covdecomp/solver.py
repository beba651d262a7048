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
from .symmat import PdWorkspace, SymmetricMatrix, logdet_pd, shaped_like

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


def _soft_threshold(m, level, out):
    # sign(m) (|m| - level)_+ into out, in two array passes. At level 0 it
    # changes only -0.0 (to 0.0), which no iterate carries off the
    # diagonal, so the proxes skip it when gamma is 0.
    np.clip(m, -level, level, out=out)
    return np.subtract(m, out, out=out)


class _Workspace:
    """The p x p buffers of one solve; no iteration allocates another.

    ``j`` and ``j_inv`` hold the iterate and its inverse, ``cand`` and
    ``cand_inv`` the trial point's; an accepted trial swaps the pairs.
    ``grad`` holds the gradient and ``step`` the gradient step and then
    the accepted step. ``tmp`` takes the products that are summed, and
    ``zg``, ``r``, ``flags`` the certificate.
    """

    def __init__(self, p):
        self.pd = PdWorkspace(p)
        (self.j, self.j_inv, self.cand, self.cand_inv, self.grad, self.step,
         self.tmp, self.zg, self.r) = (np.empty((p, p)) for _ in range(9))
        self.flags = np.empty((p, p), dtype=bool)

    def accept(self):
        self.j, self.cand = self.cand, self.j
        self.j_inv, self.cand_inv = self.cand_inv, self.j_inv


def _prox_gradient(sigma, cfg, prox, j, clip_mask=None, kkt_mask=None,
                   gap_tol=np.inf):
    # prox(m, t, out) writes into out the map of a gradient step m of
    # length t onto the feasible set, which must hold the PD start j;
    # every iterate is exactly symmetric, since sigma, the start and the
    # prox are.
    # Stops once the KKT residual is within eps_abs + eps_rel max(|Sigma|,
    # |J|), a tenth of the documented bound, and the gap within gap_tol.
    # Returns (J, J^-1, iterations, converged, _certificate(J)).
    # Every sum that steers the iterates is a pairwise np.sum over an
    # elementwise product: backtracking reacts to summation noise, so a
    # BLAS dot product in its place changes iteration counts.
    ws = _Workspace(sigma.shape[0])
    sigma_max = np.abs(sigma).max()
    sigma_diag = np.diag(sigma)

    def objective(a, chol_diag):
        # a is PD, so its diagonal is positive and |a|_1,off = |a|_1 - tr a
        f = (float(np.sum(np.multiply(sigma, a, out=ws.tmp)))
             - 2.0 * float(np.log(chol_diag).sum()))
        if cfg.gamma > 0:
            f += cfg.gamma * float(np.abs(a, out=ws.tmp).sum() - np.trace(a))
        return f

    def certificate(j, j_inv):
        return _certificate(j, j_inv, sigma, cfg, clip_mask, kkt_mask,
                            (ws.zg, ws.r, ws.tmp, ws.grad, ws.flags))

    np.copyto(ws.j, j)
    chol_diag = ws.pd.factor(ws.j)
    if chol_diag is None:
        raise NotPositiveDefinite("starting point is not positive definite")
    history = [objective(ws.j, chol_diag)]
    ws.j_inv = ws.pd.inverse(ws.j_inv)
    t = 1.0
    for it in range(1, cfg.max_iter + 1):
        np.subtract(sigma, ws.j_inv, out=ws.grad)
        for _ in range(_BACKTRACKS):
            np.multiply(ws.grad, t, out=ws.step)
            np.subtract(ws.j, ws.step, out=ws.step)
            prox(ws.step, t, ws.cand)
            chol_diag = ws.pd.factor(ws.cand)
            if chol_diag is None:
                t *= 0.5
                continue
            f = objective(ws.cand, chol_diag)
            np.subtract(ws.cand, ws.j, out=ws.step)
            ss = float(np.sum(np.multiply(ws.step, ws.step, out=ws.tmp)))
            if f <= max(history) - 1e-4 * ss / t:
                break
            t *= 0.5
        else:
            raise InfeasibleConstraints(
                "no step length gives a positive definite iterate (iteration %d)" % it)
        ws.cand_inv = ws.pd.inverse(ws.cand_inv)
        # Barzilai-Borwein length <s,s>/<s,y> with y the gradient change;
        # <s,y> > 0 by strict convexity of -log det unless the step vanished
        np.subtract(ws.j_inv, ws.cand_inv, out=ws.tmp)
        sy = float(np.sum(np.multiply(ws.step, ws.tmp, out=ws.tmp)))
        if sy > 0:
            t = ss / sy
        ws.accept()
        history = (history + [f])[-_HISTORY:]
        stop = cfg.eps_abs + cfg.eps_rel * max(sigma_max, ws.j.max(), -ws.j.min())
        # the diagonal is part of every KKT residual and costs O(p)
        if np.abs(sigma_diag - ws.j_inv.diagonal()).max() > stop:
            continue
        cert = certificate(ws.j, ws.j_inv)
        if (cert[0] <= stop
                and abs(_gap(ws.j, sigma, cert[2], cfg, ws.tmp)) <= gap_tol):
            return ws.j, ws.j_inv, it, True, cert
    logger.warning("solver hit max_iter=%d without converging", cfg.max_iter)
    return ws.j, ws.j_inv, cfg.max_iter, False, certificate(ws.j, ws.j_inv)


def _certificate(j_hat, j_inv, sigma, cfg, clip_mask=None, kkt_mask=None,
                 scratch=None):
    # (kkt, z_gamma, residual, sign conflicts) of one iterate; the KKT
    # residual is read on kkt_mask only when one is given. The conflict
    # mask is symmetric. scratch holds four p x p float buffers and one
    # boolean one, the first two returned as z_gamma and the residual;
    # fresh ones are taken without it.
    # z_gamma is sign(J_ij) off the zero set; on exact zeros the
    # stationarity system implies the interior value (J^-1 - Sigma)_ij /
    # gamma, clipped to the unit interval. Without the interior term the
    # KKT residual would artificially read ~gamma on every zeroed entry.
    # Clipping before the division keeps a subnormal gamma from
    # overflowing; for a normal gamma the result is bitwise the same.
    # J, J^-1 and Sigma are exactly symmetric, and so is every matrix
    # formed here.
    if scratch is None:
        scratch = [np.empty_like(sigma) for _ in range(4)]
        scratch.append(np.empty(sigma.shape, dtype=bool))
    zg, r, tmp, tmp2, flags = scratch
    if cfg.gamma > 0:
        np.subtract(j_inv, sigma, out=zg)
        np.clip(zg, -cfg.gamma, cfg.gamma, out=zg)
        np.divide(zg, cfg.gamma, out=zg)
    else:
        zg.fill(0.0)
    np.greater(np.abs(j_hat, out=tmp), 1e-8, out=flags)
    np.copyto(zg, np.sign(j_hat, out=tmp), where=flags)
    np.fill_diagonal(zg, 0.0)
    # the residual: J^-1 - Sigma - gamma z_gamma on the clip set
    if clip_mask is None:
        clip_mask = _clip_mask(j_hat, cfg, tmp, flags)
    np.subtract(j_inv, sigma, out=tmp)
    np.subtract(tmp, np.multiply(zg, cfg.gamma, out=tmp2), out=tmp)
    r.fill(0.0)
    np.copyto(r, tmp, where=clip_mask)
    np.fill_diagonal(r, 0.0)
    # multipliers are nonnegative, so a residual whose sign fights the
    # precision entry is boundary noise; zero it and report the pair
    conflicts = np.less(np.multiply(r, np.sign(j_hat, out=tmp), out=tmp), -1e-8,
                        out=flags)
    np.copyto(r, 0.0, where=conflicts)
    stationarity = np.add(np.subtract(sigma, j_inv, out=tmp), r, out=tmp)
    if cfg.gamma > 0:
        stationarity += np.multiply(zg, cfg.gamma, out=tmp2)
    np.abs(stationarity, out=stationarity)
    kkt = stationarity.max(initial=0.0, where=True if kkt_mask is None else kkt_mask)
    return float(kkt), zg, r, conflicts


def _clip_mask(j_hat, cfg, tmp, out):
    # may include diagonal entries; _certificate zeroes the diagonal
    if not np.isfinite(cfg.lambda_off):
        out.fill(False)
        return out
    return np.greater_equal(np.abs(j_hat, out=tmp),
                            cfg.lambda_off - CLIP_TIE * cfg.lambda_off, out=out)


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


def _gap(j_hat, sigma, sigma_r, cfg, tmp=None):
    # duality_gap where Sigma_M = J^-1, so the log-determinants cancel;
    # J is PD, so |J|_1,off = |J|_1 - tr J. tmp is a p x p scratch buffer.
    r_l1 = float(np.abs(sigma_r, out=tmp).sum() - np.abs(np.diag(sigma_r)).sum())
    lam_term = cfg.lambda_off * r_l1 if r_l1 > 0 else 0.0
    gap = float(np.sum(np.multiply(sigma, j_hat, out=tmp))) - sigma.shape[0] + lam_term
    if cfg.gamma > 0:
        gap += cfg.gamma * float(np.abs(j_hat, out=tmp).sum() - np.trace(j_hat))
    return gap


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
    conflicts = np.triu(conflicts, k=1)
    if conflicts.any():
        logger.warning("zeroed %d sign-conflicting residual entries",
                       np.count_nonzero(conflicts))
    # spectral check of the overall covariance estimate Sigma_M - Sigma_R,
    # exactly symmetric as J^-1 and the residual are
    overall = j_inv - r
    min_eig = float(np.linalg.eigvalsh(overall).min())
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

    def prox(m, t, out):
        shrunk = _soft_threshold(m, cfg.gamma * t, out) if cfg.gamma > 0 else m
        np.clip(shrunk, -cfg.lambda_off, cfg.lambda_off, out=out)
        np.fill_diagonal(out, m.diagonal())

    j = np.diag(1.0 / np.diag(sigma))
    if warm_start is not None:
        warm = shaped_like(warm_start.j_hat, sigma, "warm start")
        # a warm start outside this box (from a wider one) restarts cold
        boxed = np.empty_like(warm)
        prox(warm, 0.0, boxed)
        if np.array_equal(boxed, warm):
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
        s_r is not inside s_m, the diagonal is not inside s_m, or
        signs_on_sr is zero on an s_r pair or differs in sign between
        (i,j) and (j,i).
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
    clash = np.argwhere(mask_r & (signs != signs.T))
    if clash.size:
        i, k = clash[0]
        raise PreconditionViolated(
            "signs_on_sr gives opposite signs at (%d, %d) and (%d, %d)" % (i, k, k, i))
    fixed_r = np.where(mask_r, cfg.lambda_off * signs, 0.0)
    eye = np.eye(sigma.shape[0], dtype=bool)
    free_off = mask_m & ~mask_r & ~eye
    pinned = ~free_off

    def prox(m, t, out):
        if cfg.gamma > 0:
            _soft_threshold(m, cfg.gamma * t, out)
        else:
            np.copyto(out, m)
        # fixed_r is zero off s_r, which also zeroes the pairs outside s_m
        np.copyto(out, fixed_r, where=pinned)
        np.fill_diagonal(out, m.diagonal())

    start = fixed_r + np.diag(
        np.maximum(1.0 / np.diag(sigma), np.abs(fixed_r).sum(axis=1) + 1.0))
    solved = _prox_gradient(sigma, cfg, prox, start, clip_mask=mask_r,
                            kkt_mask=free_off | eye)
    return _finalize(solved, sigma, cfg)

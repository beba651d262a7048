"""ADMM solver for the l1+linf penalized log-det program, KKT-based
residual extraction, duality-gap certification, the soft-threshold
limiting estimator, and the support-constrained witness program.

The primal program solved here is

    min_{J > 0}  <Sigma_hat, J> - log det J + gamma ||J||_{1,off}
    subject to   ||J||_{inf,off} <= lambda_off.

Consensus splitting J = Z gives closed-form proximal steps: the J-update
is an eigendecomposition, the Z-update is entrywise soft-thresholding
followed by clamping to the box.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraints, NotPositiveDefinite, PreconditionViolated
from .symmat import SymmetricMatrix, logdet_pd

logger = logging.getLogger(__name__)

# scalar telemetry of every solve, consumed by the acceptance suite's
# certification check; entries are small dicts, never matrices
solve_log = []

# clip-detection band relative to the box: an off-diagonal entry with
# |J_ij| >= lambda_off - CLIP_TIE * lambda_off counts as clipped
CLIP_TIE = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Regularization levels, iteration cap, and tolerances.

    ``lambda_off`` is the off-diagonal linf cap (may be +inf, which
    removes the box). ``eps_abs`` and ``eps_rel`` set both the ADMM
    stopping rule and the KKT bound a converged result must meet.
    """

    gamma: float
    lambda_off: float
    max_iter: int = 5000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not self.lambda_off > 0:
            raise ValueError("lambda_off must be positive (possibly +inf)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ValueError("eps_abs and eps_rel must be positive")


@dataclass
class SolveResult:
    """Solver output: estimates, certificates, and diagnostics.

    ``j_hat`` is the PD precision estimate; ``sigma_r_hat`` has an
    exactly zero diagonal and support inside the clip set. ``u_scaled``
    and ``rho_final`` let a subsequent solve warm-start from this one.
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
    rho_final: float = 1.0
    u_scaled: np.ndarray = None
    sign_conflicts: tuple = ()


def _prox_logdet(rhs, rho):
    # argmin <Sigma,J> - logdet J + rho/2 |J - (Z-U)|^2 via eigenvalue map
    d, q = np.linalg.eigh(rhs)
    theta = (d + np.sqrt(d * d + 4.0 * rho)) / (2.0 * rho)
    j = (q * theta) @ q.T
    return 0.5 * (j + j.T)


def _admm_loop(sigma, cfg, z_prox, warm_start=None, infeasibility_guard=False):
    # a cold start begins at the inverse diagonal with rho = 1; a warm
    # start resumes from a previous result's iterate, dual and rho
    if warm_start is None:
        z = np.diag(1.0 / np.diag(sigma))
        u = np.zeros_like(sigma)
        rho = 1.0
    else:
        z = np.array(warm_start.j_hat, dtype=float)
        u = np.array(warm_start.u_scaled, dtype=float)
        rho = warm_start.rho_final
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        j = _prox_logdet(rho * (z - u) - sigma, rho)
        z_old = z
        z = z_prox(j + u, rho)
        u = u + (j - z)
        if infeasibility_guard:
            u_max = np.abs(u).max()
            if not np.isfinite(u_max) or u_max > 1e8:
                raise InfeasibleConstraints(
                    "support-constrained program diverged (|U|_inf = %.3e)" % u_max
                )
        r_pri = np.abs(j - z).max()
        r_dual = rho * np.abs(z - z_old).max()
        eps_pri = cfg.eps_abs + cfg.eps_rel * max(np.abs(j).max(), np.abs(z).max())
        eps_dual = cfg.eps_abs + cfg.eps_rel * rho * np.abs(u).max()
        if r_pri <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
        if it % 10 == 0:
            if r_pri > 10.0 * r_dual and rho < 1e3:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_pri and rho > 1e-3:
                rho /= 2.0
                u *= 2.0
    if infeasibility_guard and not converged:
        # when the equality pattern has no PD completion the scaled dual
        # grows linearly while the primal residual stalls at a constant;
        # a bounded dual merely means the run was cut short
        scale = max(np.abs(j).max(), np.abs(z).max(), 1.0)
        if np.abs(u).max() > 100.0 * scale:
            raise InfeasibleConstraints(
                "support-constrained program diverged "
                "(|U|_inf = %.3e after %d iterations)" % (np.abs(u).max(), it)
            )
    if not converged:
        logger.warning("ADMM hit max_iter=%d without converging", cfg.max_iter)
    return j, z, u, rho, it, converged


def _pair_mask(pairs, p):
    mask = np.zeros((p, p), dtype=bool)
    for a, b in pairs:
        mask[a, b] = mask[b, a] = True
    return mask


def _subgradient_certificate(j_hat, j_inv, sigma, gamma):
    # sign(J_ij) off the zero set; on exact zeros the stationarity system
    # implies the interior value (J^-1 - Sigma)_ij / gamma, clipped to the
    # unit interval. Without the interior term the KKT residual would
    # artificially read ~gamma on every zeroed entry.
    zg = np.where(np.abs(j_hat) > 1e-8, np.sign(j_hat), 0.0)
    if gamma > 0:
        interior = np.clip((j_inv - sigma) / gamma, -1.0, 1.0)
        zg = np.where(np.abs(j_hat) > 1e-8, zg, interior)
    np.fill_diagonal(zg, 0.0)
    return 0.5 * (zg + zg.T)


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
    conflicts = tuple(
        (int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(conflict)))
    )
    r[conflict] = 0.0
    if conflicts:
        logger.warning("zeroed %d sign-conflicting residual entries", len(conflicts))
    return r, conflicts


def extract_residual(j_hat, sigma_hat, z_gamma, cfg, clip_pairs=None):
    """Recover the residual covariance from the stationarity identity.

    Entries are ``(J^-1 - Sigma_hat - gamma z_gamma)_ij`` on the clip
    set {|j_hat_ij| >= (1 - CLIP_TIE) lambda_off, i != j} and zero elsewhere;
    sign conflicts with j_hat beyond 1e-8 are zeroed (and logged).
    ``clip_pairs`` overrides the detected clip set (the witness program
    extracts on its fixed S_R).
    """
    j = np.asarray(j_hat, dtype=float)
    sigma = np.asarray(sigma_hat, dtype=float)
    zg = np.asarray(z_gamma, dtype=float)
    j_inv = np.linalg.inv(j)
    j_inv = 0.5 * (j_inv + j_inv.T)
    if clip_pairs is None:
        mask = _clip_mask(j, cfg)
    else:
        mask = _pair_mask(clip_pairs, j.shape[0])
    r, _ = _extract(j, j_inv, sigma, zg, cfg, mask)
    return SymmetricMatrix(r)


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
        raise ValueError("gamma must be >= 0")
    s = np.asarray(sigma_hat, dtype=float)
    shrunk = np.sign(s) * np.maximum(np.abs(s) - gamma, 0.0)
    r = -shrunk
    np.fill_diagonal(r, 0.0)
    est = shrunk.copy()
    np.fill_diagonal(est, np.diag(s))
    return SymmetricMatrix(est), SymmetricMatrix(r)


def _objective_gap(j_hat, sigma, sigma_m, sigma_r, cfg):
    p = sigma.shape[0]
    off = ~np.eye(p, dtype=bool)
    primal = (
        float(np.sum(sigma * j_hat))
        - logdet_pd(j_hat)
        + cfg.gamma * float(np.abs(j_hat[off]).sum())
    )
    r_l1 = float(np.abs(sigma_r[off]).sum())
    lam_term = cfg.lambda_off * r_l1 if r_l1 > 0 else 0.0
    dual = logdet_pd(sigma_m) - lam_term
    return primal - dual - p


def duality_gap(result, sigma_hat, cfg):
    """Primal minus dual objective with the analytic +p shift.

    The shift comes from substituting the stationarity identity
    <Sigma_hat, J> = p - lambda ||Sigma_R||_{1,off} - gamma ||J||_{1,off}
    into the dual; at the optimum the gap is zero.
    """
    return _objective_gap(
        np.asarray(result.j_hat), np.asarray(sigma_hat, dtype=float),
        np.asarray(result.sigma_m_hat), np.asarray(result.sigma_r_hat), cfg,
    )


def post_check_overall_pd(result):
    """Spectral check of the overall covariance estimate.

    Computes lambda_min(sigma_m_hat - sigma_r_hat), stores both fields
    on the result, and returns ``(pd, min_eig)``.
    """
    overall = np.asarray(result.sigma_m_hat) - np.asarray(result.sigma_r_hat)
    min_eig = float(np.linalg.eigvalsh(0.5 * (overall + overall.T)).min())
    result.min_eig_overall = min_eig
    result.overall_pd = bool(min_eig > 0)
    return result.overall_pd, result.min_eig_overall


def _finalize(j_cand, z_cand, u, rho, iterations, converged, sigma, cfg,
              clip_mask=None, kkt_mask=None, record_gap=True):
    # the Z iterate carries the exact zeros and exact clips produced by
    # the prox; report it whenever it is PD, else fall back to J
    try:
        np.linalg.cholesky(z_cand)
        j_hat = z_cand
    except np.linalg.LinAlgError:
        j_hat = j_cand
    j_inv = np.linalg.inv(j_hat)
    j_inv = 0.5 * (j_inv + j_inv.T)
    zg = _subgradient_certificate(j_hat, j_inv, sigma, cfg.gamma)
    mask = _clip_mask(j_hat, cfg) if clip_mask is None else clip_mask
    r, conflicts = _extract(j_hat, j_inv, sigma, zg, cfg, mask)
    stationarity = sigma - j_inv + r + cfg.gamma * zg
    if kkt_mask is not None:
        stationarity = stationarity[kkt_mask]
    kkt = float(np.abs(stationarity).max())
    # the loop stops on ADMM residuals; a result counts as converged only
    # if its KKT residual also meets the bound the tolerances imply
    bound = 10.0 * (cfg.eps_abs + cfg.eps_rel
                    * max(np.abs(sigma).max(), np.abs(j_hat).max()))
    if converged and kkt > bound:
        logger.warning(
            "ADMM residuals settled after %d iterations but the KKT residual "
            "%.3e exceeds its bound %.3e; reported as not converged",
            iterations, kkt, bound,
        )
        converged = False
    gap = _objective_gap(j_hat, sigma, j_inv, r, cfg)
    result = SolveResult(
        j_hat=SymmetricMatrix(j_hat),
        sigma_m_hat=SymmetricMatrix(j_inv),
        sigma_r_hat=SymmetricMatrix(r),
        z_gamma=SymmetricMatrix(zg),
        kkt_residual=kkt,
        duality_gap=gap,
        iterations=iterations,
        converged=converged,
        overall_pd=False,
        min_eig_overall=0.0,
        rho_final=rho,
        u_scaled=u,
        sign_conflicts=conflicts,
    )
    post_check_overall_pd(result)
    solve_log.append(
        {
            "kkt": kkt,
            "gap": gap if record_gap else None,
            "converged": converged,
            "iterations": iterations,
        }
    )
    return result


def admm_solve(sigma_hat, cfg, warm_start=None):
    """Solve the penalized program for a sample covariance.

    Parameters
    ----------
    sigma_hat : SymmetricMatrix or ndarray
        Symmetric input with strictly positive diagonal.
    cfg : SolverConfig
    warm_start : SolveResult, optional
        Restart from a previous solution; a re-solve from an optimum
        converges within a few iterations.

    Returns
    -------
    SolveResult
        ``converged`` is False when max_iter is exhausted or when the
        KKT residual exceeds 10 (eps_abs + eps_rel max(|Sigma|, |J|));
        the best iterate is still returned and a warning logged.
    """
    sigma = np.asarray(sigma_hat, dtype=float)
    if np.any(np.diag(sigma) <= 0):
        raise NotPositiveDefinite("sigma_hat needs a strictly positive diagonal")

    def z_prox(m, rho):
        a = np.sign(m) * np.maximum(np.abs(m) - cfg.gamma / rho, 0.0)
        if np.isfinite(cfg.lambda_off):
            a = np.clip(a, -cfg.lambda_off, cfg.lambda_off)
        np.fill_diagonal(a, np.diag(m))
        return a

    j, z, u, rho, it, converged = _admm_loop(sigma, cfg, z_prox, warm_start)
    return _finalize(j, z, u, rho, it, converged, sigma, cfg)


def witness_solve(sigma_hat, s_m, s_r, signs_on_sr, cfg):
    """Solve the support-constrained companion program.

    Off-diagonal entries outside ``s_m`` are fixed to zero, entries on
    ``s_r`` are fixed to ``lambda_off * sign``, and the free entries
    (s_m minus s_r, off-diagonal) carry the l1 penalty with no box. The
    residual is extracted on ``s_r`` from the equality-constraint
    multipliers, and the KKT residual is evaluated on the free set and
    the diagonal only; ``converged`` follows the same KKT rule as
    ``admm_solve``.

    Raises
    ------
    InfeasibleConstraints
        Backstop for a diverging dual variable. With the diagonal free
        every fixed pattern has a PD completion, so this signals an
        iteration that broke down rather than an infeasible program.
    PreconditionViolated
        If lambda_off is infinite, s_r is not inside s_m, or the
        diagonal is not inside s_m.
    """
    sigma = np.asarray(sigma_hat, dtype=float)
    if np.any(np.diag(sigma) <= 0):
        raise NotPositiveDefinite("sigma_hat needs a strictly positive diagonal")
    if not np.isfinite(cfg.lambda_off):
        raise PreconditionViolated("witness program needs a finite lambda_off")
    p = sigma.shape[0]
    mask_m = _pair_mask(s_m, p)
    mask_r = _pair_mask(s_r, p)
    if not np.all(np.diag(mask_m)):
        raise PreconditionViolated("s_m must contain the diagonal")
    if np.any(mask_r & ~mask_m) or np.any(np.diag(mask_r)):
        raise PreconditionViolated("s_r must be off-diagonal and inside s_m")
    signs = np.sign(np.asarray(signs_on_sr, dtype=float))
    if np.any(signs[mask_r] == 0):
        raise PreconditionViolated("signs_on_sr must be nonzero on every s_r pair")
    fixed_r = np.where(mask_r, cfg.lambda_off * signs, 0.0)
    eye = np.eye(p, dtype=bool)
    free_off = mask_m & ~mask_r & ~eye

    def z_prox(m, rho):
        a = np.where(
            free_off, np.sign(m) * np.maximum(np.abs(m) - cfg.gamma / rho, 0.0), 0.0
        )
        a = np.where(mask_r, fixed_r, a)
        np.fill_diagonal(a, np.diag(m))
        return a

    j, z, u, rho, it, converged = _admm_loop(
        sigma, cfg, z_prox, infeasibility_guard=True
    )
    kkt_mask = free_off.copy()
    kkt_mask[eye] = True
    return _finalize(
        j, z, u, rho, it, converged, sigma, cfg,
        clip_mask=mask_r, kkt_mask=kkt_mask, record_gap=False,
    )


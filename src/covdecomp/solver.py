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
nonmonotone sufficient-decrease test. The box program runs it on every
entry of J; the witness program, whose pinned entries never move, on its
free entries alone. With gamma = 0 the box program is smooth, and it
takes projected Newton steps (Bertsekas 1982) instead, handing over to
the loop when they cannot go on. Both stop on the certified KKT residual,
and for the box program also on the duality gap.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionMismatch, InfeasibleConstraints,
                     NotPositiveDefinite, PreconditionViolated)
from .symmat import BandWorkspace, PdWorkspace, inv_pd, logdet_pd, shaped_like, to_band

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
    restarts the solver from its ``j_hat``. The p x p estimates are read-only.
    """

    j_hat: np.ndarray
    sigma_m_hat: np.ndarray
    sigma_r_hat: np.ndarray
    z_gamma: np.ndarray
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
    """The p x p buffers and the shared steps of one solve; no iteration
    allocates another p x p array.

    ``j`` and ``j_inv`` hold the iterate and its inverse, ``cand`` and
    ``cand_inv`` the trial point's; an accepted trial swaps the pairs.
    ``grad`` holds the gradient and ``step`` the step. ``tmp`` takes the
    products that are summed, and ``zg``, ``r``, ``flags`` the certificate.
    Every sum that steers the iterates is a pairwise np.sum over an
    elementwise product: backtracking reacts to summation noise, so a
    BLAS dot product in its place changes iteration counts.
    """

    def __init__(self, sigma, cfg, clip_mask=None, kkt_mask=None, gap_tol=np.inf):
        p = sigma.shape[0]
        self.sigma, self.cfg, self.gap_tol = sigma, cfg, gap_tol
        self.clip_mask, self.kkt_mask = clip_mask, kkt_mask
        self.sigma_max = np.abs(sigma).max()
        self.sigma_diag = np.diag(sigma)
        self.pd = PdWorkspace(p)
        (self.j, self.j_inv, self.cand, self.cand_inv, self.grad, self.step,
         self.tmp, self.zg, self.r) = (np.empty((p, p)) for _ in range(9))
        self.flags = np.empty((p, p), dtype=bool)

    def start(self, j):
        """Take the PD start j as the iterate; returns its objective."""
        np.copyto(self.j, j)
        chol_diag = self.pd.factor(self.j)
        if chol_diag is None:
            raise NotPositiveDefinite("starting point is not positive definite")
        f = self.objective(self.j, chol_diag)
        self.j_inv = self.pd.inverse(self.j_inv)
        return f

    def objective(self, a, chol_diag):
        # a is PD, so its diagonal is positive and |a|_1,off = |a|_1 - tr a
        f = (float(np.sum(np.multiply(self.sigma, a, out=self.tmp)))
             - 2.0 * float(np.log(chol_diag).sum()))
        if self.cfg.gamma > 0:
            f += self.cfg.gamma * float(np.abs(a, out=self.tmp).sum() - np.trace(a))
        return f

    def gradient(self):
        np.subtract(self.sigma, self.j_inv, out=self.grad)

    def trial(self, prox, t):
        """Factor the trial point prox(J - t G, t) into cand; returns the
        diagonal of its Cholesky factor, or None if it is not PD."""
        np.multiply(self.grad, t, out=self.step)
        np.subtract(self.j, self.step, out=self.step)
        prox(self.step, t, self.cand)
        return self.pd.factor(self.cand)

    def step_norm(self):
        """<s, s> for the step s from the iterate to the trial point."""
        np.subtract(self.cand, self.j, out=self.step)
        return float(np.sum(np.multiply(self.step, self.step, out=self.tmp)))

    def accept(self):
        """Make the factored trial point the iterate, with its inverse."""
        self.cand_inv = self.pd.inverse(self.cand_inv)
        self.j, self.cand = self.cand, self.j
        self.j_inv, self.cand_inv = self.cand_inv, self.j_inv

    def advance(self):
        """accept after step_norm; returns <s, y>, y the gradient change."""
        self.accept()
        np.subtract(self.cand_inv, self.j_inv, out=self.tmp)
        return float(np.sum(np.multiply(self.step, self.tmp, out=self.tmp)))

    def certificate(self):
        return _certificate(self.j, self.j_inv, self.sigma, self.cfg,
                            self.clip_mask, self.kkt_mask,
                            (self.zg, self.r, self.tmp, self.grad, self.flags))

    def certified(self):
        """The iterate's certificate once its KKT residual is within
        eps_abs + eps_rel max(|Sigma|, |J|), a tenth of the documented
        bound, and its gap within gap_tol; else None."""
        cfg = self.cfg
        stop = cfg.eps_abs + cfg.eps_rel * max(self.sigma_max, self.j.max(), -self.j.min())
        # the diagonal is part of every KKT residual and costs O(p)
        if np.abs(self.sigma_diag - self.j_inv.diagonal()).max() > stop:
            return None
        cert = self.certificate()
        if (cert[0] <= stop
                and abs(_gap(self.j, self.sigma, cert[2], cfg, self.tmp)) <= self.gap_tol):
            return cert
        return None

    def solved(self, iterations, converged, cert):
        """The solve's (J, J^-1, iterations, converged, certificate)."""
        return self.j, self.j_inv, iterations, converged, cert


class _FreeWorkspace:
    """The witness program's loop state over its free entries F alone: the
    diagonal, then the free pairs of the upper triangle, as vectors named
    as in _Workspace. Its methods are _Workspace's, for _prox_gradient.

    Every iterate has the support of s_m, so it lies in the band of s_m's
    half-bandwidth kd, and is factored there. The pinned entries never
    move: ``band`` takes them once from the start and, for each trial, the
    trial vector, and BandWorkspace factors it. An accepted trial gathers
    its inverse on F from the lower triangle of the selected inverse that
    BandWorkspace writes into ``full_inv``, since F lies inside the band.
    The whole J and J^-1 are formed only for _certificate. Sums over F
    weigh each pair twice, once per triangle, and add the pinned entries'
    share, constant from the start. The witness program certifies no
    duality gap. No iteration allocates a p x p array.
    """

    def __init__(self, sigma, cfg, free, clip_mask):
        # free is the symmetric mask of F, clip_mask that of the residual
        p = sigma.shape[0]
        self.sigma, self.cfg, self.p = sigma, cfg, p
        self.clip_mask, self.kkt_mask = clip_mask, free
        rows, cols = np.nonzero(free | clip_mask)
        self.kd = int(np.max(cols - rows, initial=0))
        rows, cols = np.nonzero(np.triu(free, 1))
        rows = np.concatenate([np.arange(p), rows])
        cols = np.concatenate([np.arange(p), cols])
        # flat indices of F in the upper and in the lower triangle, and in
        # band storage, which holds (cols, rows) at [rows, cols - rows]
        self.upper, self.lower = rows * p + cols, cols * p + rows
        self.banded = rows * (self.kd + 1) + cols - rows
        self.weight = np.where(rows == cols, 1.0, 2.0)
        self.sigma_f = np.take(sigma, self.upper)
        self.weighted_sigma = self.weight * self.sigma_f
        self.sigma_max = np.abs(sigma).max()
        self.pd = BandWorkspace(p, self.kd)
        self.full, self.full_inv = np.empty((p, p)), np.empty((p, p))
        (self.j, self.j_inv, self.cand, self.cand_inv, self.grad, self.step,
         self.tmp, self.zg) = (np.empty(rows.size) for _ in range(8))

    def start(self, j):
        np.copyto(self.full, j)
        self.band = to_band(j, self.kd)
        np.take(j, self.upper, out=self.j)
        pinned = ~self.kkt_mask
        self.pinned_sigma = float(np.sum(self.sigma * j, where=pinned))
        self.pinned_l1 = float(np.abs(j).sum(where=pinned))
        self.pinned_max = float(np.abs(j).max(initial=0.0, where=pinned))
        chol_diag = self.pd.factor(self.band)
        if chol_diag is None:
            raise NotPositiveDefinite("starting point is not positive definite")
        f = self.objective(self.j, chol_diag)
        self._gather_inverse(self.j_inv)
        return f

    def objective(self, x, chol_diag):
        f = (float(np.sum(np.multiply(self.weighted_sigma, x, out=self.tmp)))
             + self.pinned_sigma - 2.0 * float(np.log(chol_diag).sum()))
        if self.cfg.gamma > 0:
            off = np.abs(x[self.p:], out=self.tmp[self.p:])
            f += self.cfg.gamma * (2.0 * float(off.sum()) + self.pinned_l1)
        return f

    def gradient(self):
        np.subtract(self.sigma_f, self.j_inv, out=self.grad)

    def trial(self, prox, t):
        np.multiply(self.grad, t, out=self.step)
        np.subtract(self.j, self.step, out=self.step)
        prox(self.step, t, self.cand)
        np.put(self.band, self.banded, self.cand)
        return self.pd.factor(self.band)

    def step_norm(self):
        np.subtract(self.cand, self.j, out=self.step)
        np.multiply(self.step, self.step, out=self.tmp)
        return float(np.sum(np.multiply(self.tmp, self.weight, out=self.tmp)))

    def advance(self):
        self.j, self.cand = self.cand, self.j
        self.j_inv, self.cand_inv = self.cand_inv, self.j_inv
        self._gather_inverse(self.j_inv)
        np.subtract(self.cand_inv, self.j_inv, out=self.tmp)
        np.multiply(self.step, self.tmp, out=self.tmp)
        return float(np.sum(np.multiply(self.tmp, self.weight, out=self.tmp)))

    def _gather_inverse(self, out):
        # J^-1 on F of the point last factored
        self.full_inv = self.pd.selected_inverse(self.full_inv)
        np.take(self.full_inv, self.lower, out=out)

    def certificate(self):
        np.put(self.full, self.upper, self.j)
        np.put(self.full, self.lower, self.j)
        self.full_inv = inv_pd(self.full)
        return _certificate(self.full, self.full_inv, self.sigma, self.cfg,
                            self.clip_mask, self.kkt_mask)

    def certified(self):
        # _Workspace's stop rule; off the clip mask the residual is zero, so
        # the KKT residual on F is |Sigma - J^-1 + gamma z_gamma|, with
        # z_gamma formed as _certificate forms it
        cfg, p = self.cfg, self.p
        stop = cfg.eps_abs + cfg.eps_rel * max(self.sigma_max, self.j.max(), -self.j.min(),
                                               self.pinned_max)
        r = np.subtract(self.sigma_f, self.j_inv, out=self.tmp)
        if np.abs(r[:p]).max() > stop:
            return None
        if cfg.gamma > 0:
            zg = np.subtract(self.j_inv, self.sigma_f, out=self.zg)
            np.clip(zg, -cfg.gamma, cfg.gamma, out=zg)
            np.divide(zg, cfg.gamma, out=zg)
            np.copyto(zg, np.sign(self.j), where=np.abs(self.j) > 1e-8)
            zg[:p] = 0.0
            r += np.multiply(zg, cfg.gamma, out=zg)
        if np.abs(r, out=r).max() > stop:
            return None
        cert = self.certificate()
        return cert if cert[0] <= stop else None

    def solved(self, iterations, converged, cert):
        # cert is certificate()'s, which formed J and J^-1
        return self.full, self.full_inv, iterations, converged, cert


def _prox_gradient(ws, prox, j):
    # ws is a _Workspace or a _FreeWorkspace; prox(m, t, out) writes into
    # out the map of a gradient step m of length t onto the feasible set,
    # which must hold the PD start j. Every iterate is exactly symmetric,
    # since sigma, the start and the prox are. Stops once ws.certified()
    # holds. Returns ws.solved(iterations, converged, certificate).
    history = [ws.start(j)]
    t = 1.0
    for it in range(1, ws.cfg.max_iter + 1):
        ws.gradient()
        for _ in range(_BACKTRACKS):
            chol_diag = ws.trial(prox, t)
            if chol_diag is None:
                t *= 0.5
                continue
            f = ws.objective(ws.cand, chol_diag)
            ss = ws.step_norm()
            if f <= max(history) - 1e-4 * ss / t:
                break
            t *= 0.5
        else:
            raise InfeasibleConstraints(
                "no step length gives a positive definite iterate (iteration %d)" % it)
        # Barzilai-Borwein length <s,s>/<s,y> with y the gradient change;
        # <s,y> > 0 by strict convexity of -log det unless the step vanished
        sy = ws.advance()
        if sy > 0:
            t = ss / sy
        history = (history + [f])[-_HISTORY:]
        cert = ws.certified()
        if cert is not None:
            return ws.solved(it, True, cert)
    return ws.solved(ws.cfg.max_iter, False, ws.certificate())


def _box_prox(cfg):
    # admm_solve's prox(m, t, out): soft threshold at gamma t, then the
    # clamp to the box; the diagonal passes through
    def prox(m, t, out):
        shrunk = _soft_threshold(m, cfg.gamma * t, out) if cfg.gamma > 0 else m
        np.clip(shrunk, -cfg.lambda_off, cfg.lambda_off, out=out)
        np.fill_diagonal(out, m.diagonal())

    return prox


def _projected_newton(sigma, cfg, prox, j, gap_tol):
    # Projected Newton steps (Bertsekas, SIAM J. Control Optim. 1982) on
    # the smooth gamma = 0 box program; prox is its box clamp. The
    # eps-active set A holds the pairs within eps of the box whose
    # gradient G = Sigma - J^-1 pushes outward, eps = min(lambda / 10,
    # |J - P(J - G)|). Off A the step is the Newton step of the free face,
    # D = J - J Sigma J - J M J with M the multiplier on A that makes
    # D_A = 0: since (W (x) W)^-1 = J (x) J, M solves the |A| x |A| system
    # K m = (J - J Sigma J)_A, K_(ij),(kl) = J_ik J_jl + J_il J_jk. On A
    # the step is -G. Trial points P(J + a D) halve a from 1 until they
    # have a Cholesky factor and pass the Armijo test along the projection
    # arc against the current objective. With |A| > 4p (K then holds up to
    # 16 p^2 entries), a singular K, or no step length that passes, the
    # iterate and the rest of max_iter go to _prox_gradient. Stops as
    # _prox_gradient does and returns what it does, iterations counting
    # Newton steps and then loop iterations.
    ws = _Workspace(sigma, cfg, clip_mask=np.zeros(sigma.shape, dtype=bool),
                    gap_tol=gap_tol)
    p = sigma.shape[0]
    lam = cfg.lambda_off
    f0 = ws.start(j)
    for it in range(1, cfg.max_iter + 1):
        np.subtract(sigma, ws.j_inv, out=ws.grad)
        # the projected gradient P(J - G) - J
        prox(np.subtract(ws.j, ws.grad, out=ws.tmp), 0.0, ws.cand)
        np.subtract(ws.cand, ws.j, out=ws.tmp)
        eps = min(0.1 * lam, float(np.sqrt(np.sum(np.multiply(ws.tmp, ws.tmp, out=ws.tmp)))))
        np.greater_equal(np.abs(ws.j, out=ws.tmp), lam - eps, out=ws.flags)
        np.less(np.multiply(ws.j, ws.grad, out=ws.tmp), 0.0, out=ws.flags, where=ws.flags)
        ai, aj = np.divmod(np.flatnonzero(ws.flags), p)
        upper = ai < aj
        ai, aj = ai[upper], aj[upper]
        if ai.size > 4 * p:
            break
        # D = -J (G + M) J, which is J - J Sigma J - J M J, in two products
        # and without the cancellation of J - J Sigma J near the optimum
        np.matmul(ws.grad, ws.j, out=ws.tmp)
        if ai.size:
            jm = ws.j
            k = (jm[np.ix_(ai, ai)] * jm[np.ix_(aj, aj)]
                 + jm[np.ix_(ai, aj)] * jm[np.ix_(aj, ai)])
            try:
                # (J M J)_A = -(J G J)_A
                m = np.linalg.solve(k, -np.einsum("ij,ji->i", jm[ai], ws.tmp[:, aj]))
            except np.linalg.LinAlgError:
                break
            # G J + M J, M J adding m_(ij) J_j to row i and m_(ij) J_i to row j
            np.add.at(ws.tmp, ai, m[:, None] * jm[aj])
            np.add.at(ws.tmp, aj, m[:, None] * jm[ai])
        np.matmul(ws.j, ws.tmp, out=ws.step)
        np.add(ws.step, ws.step.T, out=ws.tmp)
        np.multiply(ws.tmp, -0.5, out=ws.step)
        g_act = ws.grad[ai, aj]
        ws.step[ai, aj] = ws.step[aj, ai] = -g_act
        # <G, D> on the free entries; D = -G on both triangles of A
        gd_free = (float(np.sum(np.multiply(ws.grad, ws.step, out=ws.tmp)))
                   + 2.0 * float(np.sum(g_act * g_act)))
        # the objective sums O(p^2) terms of size about |f| + p; differences
        # below 1e-12 of that are rounding, so a step may raise f that much
        slack = 1e-12 * (abs(f0) + p)
        a = 1.0
        for _ in range(_BACKTRACKS):
            np.multiply(ws.step, a, out=ws.tmp)
            prox(np.add(ws.j, ws.tmp, out=ws.tmp), 0.0, ws.cand)
            chol_diag = ws.pd.factor(ws.cand)
            if chol_diag is not None:
                f = ws.objective(ws.cand, chol_diag)
                moved = 2.0 * float(np.sum(g_act * (ws.j[ai, aj] - ws.cand[ai, aj])))
                if f <= f0 + slack - 1e-4 * (moved - a * gd_free):
                    break
            a *= 0.5
        else:
            break
        ws.accept()
        f0 = f
        # P(J + a D) puts the clipped entries exactly on the box, so the
        # residual is read there; an interior optimum in the CLIP_TIE band
        # would carry one of rounding noise and either sign
        np.equal(np.abs(ws.j, out=ws.tmp), lam, out=ws.clip_mask)
        cert = ws.certified()
        if cert is not None:
            return ws.solved(it, True, cert)
    else:
        return ws.solved(cfg.max_iter, False, ws.certificate())
    rest = replace(cfg, max_iter=cfg.max_iter - it + 1)
    j_hat, j_inv, iterations, converged, cert = _prox_gradient(
        _Workspace(sigma, rest, gap_tol=gap_tol), prox, ws.j)
    return j_hat, j_inv, it - 1 + iterations, converged, cert


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
    sigma_estimate : ndarray of shape (p, p)
        Diagonal of Sigma_hat with soft-thresholded off-diagonals.
    sigma_r : ndarray of shape (p, p)
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
    return est, r


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
    if not converged:
        logger.warning("solver hit max_iter=%d without converging", cfg.max_iter)
    conflicts = np.triu(conflicts, k=1)
    if conflicts.any():
        logger.warning("zeroed %d sign-conflicting residual entries",
                       np.count_nonzero(conflicts))
    # spectral check of the overall covariance estimate Sigma_M - Sigma_R,
    # exactly symmetric as J^-1 and the residual are
    overall = j_inv - r
    min_eig = float(np.linalg.eigvalsh(overall).min())
    # the solve's workspace goes with this call, so nothing else holds them
    for a in (j_hat, j_inv, r, zg):
        a.flags.writeable = False
    return SolveResult(
        j_hat=j_hat,
        sigma_m_hat=j_inv,
        sigma_r_hat=r,
        z_gamma=zg,
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
    sigma_hat : array-like of shape (p, p)
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
        With gamma = 0 ``iterations`` counts projected Newton steps, plus
        the loop's iterations after a hand-over, all within max_iter.

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

    prox = _box_prox(cfg)
    j = np.diag(1.0 / np.diag(sigma))
    if warm_start is not None:
        warm = shaped_like(warm_start.j_hat, sigma, "warm start")
        # a warm start outside this box (from a wider one) restarts cold
        boxed = np.empty_like(warm)
        prox(warm, 0.0, boxed)
        if np.array_equal(boxed, warm):
            j = warm

    gap_tol = 10.0 * cfg.eps_abs
    if cfg.gamma == 0:
        solved = _projected_newton(sigma, cfg, prox, j, gap_tol)
    else:
        solved = _prox_gradient(_Workspace(sigma, cfg, gap_tol=gap_tol), prox, j)
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
    mask_r, free, start = _witness_pattern(sigma, s_m, s_r, signs_on_sr, cfg)
    p = sigma.shape[0]

    def prox(m, t, out):
        # on _FreeWorkspace's vectors, the p diagonal entries first
        if cfg.gamma > 0:
            _soft_threshold(m[p:], cfg.gamma * t, out[p:])
            out[:p] = m[:p]
        else:
            np.copyto(out, m)

    solved = _prox_gradient(_FreeWorkspace(sigma, cfg, free, mask_r), prox, start)
    return _finalize(solved, sigma, cfg)


def _witness_pattern(sigma, s_m, s_r, signs_on_sr, cfg):
    # witness_solve's checks on its operands; returns the symmetric masks of
    # s_r and of the free entries (the diagonal and s_m minus s_r), and the
    # start: the fixed pattern with a diagonally dominant diagonal
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
    start = fixed_r + np.diag(
        np.maximum(1.0 / np.diag(sigma), np.abs(fixed_r).sum(axis=1) + 1.0))
    return mask_r, mask_m & ~mask_r, start

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
nonmonotone sufficient-decrease test. It runs on a set of free entries
alone, factored in their band: the witness program's, whose pinned
entries never move, or the box program's working set, in reverse
Cuthill-McKee order, which grows until the whole matrix certifies (QUIC,
Hsieh et al. 2011); a working set too wide for a band takes every entry
of J. With gamma = 0 the box program takes projected Newton steps
(Bertsekas 1982) on its dual, over the residual R alone, handing over to
the loop, on every entry of J, when they cannot go on. Both stop on the
certified KKT residual, and for the box program also on the duality gap.
"""

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraints, NotPositiveDefinite, PreconditionViolated
from .symmat import (BandWorkspace, PdWorkspace, checked_square, cholesky, copy_upper, shaped_like,
                     to_band)

logger = logging.getLogger(__name__)

# a candidate must beat the largest of this many recent objective values
_HISTORY = 10
# step halvings tried before no step length counts as feasible
_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Regularization levels, iteration cap, and tolerances.

    ``lambda_off`` is the off-diagonal linf cap (may be +inf, which
    removes the box). ``eps_abs`` and ``eps_rel`` set the KKT bound a
    converged result meets, :meth:`kkt_bound`, and ``eps_abs`` the
    duality gap the box program stops at.
    """

    gamma: float
    lambda_off: float
    max_iter: int = 5000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            kind = numbers.Integral if name == "max_iter" else numbers.Real
            if not isinstance(value, kind) or isinstance(value, bool):
                raise PreconditionViolated("%s must be %s, got %r" % (
                    name, "an integer" if name == "max_iter" else "a number", value))
        # each test is written so that NaN fails it
        if not 0 <= self.gamma < math.inf:
            raise PreconditionViolated("gamma must be finite and >= 0")
        if not self.lambda_off > 0:
            raise PreconditionViolated("lambda_off must be positive (possibly +inf)")
        if not self.max_iter >= 1:
            raise PreconditionViolated("max_iter must be >= 1")
        if not (0 < self.eps_abs < math.inf and 0 < self.eps_rel < math.inf):
            raise PreconditionViolated("eps_abs and eps_rel must be finite and positive")

    def kkt_bound(self, scale):
        """The KKT residual a converged solve meets: eps_abs + eps_rel
        scale, with scale = max(|Sigma|, |J|), and never above eps_rel."""
        return min(self.eps_abs + self.eps_rel * scale, self.eps_rel)


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
    sign_conflicts: np.ndarray


def _checked_sigma(sigma_hat):
    sigma = checked_square(sigma_hat, "sigma_hat")
    if not np.isfinite(sigma).all():
        raise PreconditionViolated("sigma_hat has non-finite entries")
    if np.any(np.diag(sigma) <= 0):
        raise NotPositiveDefinite("sigma_hat needs a strictly positive diagonal")
    # <Sigma, J> over symmetric J sees only the symmetric part of Sigma
    return sigma if np.array_equal(sigma, sigma.T) else 0.5 * (sigma + sigma.T)


def _soft_threshold(m, level, out):
    # sign(m) (|m| - level)_+ into out, in two array passes. At level 0 it
    # changes only -0.0 (to 0.0), which no iterate carries off the
    # diagonal, so the proxes skip it when gamma is 0.
    np.clip(m, -level, level, out=out)
    return np.subtract(m, out, out=out)


def _start_into(out, j, sigma):
    # the start j into out; None is the cold start diag(1 / Sigma_ii)
    if j is not out:
        np.copyto(out, 0.0 if j is None else j)
    if j is None:
        np.fill_diagonal(out, 1.0 / np.diag(sigma))


class _Workspace:
    """The p x p buffers and the shared steps of one solve; no iteration
    allocates another p x p array.

    ``j`` and ``j_inv`` hold the iterate and its inverse, ``cand`` and
    ``cand_inv`` the trial point's; an accepted trial swaps the pairs.
    ``grad`` holds the gradient and ``step`` the step; these four are made
    on first use, which the dual Newton steps put off. Sums and the
    certificate (its residual on the box |J_ij| == lambda_off) take free
    buffers. Every sum that steers the iterates is a pairwise np.sum over
    an elementwise product: backtracking reacts to summation noise, so a
    BLAS dot product in its place changes iteration counts.
    """

    def __init__(self, sigma, cfg):
        p = sigma.shape[0]
        self.sigma, self.cfg = sigma, cfg
        self.sigma_max = np.abs(sigma).max()
        self.sigma_diag = np.diag(sigma)
        self.pd = PdWorkspace(p)
        self.j, self.j_inv = np.empty((p, p)), np.empty((p, p))
        self.flags = np.empty((p, p), dtype=bool)

    def __getattr__(self, name):
        if name not in ("cand", "cand_inv", "grad", "step"):
            raise AttributeError(name)
        setattr(self, name, np.empty_like(self.j))
        return getattr(self, name)

    def start(self, j):
        """Take the PD start j, or None for diag(1 / Sigma_ii), as the
        iterate; returns its objective."""
        _start_into(self.j, j, self.sigma)
        chol_diag = self.pd.factor(self.j)
        if chol_diag is None:
            raise NotPositiveDefinite("starting point is not positive definite")
        f = self.objective(self.j, chol_diag)
        self.j_inv = self.pd.inverse(self.j_inv)
        return f

    def objective(self, a, chol_diag):
        # a is PD, so its diagonal is positive and |a|_1,off = |a|_1 - tr a
        f = (float(np.sum(np.multiply(self.sigma, a, out=self.cand_inv)))
             - 2.0 * float(np.log(chol_diag).sum()))
        if self.cfg.gamma > 0:
            f += self.cfg.gamma * float(np.abs(a, out=self.cand_inv).sum() - np.trace(a))
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
        return float(np.sum(np.multiply(self.step, self.step, out=self.cand_inv)))

    def accept(self):
        """Make the factored trial point the iterate, with its inverse."""
        self.cand_inv = self.pd.inverse(self.cand_inv)
        self.j, self.cand = self.cand, self.j
        self.j_inv, self.cand_inv = self.cand_inv, self.j_inv

    def advance(self):
        """accept after step_norm; returns <s, y>, y the gradient change."""
        self.accept()
        tmp = np.subtract(self.cand_inv, self.j_inv, out=self.grad)
        return float(np.sum(np.multiply(self.step, tmp, out=tmp)))

    def certificate(self):
        return _certificate(self.j, self.j_inv, self.sigma, self.cfg,
                            scratch=(self.cand, self.cand_inv, self.pd.buffer, self.flags))

    def certified(self):
        """The iterate's certificate once its KKT residual is within
        cfg.kkt_bound and its duality gap within 10 eps_abs; else None."""
        cfg = self.cfg
        stop = cfg.kkt_bound(max(self.sigma_max, self.j.max(), -self.j.min()))
        # the diagonal is part of every KKT residual and costs O(p)
        if np.abs(self.sigma_diag - self.j_inv.diagonal()).max() > stop:
            return None
        cert = self.certificate()
        if (cert[0] <= stop and abs(_gap(self.j, self.sigma, cert[2], cfg, self.pd.buffer))
                <= 10.0 * cfg.eps_abs):
            return cert
        return None

    def solved(self, iterations, converged, cert):
        """The solve's (J, J^-1, iterations, converged, certificate, a free buffer)."""
        return self.j, self.j_inv, iterations, converged, cert, self.pd.buffer


class _FreeWorkspace:
    """The loop state over a set F of free entries alone: the diagonal,
    then the free pairs of the upper triangle, as vectors named as in
    _Workspace, whose methods it has. It runs the witness program, whose
    pinned entries (``clip_mask``) never move, and without a clip_mask the
    box program on a working set F, pinned at zero off F.

    In the order ``order``, the caller's for the witness and F's reverse
    Cuthill-McKee order for the box program, every iterate lies in the
    band of half-bandwidth kd of F and the clip set. ``band`` takes the
    pinned entries from the start and each trial vector, and BandWorkspace
    factors it. An accepted trial gathers its inverse on F from the
    selected inverse in ``full_inv``. The whole J and J^-1, the latter from
    the band factor, are formed only for _certificate. Sums over F weigh
    each pair twice, once per triangle, and add the pinned entries' share,
    constant from the start. No iteration allocates a p x p array, but one
    in which the box program's F grows (see certified).
    """

    def __init__(self, sigma, cfg, free, clip_mask=None, banding=None):
        # masks of F and of the witness's residual; banding, if known, _rcm(free)
        p = sigma.shape[0]
        self.sigma, self.cfg, self.p, self.clip_mask = sigma, cfg, p, clip_mask
        self.sigma_max = np.abs(sigma).max()
        self.full, self.full_inv = np.empty((p, p)), np.empty((p, p))
        # _certificate's: z_gamma, the residual, a float and the flags
        self.scratch = [np.empty((p, p)) for _ in range(3)] + [np.empty((p, p), dtype=bool)]
        self._set_free(free, banding)

    def _set_free(self, free, banding=None):
        p = self.p
        self.free, self.kkt_mask = free, None if self.clip_mask is None else free
        if self.clip_mask is None:
            self.order, self.kd = banding or _rcm(free)
        else:
            rows, cols = np.nonzero(free | self.clip_mask)
            self.order, self.kd = np.arange(p), int(np.max(cols - rows, initial=0))
        self.position = np.argsort(self.order)
        diag = np.arange(p)
        rows, cols = (np.concatenate([diag, a]) for a in np.nonzero(np.triu(free, 1)))
        # flat indices of F in the upper and in the lower triangle; reordered,
        # (hi, lo) with hi >= lo in band storage, at [lo, hi - lo], and in
        # the selected inverse's lower triangle
        self.upper, self.lower = rows * p + cols, cols * p + rows
        lo, hi = np.sort(self.position[np.stack([rows, cols])], axis=0)
        self.banded, self.gathered = lo * (self.kd + 1) + hi - lo, hi * p + lo
        self.weight = np.where(rows == cols, 1.0, 2.0)
        self.sigma_f = np.take(self.sigma, self.upper)
        self.weighted_sigma = self.weight * self.sigma_f
        self.pd = BandWorkspace(p, self.kd)
        (self.j, self.j_inv, self.cand, self.cand_inv, self.grad, self.step,
         self.tmp, self.zg) = (np.empty(rows.size) for _ in range(8))

    def start(self, j):
        _start_into(self.full, j, self.sigma)
        j = self.full
        np.take(j, self.upper, out=self.j)
        if self.clip_mask is None:
            # the box program's F holds the start's support: zero off F
            self.band = np.zeros((self.p, self.kd + 1))
            np.put(self.band, self.banded, self.j)
            self.pinned_sigma = self.pinned_l1 = self.pinned_max = 0.0
        else:
            # the witness's order is the identity
            tmp = self.scratch[2]
            self.band = to_band(j, self.kd)
            pinned = ~self.free
            self.pinned_sigma = float(np.sum(np.multiply(self.sigma, j, out=tmp), where=pinned))
            self.pinned_l1 = float(np.abs(j, out=tmp).sum(where=pinned))
            self.pinned_max = float(tmp.max(initial=0.0, where=pinned))
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
        np.take(self.full_inv, self.gathered, out=out)

    def certificate(self):
        np.put(self.full, self.upper, self.j)
        np.put(self.full, self.lower, self.j)
        # J^-1 from the band factor: its lower triangle onto both, unpermuted
        tmp, inv = self.scratch[2], self.full_inv
        low = self.pd.selected_inverse(tmp, whole=True)
        np.copyto(inv, low)
        copy_upper(inv, low.T)
        np.take(inv, self.position, axis=0, out=tmp, mode="clip")
        np.take(tmp, self.position, axis=1, out=inv, mode="clip")
        return _certificate(self.full, self.full_inv, self.sigma, self.cfg,
                            self.clip_mask, self.kkt_mask, self.scratch)

    def certified(self):
        # _Workspace's stop rule, read on F before the whole certificate.
        # Off the clip set the residual is zero, so on F the KKT residual is
        # |Sigma - J^-1 + gamma z_gamma|, z_gamma formed as _certificate
        # forms it; in the box program an entry on the box holds a
        # multiplier that cancels it, unless its sign fights J's. The
        # witness program certifies no gap. When the box program's whole
        # certificate fails, F grows and the loop goes on from the iterate
        cfg, p, box = self.cfg, self.p, self.clip_mask is None
        stop = cfg.kkt_bound(max(self.sigma_max, self.j.max(), -self.j.min(), self.pinned_max))
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
        if box:
            x, off = self.j[p:], r[p:]
            held = (np.abs(x) == cfg.lambda_off) & (off * np.sign(x) <= 1e-8)
            r_l1 = 2.0 * float(np.abs(off).sum(where=held))
            off[held] = 0.0
        if np.abs(r, out=r).max() > stop:
            return None
        # the gap <Sigma, J> - p + lambda |R|_1,off + gamma |J|_1,off on F
        if box and abs(float(np.sum(self.weighted_sigma * self.j)) - p
                       + (cfg.lambda_off * r_l1 if r_l1 > 0 else 0.0)
                       + 2.0 * cfg.gamma * float(np.abs(x).sum())) > 10.0 * cfg.eps_abs:
            return None
        cert = self.certificate()
        if not box:
            return cert if cert[0] <= stop else None
        gap = _gap(self.full, self.sigma, cert[2], cfg, self.scratch[2])
        if cert[0] <= stop and abs(gap) <= 10.0 * cfg.eps_abs:
            return cert
        # the pairs off F with |Sigma - J^-1|_ij > gamma join it
        tmp, grow = self.scratch[2], self.scratch[3]
        np.abs(np.subtract(self.sigma, self.full_inv, out=tmp), out=tmp)
        np.greater(np.greater(tmp, cfg.gamma, out=grow), self.free, out=grow)
        if grow.any():
            self._set_free(self.free | grow)
            self.start(self.full)
        return None

    def solved(self, iterations, converged, cert):
        # cert is certificate()'s, which formed J and J^-1
        return self.full, self.full_inv, iterations, converged, cert, self.scratch[2]


def _rcm(mask):
    # the reverse Cuthill-McKee order (Cuthill & McKee 1969) of the graph of
    # the symmetric mask, which holds the diagonal: breadth first from a
    # least-degree node of each component, new neighbours by degree, ties
    # by index; returns the order and the mask's half-bandwidth in it
    rows, cols = np.nonzero(mask)
    degree = np.bincount(rows)
    by_degree = cols[np.lexsort((cols, degree[cols], rows))].tolist()
    starts = np.concatenate([[0], np.cumsum(degree)]).tolist()
    order, seen, k = [], [False] * degree.size, 0
    for root in np.argsort(degree, kind="stable").tolist():
        if not seen[root]:
            seen[root] = True
            order.append(root)
        while k < len(order):
            for v in by_degree[starts[order[k]]:starts[order[k] + 1]]:
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
            k += 1
    order = np.array(order[::-1])
    position = np.argsort(order)
    return order, int(np.max(np.abs(position[rows] - position[cols])))


def _prox_gradient(ws, prox, j, done=0):
    # ws is a _Workspace or a _FreeWorkspace; prox(m, t, out) writes into
    # out the map of a gradient step m of length t onto the feasible set,
    # which must hold the PD start j. Every iterate is exactly symmetric,
    # since sigma, the start and the prox are. Stops once ws.certified()
    # holds or at iteration max_iter, done of which came before j. Returns
    # ws.solved(iterations, converged, certificate).
    history = [ws.start(j)]
    t = 1.0
    for it in range(done + 1, ws.cfg.max_iter + 1):
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


def _box_prox(gamma, lam, diagonal):
    # prox(m, t, out), returning out: soft threshold at gamma t, then the
    # clamp to [-lam, lam]; the entries at the flat indices diagonal pass through
    def prox(m, t, out):
        shrunk = _soft_threshold(m, gamma * t, out) if gamma > 0 else m
        np.clip(shrunk, -lam, lam, out=out)
        out.flat[diagonal] = m.flat[diagonal]
        return out

    return prox


def _dual_newton(sigma, cfg, prox, j, r):
    # The gamma = 0 box program in its dual, min -log det(Sigma + R) + lambda
    # |R|_1,off over symmetric zero-diagonal R, of primal point J = (Sigma +
    # R)^-1 (QUIC, Hsieh et al. 2011); R is kept on its support (upper flat
    # indices, values), from r if Sigma + r is PD. Projected Newton steps
    # (Bertsekas 1982) on F, the support then the pairs |J_ij| > lambda,
    # largest first, up to 4p, in the orthant of its signs s: per pair, the
    # gradient is g = lambda s - J_F and the Hessian K_(ij),(kl) = J_ik J_jl
    # + J_il J_jk, with -g / diag(K) on the pairs g pushes to 0 from near it,
    # and Armijo backtracking; J is then snapped to the box and certified.
    # r None is R = 0. Until the snap, ws.j holds J and ws.j_inv is scratch.
    p, lam = sigma.shape[0], cfg.lambda_off
    sup = np.flatnonzero(np.triu(r, 1)) if r is not None else np.zeros(0, dtype=np.intp)
    rv = r.flat[sup] if r is not None else np.zeros(0)
    ws = _Workspace(sigma, cfg)

    def objective(idx, vals):
        # factors Sigma + R, R on the pairs idx, in place; None if not PD
        a = ws.pd.buffer
        np.copyto(a, sigma)
        a.flat[idx] = a.flat[idx % p * p + idx // p] = sigma.flat[idx] + vals
        chol_diag, l1 = ws.pd.factor(a), 2.0 * float(np.abs(vals).sum())
        if chol_diag is not None:
            return (lam * l1 if l1 > 0 else 0.0) - 2.0 * float(np.log(chol_diag).sum())

    f0 = objective(sup, rv)
    if f0 is None and sup.size:
        sup, rv, f0 = sup[:0], rv[:0], objective(sup[:0], rv[:0])
    if f0 is None and not np.isfinite(lam):
        raise PreconditionViolated(
            "gamma = 0 with no box is unbounded unless sigma_hat is positive definite")
    steps, start, step = 0, j, math.inf
    if f0 is not None:
        ws.j = ws.pd.inverse(ws.j)
        # the objective sums p logs; changes below 1e-12 of |f| + p are rounding
        slack = 1e-12 * (abs(f0) + p)
        while steps < cfg.max_iter and sup.size < 4 * p:
            # stop once the step and J's breach of the box and of slackness are small
            out = np.abs(ws.j, out=ws.j_inv)
            np.fill_diagonal(out, 0.0)
            out.flat[sup] = out.flat[sup % p * p + sup // p] = 0.0
            breach = np.abs(ws.j.flat[sup] - lam * np.sign(rv)).max(initial=out.max() - lam)
            if max(step, breach) <= cfg.kkt_bound(max(ws.sigma_max, ws.j.max())):
                break
            grow = np.flatnonzero(np.triu(out > lam, 1))
            grow = grow[np.argsort(-out.flat[grow], kind="stable")[:4 * p - sup.size]]
            if not (sup.size or grow.size):
                # no pair can join F: J = Sigma^-1 is in the box, and Sigma its
                # inverse; the certificate counts as a step
                np.copyto(ws.j_inv, sigma)
                cert = ws.certified()
                if cert is not None:
                    return ws.solved(steps + 1, True, cert)
            steps += 1
            free, x = np.concatenate([sup, grow]), np.concatenate([rv, np.zeros(grow.size)])
            s = np.sign(np.concatenate([rv, ws.j.flat[grow]]))
            g, jm = lam * s - ws.j.flat[free], ws.j
            fi, fj = np.divmod(free, p)
            k = np.empty((free.size, free.size))  # gathered 64 rows at a time
            for a in range(0, free.size, 64):
                rows = slice(a, a + 64)
                np.multiply(jm[np.ix_(fi[rows], fi)], jm[np.ix_(fj[rows], fj)], out=k[rows])
                k[rows] += jm[np.ix_(fi[rows], fj)] * jm[np.ix_(fj[rows], fi)]
            d = -g / k.diagonal()
            moved = np.where((x + d) * s > 0, d, -x)
            act = (np.abs(x) <= float(np.sqrt(np.sum(moved * moved)))) & (g * s > 0)
            if act.any():
                k = k[np.ix_(~act, ~act)]
            try:
                d[~act] = np.linalg.solve(k, -g[~act])
            except np.linalg.LinAlgError:
                break
            finally:
                del k
            # <g, step> off the active pairs, twice: a pair is two entries
            gd_free, a = 2.0 * float(np.sum(g[~act] * d[~act])), 1.0
            for _ in range(_BACKTRACKS):
                trial = x + a * d
                trial[trial * s <= 0] = 0.0
                f = objective(free, trial)
                drop = 2.0 * float(np.sum(g[act] * (x[act] - trial[act])))
                if f is not None and f <= f0 + slack - 1e-4 * (drop - a * gd_free):
                    break
                a *= 0.5
            else:
                break
            ws.j = ws.pd.inverse(ws.j)
            step, f0 = float(np.abs(trial - x).max(initial=0.0)), f
            sup, rv = free[trial != 0], trial[trial != 0]
        prox(ws.j, 0.0, ws.cand)
        ws.cand.flat[sup] = ws.cand.flat[sup % p * p + sup // p] = lam * np.sign(rv)
        if ws.pd.factor(ws.cand) is not None:
            ws.accept()
            cert = ws.certified()
            if cert is not None:
                return ws.solved(steps, True, cert)
            start = ws.j
    return _prox_gradient(ws, prox, start, steps)


def _certificate(j_hat, j_inv, sigma, cfg, clip_mask=None, kkt_mask=None,
                 scratch=None):
    # (kkt, z_gamma, residual, sign conflicts) of one iterate. The residual
    # is read on clip_mask, by default the box |J_ij| == lambda_off, where
    # the prox and the dual's snap put every clipped entry; the KKT
    # residual on kkt_mask only when one is given. The conflict mask is
    # symmetric. scratch holds three p x p float buffers and one boolean
    # one, the first two returned as z_gamma and the residual; fresh ones
    # are taken without it.
    # z_gamma is sign(J_ij) off the zero set; on exact zeros the
    # stationarity system implies the interior value (J^-1 - Sigma)_ij /
    # gamma, clipped to the unit interval. Without the interior term the
    # KKT residual would artificially read ~gamma on every zeroed entry.
    # Clipping before the division keeps a subnormal gamma from
    # overflowing; for a normal gamma the result is bitwise the same.
    # J, J^-1 and Sigma are exactly symmetric, and so is every matrix
    # formed here.
    if scratch is None:
        scratch = [np.empty_like(sigma) for _ in range(3)] + [np.empty(sigma.shape, dtype=bool)]
    zg, r, tmp, flags = scratch
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
        clip_mask = np.equal(np.abs(j_hat, out=tmp), cfg.lambda_off, out=flags)
    np.subtract(j_inv, sigma, out=tmp)
    np.subtract(tmp, np.multiply(zg, cfg.gamma, out=r), out=tmp)
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
        rows = -(-len(zg) // 16)  # 16 blocks of rows take no p x p buffer
        for a in range(0, len(zg), rows):
            stationarity[a:a + rows] += zg[a:a + rows] * cfg.gamma
    np.abs(stationarity, out=stationarity)
    kkt = stationarity.max(initial=0.0, where=True if kkt_mask is None else kkt_mask)
    return float(kkt), zg, r, conflicts


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
    if not gamma >= 0:
        raise PreconditionViolated("gamma must be >= 0")
    s = checked_square(sigma_hat, "sigma_hat")
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
    another size, ``MalformedMatrix`` for an empty or non-numeric one,
    ``PreconditionViolated`` for a non-finite sigma_hat and
    ``NotPositiveDefinite`` when j_hat or sigma_m_hat is not PD.
    """
    sigma = _checked_sigma(sigma_hat)
    j_hat, sigma_m, sigma_r = (
        shaped_like(getattr(result, name), sigma, name)
        for name in ("j_hat", "sigma_m_hat", "sigma_r_hat"))
    return _gap(j_hat, sigma, sigma_r, cfg) - _logdet(j_hat) - _logdet(sigma_m)


def _logdet(a):
    # log det of a PD matrix, from its Cholesky factor's diagonal
    chol = cholesky(a)
    if chol is None:
        raise NotPositiveDefinite("matrix is not positive definite")
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _finalize(solved, sigma, cfg):
    j_hat, j_inv, iterations, converged, (kkt, zg, r, conflicts), *spare = solved
    if not converged:
        logger.warning("solver hit max_iter=%d without converging", cfg.max_iter)
    conflicts = np.triu(conflicts, k=1)
    if conflicts.any():
        logger.warning("zeroed %d sign-conflicting residual entries",
                       np.count_nonzero(conflicts))
    # the solve's workspace goes with this call, so nothing else holds them
    for a in (j_hat, j_inv, r, zg):
        a.flags.writeable = False
    pd = PdWorkspace(sigma.shape[0], *spare)
    return SolveResult(
        j_hat=j_hat,
        sigma_m_hat=j_inv,
        sigma_r_hat=r,
        z_gamma=zg,
        kkt_residual=kkt,
        duality_gap=_gap(j_hat, sigma, r, cfg, pd.buffer),
        iterations=iterations,
        converged=converged,
        # is the overall covariance estimate Sigma_M - Sigma_R PD?
        overall_pd=pd.factor(np.subtract(j_inv, r, out=pd.buffer)) is not None,
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
        Restart from a previous solution: its ``j_hat`` if inside the box,
        with gamma = 0 its ``sigma_r_hat``; from an optimum in one iteration.

    Returns
    -------
    SolveResult
        ``converged`` is True when the KKT residual is within
        ``cfg.kkt_bound`` and the duality gap within 10 eps_abs; else
        max_iter ran out, and the last iterate is returned with a warning.
        ``iterations`` counts the loop's iterations over every pass of its
        working set, or with gamma = 0 dual Newton steps plus the loop's
        iterations after a hand-over, all within max_iter; a start that
        certifies because no pair can enter R's support, as with no box, reads 1.
        Whichever path found it, ``sigma_r_hat`` is read on the entries
        exactly on the box, ``|J_ij| == lambda_off``.

    Raises
    ------
    DimensionMismatch
        If sigma_hat is not square or the warm start's size differs.
    MalformedMatrix
        If sigma_hat is empty or does not hold numbers.
    PreconditionViolated
        If sigma_hat has a non-finite entry, or if gamma is 0 and
        lambda_off infinite while sigma_hat is not PD: that program is
        unbounded below.
    """
    sigma = _checked_sigma(sigma_hat)
    p = sigma.shape[0]
    prox = _box_prox(cfg.gamma, cfg.lambda_off, slice(None, None, p + 1))
    # the start and its inverse off the diagonal, None and 0 for diag(1 / Sigma_ii)
    j, w = None, 0.0
    if warm_start is not None:
        warm = shaped_like(warm_start.j_hat, sigma, "warm start")
        # a warm start outside this box (from a wider one) restarts cold
        if np.array_equal(prox(warm, 0.0, np.empty_like(warm)), warm):
            j, w = warm, shaped_like(warm_start.sigma_m_hat, sigma, "warm start")

    if cfg.gamma == 0:
        # the dual starts from the warm start's residual, unless no box allows one
        keep = warm_start is not None and np.isfinite(cfg.lambda_off)
        r = shaped_like(warm_start.sigma_r_hat, sigma, "warm start") if keep else None
        solved = _dual_newton(sigma, cfg, prox, j, r)
    else:
        solved = _working_set(sigma, cfg, prox, j, w)
    return _finalize(solved, sigma, cfg)


def _working_set(sigma, cfg, prox, j, w):
    # The gamma > 0 box program on F (the diagonal, j's support, the pairs with
    # |Sigma - W|_ij > gamma, W j's inverse off the diagonal); its workspace goes
    # before _finalize. A band wider than p / 2 runs the dense loop alone
    # (faster there: BENCH_sweep_workset.json, adaptive_boost_sweep).
    free = np.subtract(sigma, w)
    free = (np.abs(free, out=free) > cfg.gamma) | (np.eye(len(sigma), dtype=bool) if j is None
                                                   else j != 0)
    banding = _rcm(free)
    if banding[1] > sigma.shape[0] // 2:
        del free, banding
        return _prox_gradient(_Workspace(sigma, cfg), prox, j)
    ws = _FreeWorkspace(sigma, cfg, free, banding=banding)
    return _prox_gradient(ws, _box_prox(cfg.gamma, cfg.lambda_off, slice(len(free))), j)


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
    MalformedMatrix
        If sigma_hat is empty, or it or signs_on_sr does not hold numbers.
    PreconditionViolated
        If sigma_hat has a non-finite entry, lambda_off is infinite,
        s_r is not inside s_m, the diagonal is not inside s_m, or
        signs_on_sr is zero on an s_r pair or differs in sign between
        (i,j) and (j,i).
    """
    sigma = _checked_sigma(sigma_hat)
    mask_r, free, signs = _witness_pattern(sigma, s_m, s_r, signs_on_sr, cfg)
    ws = _FreeWorkspace(sigma, cfg, free, mask_r)
    # the start, lambda_off sign on s_r and a dominant diagonal, in the workspace
    start = np.sign(signs, out=ws.full)
    np.copyto(np.multiply(start, cfg.lambda_off, out=start), 0.0, where=~mask_r)
    rows = np.abs(start, out=ws.full_inv).sum(axis=1)
    np.fill_diagonal(start, np.maximum(1.0 / np.diag(sigma), rows + 1.0))
    # on _FreeWorkspace's vectors, the p diagonal entries first; no box
    prox = _box_prox(cfg.gamma, math.inf, slice(sigma.shape[0]))
    return _finalize(_prox_gradient(ws, prox, start), sigma, cfg)


def _witness_pattern(sigma, s_m, s_r, signs_on_sr, cfg):
    # witness_solve's checks on its operands; returns the symmetric masks of
    # s_r and of the free entries (the diagonal and s_m minus s_r), and
    # signs_on_sr as floats
    if not np.isfinite(cfg.lambda_off):
        raise PreconditionViolated("witness program needs a finite lambda_off")
    mask_m = _sym_mask(s_m, sigma, "s_m")
    mask_r = _sym_mask(s_r, sigma, "s_r")
    signs = shaped_like(signs_on_sr, sigma, "signs_on_sr")
    if not np.all(np.diag(mask_m)):
        raise PreconditionViolated("s_m must contain the diagonal")
    if np.any(mask_r & ~mask_m) or np.any(np.diag(mask_r)):
        raise PreconditionViolated("s_r must be off-diagonal and inside s_m")
    # read on the pairs of s_r alone, in row-major order
    i, k = np.nonzero(mask_r)
    if np.any(signs[i, k] == 0):
        raise PreconditionViolated("signs_on_sr must be nonzero on every s_r pair")
    clash = np.flatnonzero(np.sign(signs[i, k]) != np.sign(signs[k, i]))
    if clash.size:
        i, k = i[clash[0]], k[clash[0]]
        raise PreconditionViolated(
            "signs_on_sr gives opposite signs at (%d, %d) and (%d, %d)" % (i, k, k, i))
    return mask_r, mask_m & ~mask_r, signs

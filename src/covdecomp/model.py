"""Ground-truth decomposition models, their identifiability conditions, and
the synthetic model families (chain, grid) used throughout the experiments."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularSubmatrix,
)
from .symmat import (BandWorkspace, PdWorkspace, checked_symmetric, cholesky, eigenvalue, inv_pd,
                     to_band)

# Ground-truth models are constructed exactly, so ties are detected at
# machine-level tolerance; estimates use the looser solver-side tie band.
GROUND_TRUTH_EPS_TIE = 1e-9

# grid_model's boost search, PD margin and residual shrinks (see DiagBoostPolicy)
_BOOST_START = 0.01
_BOOST_FACTOR = 2.0
_PD_MARGIN = 0.01
_SHRINK_FACTOR = 0.9
_MAX_SHRINKS = 50


@dataclass(frozen=True)
class DecompositionModel:
    """Ground-truth pair (J_M, Sigma_R) with lambda = max off-diagonal |J_M|.

    The model is the zero-mean Gaussian with overall covariance
    ``J_M^-1 - Sigma_R`` (see :func:`true_covariance`). Keeps read-only
    copies of both matrices, as ``checked_symmetric`` returns them.
    """

    j_markov: np.ndarray
    sigma_residual: np.ndarray
    lambda_star: float

    def __post_init__(self):
        j = checked_symmetric(self.j_markov, "j_markov")
        r = checked_symmetric(self.sigma_residual, "sigma_residual")
        if j.shape != r.shape:
            raise DimensionMismatch("j_markov %s vs sigma_residual %s" % (j.shape, r.shape))
        object.__setattr__(self, "j_markov", j)
        object.__setattr__(self, "sigma_residual", r)

    @property
    def dim(self):
        return self.j_markov.shape[0]

    @cached_property
    def _overall(self):
        """Read-only (Sigma, its lower Cholesky factor, Sigma^-1) of the
        overall covariance, the last two from one factor of Sigma, formed
        once per model for draw_samples and compare_to_truth, which a sweep
        calls at every sample size, and for the lbp study's models."""
        ws = PdWorkspace(self.dim)
        sigma = _overall_covariance(self, ws)
        # L first, so that Sigma^-1 can take the factor's buffer
        arrays = (sigma, ws.lower(), ws.inverse(ws.buffer))
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class DiagBoostPolicy:
    """How grid_model picks the uniform diagonal weighting c*I.

    With ``fixed`` unset, c doubles from 0.01 until lambda_min(J_M) >= 0.01,
    tried by a band Cholesky factor of J_M - 0.01 I; the same margin then
    gates the overall covariance, shrinking residual magnitudes by 10% per
    retry. A ``fixed`` value is the search's one try.
    The experiment protocol uses ``DiagBoostPolicy(fixed=1.0)``: unit
    weighting is the scale the published penalty constants are tuned for.
    """

    fixed: float = None


@dataclass(frozen=True)
class IncoherenceReport:
    """Mutual-incoherence and conditioning diagnostics for a model."""

    alpha: float
    k_ss: float
    k_ssr: float
    k_m: float
    m_param: float
    max_degree: int
    a4_satisfied: bool
    a5_satisfied: bool
    a6_margin: float


def validate_model(m):
    """Check the four identifiability conditions on a model.

    Ties |J_ij| == lambda_star are detected within GROUND_TRUTH_EPS_TIE.

    Parameters
    ----------
    m : DecompositionModel

    Returns
    -------
    list of str
        One entry per violated condition, naming the offending index
        pair; empty when the model is valid.
    """
    return _violations(m)


def _violations(m, pd_known=False):
    # validate_model's check, read on the nonzeros of j_markov and
    # sigma_residual; pd_known skips the two PD checks, which grid_model
    # has made on the way
    j, r = m.j_markov, m.sigma_residual
    p = j.shape[0]
    lam = m.lambda_star
    violations = []
    if not pd_known:
        try:
            sigma_m = inv_pd(j)
        except NotPositiveDefinite:
            violations.append("positive-definiteness: j_markov is not PD")
        else:
            if cholesky(sigma_m - r) is None:
                violations.append("positive-definiteness: overall covariance is not PD")

    def upper(a):
        # a's nonzero pairs i < k, row-major
        i, k = np.divmod(np.flatnonzero(a != 0), p)
        return i[i < k], k[i < k]

    # with lambda_star <= the tie band every pair is clipped, the zeros too
    ji, jk = np.triu_indices(p, 1) if lam <= GROUND_TRUTH_EPS_TIE else upper(j)
    aj = np.abs(j[ji, jk])
    big = aj > lam + GROUND_TRUTH_EPS_TIE
    violations += ["off-diagonal bound: |j_markov[%d,%d]| = %.6g exceeds lambda_star" % t
                   for t in zip(ji[big], jk[big], aj[big])]
    violations += ["residual diagonal: sigma_residual[%d,%d] must be zero" % (i, i)
                   for i in np.flatnonzero(r.diagonal())]
    bare = (aj >= lam - GROUND_TRUTH_EPS_TIE) & (r[ji, jk] == 0.0)
    violations += ["clip-support equivalence: j_markov[%d,%d] at the bound but residual is "
                   "zero" % t for t in zip(ji[bare], jk[bare])]
    ri, rk = upper(r)
    jr = j[ri, rk]
    unclipped = ~(np.abs(jr) >= lam - GROUND_TRUTH_EPS_TIE)
    violations += ["clip-support equivalence: residual at [%d,%d] without a clipped precision "
                   "entry" % t for t in zip(ri[unclipped], rk[unclipped])]
    clash = np.sign(r[ri, rk]) * np.sign(jr) < 0
    violations += ["sign agreement: residual and precision differ at [%d,%d]" % t
                   for t in zip(ri[clash], rk[clash])]
    return violations


def _build_validated(j, r, lam, context, pd_known=False):
    model = DecompositionModel(j_markov=j, sigma_residual=r, lambda_star=float(lam))
    violations = _violations(model, pd_known)
    if violations:
        raise PreconditionViolated("%s: %s" % (context, "; ".join(violations)))
    return model


def chain_model(rho, residual_value):
    """Four-node Markov chain with one residual edge on the clipped pair.

    Parameters
    ----------
    rho : sequence of 3 floats
        Neighbor correlations; ``|rho[0]|`` must be the strict maximum so
        that exactly the (0, 1) precision entry sits at the bound.
    residual_value : float
        Residual covariance placed symmetrically at (0, 1); its sign must
        match the precision entry's sign, which is ``-sign(rho[0])``.

    Returns
    -------
    DecompositionModel
    """
    rho = [float(x) for x in rho]
    if len(rho) != 3:
        raise PreconditionViolated("rho must have length 3")
    if any(abs(x) >= 1.0 for x in rho):
        raise PreconditionViolated("|rho_i| must be < 1")
    if abs(rho[0]) <= max(abs(rho[1]), abs(rho[2])):
        raise PreconditionViolated(
            "|rho[0]| must be the strict maximum so the clipped entry is unique"
        )
    sigma_m = np.eye(4)
    for i in range(4):
        for j in range(i + 1, 4):
            sigma_m[i, j] = sigma_m[j, i] = np.prod(rho[i:j])
    j_m = inv_pd(sigma_m)
    # the chain precision is tridiagonal in exact arithmetic; inversion
    # noise must not create phantom edges in the support partition
    j_m[np.abs(j_m) < 1e-12 * np.abs(j_m).max()] = 0.0
    lam = abs(j_m[0, 1])
    r = np.zeros((4, 4))
    r[0, 1] = r[1, 0] = float(residual_value)
    return _build_validated(j_m, r, lam, "chain_model")


def grid_edges(q):
    """Undirected 4-nearest-neighbor edges of a q x q grid, row-major nodes."""
    edges = []
    for row in range(q):
        for col in range(q):
            i = row * q + col
            if col + 1 < q:
                edges.append((i, i + 1))
            if row + 1 < q:
                edges.append((i, i + q))
    return edges


def grid_model(q, rng_seed, clip_fraction=0.2, magnitude_range=(0.15, 0.2),
               diag_boost_policy=None):
    """Random q x q grid model following the synthetic benchmark protocol.

    Grid edges receive magnitudes in ``magnitude_range`` with random
    signs; a ``clip_fraction`` of them is set to exactly the upper bound
    and carries a residual entry of matching sign. Uniform diagonal
    weighting is added per ``diag_boost_policy``, each boost tried by a band
    Cholesky factor, until both precision and overall covariance are PD with margin.

    Deterministic for a fixed ``rng_seed``.
    """
    if q < 2:
        raise PreconditionViolated("q must be >= 2")
    policy = diag_boost_policy or DiagBoostPolicy()
    lo, hi = magnitude_range
    rng = np.random.default_rng(rng_seed)
    p = q * q
    edges = grid_edges(q)
    a = np.zeros((p, p))
    for i, j in edges:
        # keep non-clipped magnitudes strictly below the bound so the
        # clip set stays unambiguous at ground-truth tie tolerance
        v = rng.uniform(lo, hi - 1e-6) * (-1.0, 1.0)[rng.integers(0, 2)]
        a[i, j] = a[j, i] = v
    n_clip = int(np.ceil(clip_fraction * len(edges)))
    clip_idx = rng.choice(len(edges), size=n_clip, replace=False)
    for k in clip_idx:
        i, j = edges[k]
        a[i, j] = a[j, i] = hi * np.sign(a[i, j])
    # lambda_min(a + c I) >= margin iff a + (c - margin) I, of half-bandwidth q, has a factor
    c = _BOOST_START if policy.fixed is None else float(policy.fixed)
    band, boost = to_band(a, q), BandWorkspace(p, q)
    band[:, 0] = c - _PD_MARGIN
    while boost.factor(band) is None:
        if policy.fixed is not None:
            raise PreconditionViolated("fixed diagonal boost %.3g misses the PD margin %.3g"
                                       % (c, _PD_MARGIN))
        c *= _BOOST_FACTOR
        band[:, 0] = c - _PD_MARGIN
    del band, boost  # before the p x p arrays: a lower peak
    j_m = _plus_diagonal(a, c)
    ws = PdWorkspace(p)
    r = np.zeros((p, p))
    for k in clip_idx:
        i, j = edges[k]
        r[i, j] = r[j, i] = np.sign(j_m[i, j]) * rng.uniform(lo, hi)
    sigma_m = inv_pd(j_m, ws)
    # lambda_min(overall) >= margin iff overall - margin I has a factor
    shrinks = 0
    while ws.factor(_plus_diagonal(np.subtract(sigma_m, r, out=ws.buffer), -_PD_MARGIN)) is None:
        if shrinks >= _MAX_SHRINKS:
            raise PreconditionViolated(
                "overall covariance margin %.3g unreachable after %d residual shrinks"
                % (_PD_MARGIN, _MAX_SHRINKS)
            )
        r *= _SHRINK_FACTOR
        shrinks += 1
    # J_M has an inverse and the overall covariance a margin, so both are
    # PD; the model takes the two read-only arrays without a copy
    del sigma_m, ws
    j_m.flags.writeable = r.flags.writeable = False
    return _build_validated(j_m, r, hi, "grid_model", pd_known=True)


def _plus_diagonal(a, c):
    # a + c I, in place
    a.flat[::len(a) + 1] += c
    return a


def _overall_covariance(m, ws):
    # J_M^-1 - Sigma_R, both factored in the PdWorkspace ws
    sigma = inv_pd(m.j_markov, ws)
    sigma -= m.sigma_residual
    if ws.factor(sigma) is None:
        raise NotPositiveDefinite("model's overall covariance is not PD")
    return sigma


def true_covariance(m):
    """Overall covariance ``J_M^-1 - Sigma_R`` of a model."""
    return _overall_covariance(m, PdWorkspace(m.dim))


def partition_pairs(m):
    """Pair partition (S_M, S_R, S, S_M^c) induced by a model's supports.

    S_M is the precision support including the diagonal; S_R is the
    residual support; S = S_M minus S_R. Each set is a symmetric p x p
    boolean mask, so both (i,j) and (j,i) belong to it.

    Returns
    -------
    (s_m, s_r, s, s_m_c) : tuple of bool ndarray of shape (p, p)
    """
    j, r = m.j_markov, m.sigma_residual
    eye = np.eye(j.shape[0], dtype=bool)
    in_m = eye | (j != 0.0)
    in_r = ~eye & (r != 0.0)
    return in_m, in_r, in_m & ~in_r, ~in_m


def _hessian_block(s, rows, cols):
    # the rows x cols block of the Hessian Gamma = Sigma (x) Sigma, without
    # Gamma: each mask's pairs in row-major order, ((i,j),(k,l)) -> s_ik s_jl
    ri, rj = np.nonzero(rows)
    ck, cl = np.nonzero(cols)
    return s[np.ix_(ri, ck)] * s[np.ix_(rj, cl)]


def _max_row_sum(a):
    # |||a|||_inf, the largest absolute row sum; 0.0 on an empty partition
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def incoherence_report(m, m_param, tau=2.0, n=1000, c6=1.0, c7=1.0):
    """Compute the mutual-incoherence diagnostics for a ground-truth model.

    Parameters
    ----------
    m : DecompositionModel
    m_param : float
        The covariance-control constant m; the report's a5 flag tests
        ``K_SS <= (m-4) alpha / (4 (m - (m-1) alpha))``.
    tau, n, c6, c7 : float
        Diagnostic inputs for the eigenvalue margin: the report exposes
        ``lambda_min(Sigma) - (c6 d sqrt(log(4 p^tau)/n) + c7 d^2 log(4 p^tau)/n)``
        where d is the max row support count of the precision including
        the diagonal. The constants are caller-supplied because the
        theory defines them only through proof-side quantities.

    Returns
    -------
    IncoherenceReport
    """
    violations = validate_model(m)
    if violations:
        raise PreconditionViolated("model invalid: %s" % "; ".join(violations))
    j = m.j_markov
    p = j.shape[0]
    sigma_m = inv_pd(j)
    _, s_r, s, s_c = partition_pairs(m)
    g_ss = _hessian_block(sigma_m, s, s)
    try:
        g_ss_inv = inv_pd(g_ss)
    except NotPositiveDefinite as exc:
        raise SingularSubmatrix("Gamma_SS is singular") from exc
    if not np.isfinite(g_ss_inv).all():
        raise SingularSubmatrix("Gamma_SS inverse overflowed")
    g_cs = _hessian_block(sigma_m, s_c, s)
    g_sr = _hessian_block(sigma_m, s, s_r)
    g_cr = _hessian_block(sigma_m, s_c, s_r)
    q1 = _max_row_sum(g_cs @ (g_ss_inv @ g_sr) - g_cr)
    q2 = _max_row_sum(g_cs @ g_ss_inv)
    alpha = max(0.0, min(1.0, 1.0 - max(q1, q2)))
    k_ssr = _max_row_sum(g_ss_inv @ g_sr)
    k_ss = _max_row_sum(g_ss_inv)
    k_m = _max_row_sum(sigma_m)
    a4 = alpha > 0.0 and k_ssr < 0.25
    denom = m_param - (m_param - 1.0) * alpha
    a5_rhs = np.inf if denom <= 0 else (m_param - 4.0) * alpha / (4.0 * denom)
    a5 = bool(k_ss <= a5_rhs)
    d = int(np.count_nonzero(j, axis=1).max())
    log_term = np.log(4.0) + tau * np.log(p)
    bound = c6 * d * np.sqrt(log_term / n) + c7 * d * d * log_term / n
    sigma_star = true_covariance(m)
    a6_margin = eigenvalue(sigma_star, 0) - bound
    return IncoherenceReport(
        alpha=float(alpha),
        k_ss=float(k_ss),
        k_ssr=float(k_ssr),
        k_m=float(k_m),
        m_param=float(m_param),
        max_degree=d,
        a4_satisfied=bool(a4),
        a5_satisfied=a5,
        a6_margin=a6_margin,
    )

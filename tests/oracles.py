"""Independent reference implementations that pin expected values.

Everything here favors directness over speed: explicit entry loops,
a dense materialized Kronecker Hessian, an analytic chain precision,
and a separately derived proximal-gradient solver for the unboxed
program. Tests compare package output against these references, never
the package against itself.
"""

import numpy as np

# solver tolerances used throughout the suite
TIGHT = {"eps_abs": 1e-10, "eps_rel": 1e-9}


def certification_breaches(solves):
    """Messages naming each solve that breaks the certification bounds.

    ``solves`` holds ``(solver_name, cfg, result)`` triples, ``cfg`` the
    ``SolverConfig`` of the solve. Every result must have run at least
    one iteration, and no residual entry may fight the sign of its
    precision entry (``sigma_r_hat * j_hat < 0``): the residual is a
    nonnegative multiplier times that sign. A converged result must have
    the KKT residual its config promises, at most ``cfg.eps_rel``, and a
    converged box-program (``admm_solve``) one a duality gap within
    ``10 * cfg.eps_abs``. The witness program's gap is not certified, so
    it is not checked.
    """
    breaches = []
    for k, (name, cfg, res) in enumerate(solves):
        tag = "solve %d (%s)" % (k, name)
        if res.iterations < 1:
            breaches.append("%s ran %d iterations" % (tag, res.iterations))
        fights = np.count_nonzero(np.asarray(res.sigma_r_hat) * np.asarray(res.j_hat) < 0)
        if fights:
            breaches.append("%s has %d residual entries against J's sign" % (tag, fights))
        if not res.converged:
            continue
        if not res.kkt_residual <= cfg.eps_rel:
            breaches.append("%s converged with KKT %.3g above eps_rel %.3g"
                            % (tag, res.kkt_residual, cfg.eps_rel))
        if name == "admm_solve" and not abs(res.duality_gap) <= 10.0 * cfg.eps_abs:
            breaches.append("%s converged with gap %.3g above 10 eps_abs %.3g"
                            % (tag, res.duality_gap, 10.0 * cfg.eps_abs))
    return breaches


def kkt_residual(sigma, j_hat, sigma_r, gamma):
    """Stationarity violation of (J, Sigma_R) for the box program, entry by entry.

    The diagonal must satisfy Sigma_ii = (J^-1)_ii. Off the diagonal,
    g = (J^-1 - Sigma - Sigma_R)_ij must equal gamma sign(J_ij) where
    |J_ij| > 1e-8 and lie in [-gamma, gamma] elsewhere.
    """
    sigma = np.asarray(sigma, dtype=float)
    j = np.asarray(j_hat, dtype=float)
    r = np.asarray(sigma_r, dtype=float)
    g = np.linalg.inv(j) - sigma - r
    p = j.shape[0]
    worst = 0.0
    for i in range(p):
        worst = max(worst, abs(g[i, i]))
        for k in range(p):
            if k == i:
                continue
            if abs(j[i, k]) > 1e-8:
                worst = max(worst, abs(g[i, k] - gamma * np.sign(j[i, k])))
            else:
                worst = max(worst, abs(g[i, k]) - gamma)
    return worst


def witness_kkt_residual(sigma, j_hat, free, gamma):
    """Stationarity violation of the witness program's J on its free entries.

    ``free`` is the symmetric mask of the diagonal and the free pairs. On
    the diagonal Sigma_ii = (J^-1)_ii; on a free pair g = (J^-1 - Sigma)_ij
    must equal gamma sign(J_ij) where |J_ij| > 1e-8 and lie in
    [-gamma, gamma] elsewhere. The pinned entries carry multipliers and
    are not read.
    """
    sigma = np.asarray(sigma, dtype=float)
    j = np.asarray(j_hat, dtype=float)
    g = np.linalg.inv(j) - sigma
    worst = 0.0
    for i, k in zip(*np.nonzero(free)):
        if i == k:
            worst = max(worst, abs(g[i, k]))
        elif abs(j[i, k]) > 1e-8:
            worst = max(worst, abs(g[i, k] - gamma * np.sign(j[i, k])))
        else:
            worst = max(worst, abs(g[i, k]) - gamma)
    return worst


def naive_inf_operator_norm(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    best = 0.0
    for i in range(a.shape[0]):
        total = 0.0
        for j in range(a.shape[1]):
            total += abs(a[i, j])
        best = max(best, total)
    return best


def chain_sigma(rho):
    """Markov-chain covariance: unit diagonal, path-product fill-in."""
    s = np.eye(4)
    for i in range(4):
        for j in range(i + 1, 4):
            v = 1.0
            for k in range(i, j):
                v *= rho[k]
            s[i, j] = s[j, i] = v
    return s


def chain_j_analytic(rho):
    """Tridiagonal precision of the 4-node chain, in closed form."""
    r1, r2, r3 = rho
    j = np.zeros((4, 4))
    j[0, 0] = 1.0 / (1.0 - r1 ** 2)
    j[3, 3] = 1.0 / (1.0 - r3 ** 2)
    j[1, 1] = 1.0 / (1.0 - r1 ** 2) + 1.0 / (1.0 - r2 ** 2) - 1.0
    j[2, 2] = 1.0 / (1.0 - r2 ** 2) + 1.0 / (1.0 - r3 ** 2) - 1.0
    for i, r in enumerate(rho):
        j[i, i + 1] = j[i + 1, i] = -r / (1.0 - r ** 2)
    return j


def kron_hessian(sigma_m):
    """Materialized Hessian over ordered pairs; flat index of (i,j) is i*p+j."""
    s = np.asarray(sigma_m, dtype=float)
    return np.kron(s, s)


def kron_submatrix(sigma_m, rows, cols):
    p = np.asarray(sigma_m).shape[0]
    g = kron_hessian(sigma_m)
    ridx = [i * p + j for i, j in rows]
    cidx = [k * p + l for k, l in cols]
    if not ridx or not cidx:
        return np.zeros((len(ridx), len(cidx)))
    return g[np.ix_(ridx, cidx)]


def brute_incoherence(j_markov, sigma_residual):
    """(alpha, k_ss, k_ssr) from the materialized Kronecker Hessian."""
    j = np.asarray(j_markov, dtype=float)
    r = np.asarray(sigma_residual, dtype=float)
    p = j.shape[0]
    sigma = np.linalg.inv(j)
    gamma = np.kron(sigma, sigma)
    s_r, s, s_c = [], [], []
    for i in range(p):
        for k in range(p):
            flat = i * p + k
            in_m = i == k or j[i, k] != 0.0
            in_r = i != k and r[i, k] != 0.0
            if in_r:
                s_r.append(flat)
            elif in_m:
                s.append(flat)
            if not in_m:
                s_c.append(flat)
    gss_inv = np.linalg.inv(gamma[np.ix_(s, s)])
    g_cs = gamma[np.ix_(s_c, s)]
    g_sr = gamma[np.ix_(s, s_r)]
    g_cr = gamma[np.ix_(s_c, s_r)]
    q1 = naive_inf_operator_norm(g_cs @ gss_inv @ g_sr - g_cr)
    q2 = naive_inf_operator_norm(g_cs @ gss_inv)
    alpha = min(1.0, max(0.0, 1.0 - max(q1, q2)))
    k_ssr = naive_inf_operator_norm(gss_inv @ g_sr)
    k_ss = naive_inf_operator_norm(gss_inv)
    return alpha, k_ss, k_ssr


def gista(sigma, gamma, tol=1e-11, max_iter=20000):
    """Proximal-gradient solver for the unboxed off-diagonal l1 program.

    Step size starts at lambda_min(J)^2 (local Lipschitz bound of the
    log-det gradient) with halving backtracking for positive
    definiteness plus sufficient decrease; stops on the classic duality
    gap with dual feasibility.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    off = ~np.eye(p, dtype=bool)
    j = np.diag(1.0 / np.diag(sigma))
    for _ in range(max_iter):
        w = np.linalg.eigvalsh(j)
        grad = sigma - np.linalg.inv(j)
        f = float(np.sum(sigma * j)) - float(np.sum(np.log(w)))
        t = w[0] ** 2
        for _ in range(60):
            m = j - t * grad
            j_new = np.where(
                off, np.sign(m) * np.maximum(np.abs(m) - t * gamma, 0.0), m
            )
            try:
                chol = np.linalg.cholesky(j_new)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            f_new = float(np.sum(sigma * j_new)) - logdet
            d = j_new - j
            quad = f + float(np.sum(grad * d)) + float(np.sum(d * d)) / (2.0 * t)
            if f_new <= quad + 1e-12 * max(1.0, abs(f)):
                break
            t *= 0.5
        j = j_new
        gap = float(np.sum(sigma * j)) - p + gamma * float(np.abs(j[off]).sum())
        viol = np.abs((np.linalg.inv(j) - sigma)[off]).max() if p > 1 else 0.0
        if viol <= gamma * (1.0 + 1e-9) and abs(gap) < tol:
            break
    return j


def brute_partition(j_markov, sigma_residual):
    """(S_M, S_R, S, S_M^c) as row-major lists of ordered pairs, entry by entry."""
    j = np.asarray(j_markov, dtype=float)
    r = np.asarray(sigma_residual, dtype=float)
    p = j.shape[0]
    s_m, s_r, s, s_c = [], [], [], []
    for i in range(p):
        for k in range(p):
            in_m = i == k or j[i, k] != 0.0
            in_r = i != k and r[i, k] != 0.0
            if in_m:
                s_m.append((i, k))
            if in_r:
                s_r.append((i, k))
            if in_m and not in_r:
                s.append((i, k))
            if not in_m:
                s_c.append((i, k))
    return s_m, s_r, s, s_c


def soft_threshold_entry(x, gamma):
    """S_gamma(x) = sign(-x) (|x| - gamma)_+ for one scalar."""
    mag = abs(x) - gamma
    if mag <= 0:
        return 0.0
    return -mag if x > 0 else mag


def brute_support(a, threshold):
    a = np.asarray(a, dtype=float)
    pairs = set()
    for i in range(a.shape[0]):
        for j in range(i + 1, a.shape[0]):
            if abs(a[i, j]) > threshold:
                pairs.add((i, j))
    return pairs


def brute_edit_distance(a, b, threshold):
    return len(brute_support(a, threshold) ^ brute_support(b, threshold))


def random_tree_info(p, seed):
    """Diagonally dominant information matrix on a random tree, plus a
    potential vector."""
    rng = np.random.default_rng(seed)
    j = np.zeros((p, p))
    for node in range(1, p):
        parent = int(rng.integers(0, node))
        w = rng.uniform(0.1, 0.3) * rng.choice([-1.0, 1.0])
        j[node, parent] = j[parent, node] = w
    np.fill_diagonal(j, np.abs(j).sum(axis=1) + 1.0)
    h = rng.standard_normal(p)
    return j, h


def sample_cov_instance(p, n, seed):
    """Well-conditioned random sample covariance with off-diagonal mass."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((p, p)) * 0.3
    cov = np.eye(p) + 0.25 * (b + b.T)
    floor = min(np.linalg.eigvalsh(cov).min(), 0.0)
    cov += (abs(floor) + 0.5) * np.eye(p)
    x = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T
    return x.T @ x / n


def dense_moments(j, h):
    cov = np.linalg.inv(np.asarray(j, dtype=float))
    return cov @ np.asarray(h, dtype=float), np.diag(cov).copy()


def spearman(x, y):
    """Spearman rank correlation, distinct values assumed."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def dense_lbp_run(m, max_iter, tol):
    """Synchronous Gaussian belief propagation on dense p x p message arrays.

    ``d_j[i, k]`` and ``d_h[i, k]`` hold the message from i to k, zero off
    the support of J; node sums are column sums and the reverse message is
    the transpose. Same update order, breaks and trace as
    ``covdecomp.lbp_run``, at O(p^2) work per sweep.
    """
    from covdecomp import LbpTrace
    from covdecomp.inference import MESSAGE_NORM_LIMIT

    j = np.asarray(m.j, dtype=float)
    h = np.asarray(m.h, dtype=float)
    p = j.shape[0]
    exact_mean, exact_var = m.moments
    j_diag = np.diag(j).copy()
    mask = (j != 0.0) & ~np.eye(p, dtype=bool)
    d_j = np.zeros((p, p))
    d_h = np.zeros((p, p))
    mean_errors = []
    var_errors = []
    converged = False
    for _ in range(max_iter):
        belief_j = j_diag + d_j.sum(axis=0)
        belief_h = h + d_h.sum(axis=0)
        # cavity[i, k]: belief at i with k's incoming message removed
        cavity_j = belief_j[:, None] - d_j.T
        cavity_h = belief_h[:, None] - d_h.T
        if np.any(cavity_j[mask] <= 0):
            break
        new_j = np.where(mask, -j * j / np.where(mask, cavity_j, 1.0), 0.0)
        new_h = np.where(mask, -j * cavity_h / np.where(mask, cavity_j, 1.0), 0.0)
        delta = max(np.abs(new_j - d_j).max(), np.abs(new_h - d_h).max())
        d_j, d_h = new_j, new_h
        belief_j = j_diag + d_j.sum(axis=0)
        if np.any(belief_j <= 0):
            mean_errors.append(np.inf)
            var_errors.append(np.inf)
        else:
            belief_h = h + d_h.sum(axis=0)
            mean_errors.append(float(np.abs(belief_h / belief_j - exact_mean).mean()))
            var_errors.append(float(np.abs(1.0 / belief_j - exact_var).mean()))
        if max(np.abs(d_j).max(), np.abs(d_h).max()) > MESSAGE_NORM_LIMIT:
            break
        if delta < tol:
            converged = True
            break
    return LbpTrace(
        mean_errors=np.asarray(mean_errors),
        var_errors=np.asarray(var_errors),
        converged=converged,
        iterations_run=len(mean_errors),
    )


def reference_violations(m, eps_tie=1e-9):
    """``validate_model``'s messages, in order, from dense p x p masks.

    Positive definiteness is decided by ``np.linalg.cholesky``, with
    ``J_M^-1`` from an LU inverse; every other condition is a full boolean
    mask, read on its upper triangle in row-major order.
    """
    j = np.asarray(m.j_markov, dtype=float)
    r = np.asarray(m.sigma_residual, dtype=float)
    p = j.shape[0]
    lam = m.lambda_star
    violations = []
    try:
        np.linalg.cholesky(j)
    except np.linalg.LinAlgError:
        violations.append("positive-definiteness: j_markov is not PD")
    else:
        try:
            np.linalg.cholesky(np.linalg.inv(j) - r)
        except np.linalg.LinAlgError:
            violations.append("positive-definiteness: overall covariance is not PD")
    off = ~np.eye(p, dtype=bool)
    too_big = off & (np.abs(j) > lam + eps_tie)
    for i, k in zip(*np.nonzero(np.triu(too_big))):
        violations.append("off-diagonal bound: |j_markov[%d,%d]| = %.6g exceeds lambda_star"
                          % (i, k, abs(j[i, k])))
    for i in np.nonzero(np.diag(r) != 0.0)[0]:
        violations.append("residual diagonal: sigma_residual[%d,%d] must be zero" % (i, i))
    clipped = off & (np.abs(j) >= lam - eps_tie)
    has_res = off & (r != 0.0)
    for i, k in zip(*np.nonzero(np.triu(clipped & ~has_res))):
        violations.append("clip-support equivalence: j_markov[%d,%d] at the bound but "
                          "residual is zero" % (i, k))
    for i, k in zip(*np.nonzero(np.triu(has_res & ~clipped))):
        violations.append("clip-support equivalence: residual at [%d,%d] without a clipped "
                          "precision entry" % (i, k))
    sign_clash = has_res & (np.sign(r) * np.sign(j) < 0)
    for i, k in zip(*np.nonzero(np.triu(sign_clash))):
        violations.append("sign agreement: residual and precision differ at [%d,%d]" % (i, k))
    return violations


def doubling_boost(a, start=0.01, factor=2.0, margin=0.01):
    """Diagonal boost c found by doubling from ``start`` until
    lambda_min(a + c I) >= margin, one eigendecomposition per try."""
    eye = np.eye(np.asarray(a).shape[0])
    c = start
    while np.linalg.eigvalsh(a + c * eye).min() < margin:
        c *= factor
    return c


def reference_grid_model(q, seed, clip_fraction=0.2, magnitude_range=(0.15, 0.2),
                         fixed=None, start=0.01, factor=2.0, margin=0.01):
    """``(j_markov, sigma_residual, shrinks)`` of ``grid_model``'s protocol.

    Signs come from ``rng.choice``, ``J_M^-1`` from an LU inverse, and
    every PD margin from a full ``eigvalsh``. Returns None where
    ``grid_model`` must refuse: a ``fixed`` boost below the margin, or an
    overall margin still missed after 50 residual shrinks.
    """
    lo, hi = magnitude_range
    rng = np.random.default_rng(seed)
    p = q * q
    eye = np.eye(p)
    edges = [(i, i + 1) for i in range(p) if (i + 1) % q]
    edges += [(i, i + q) for i in range(p - q)]
    edges.sort()
    a = np.zeros((p, p))
    for i, j in edges:
        a[i, j] = a[j, i] = rng.uniform(lo, hi - 1e-6) * rng.choice([-1.0, 1.0])
    clip_idx = rng.choice(len(edges), size=int(np.ceil(clip_fraction * len(edges))),
                          replace=False)
    for k in clip_idx:
        i, j = edges[k]
        a[i, j] = a[j, i] = hi * np.sign(a[i, j])
    if fixed is not None:
        c = float(fixed)
        if np.linalg.eigvalsh(a + c * eye).min() < margin:
            return None
    else:
        lambda_min = np.linalg.eigvalsh(a).min()
        c = start
        while lambda_min + c < margin:
            c *= factor
    j_m = a + c * eye
    r = np.zeros((p, p))
    for k in clip_idx:
        i, j = edges[k]
        r[i, j] = r[j, i] = np.sign(j_m[i, j]) * rng.uniform(lo, hi)
    sigma_m = np.linalg.inv(j_m)
    shrinks = 0
    while True:
        overall = sigma_m - r
        if np.linalg.eigvalsh(0.5 * (overall + overall.T)).min() >= margin:
            return j_m, r, shrinks
        if shrinks == 50:
            return None
        r *= 0.9
        shrinks += 1


def reference_inv_pd(a):
    """The inverse of a positive definite ``a`` formed apart from
    ``symmat.PdWorkspace``: LAPACK ``dpotri`` on ``np.linalg.cholesky``'s
    lower factor in C order, which it reads column-major as L^T, and the
    lower triangle mirrored onto the upper one. Without LAPACK, the
    symmetrised ``np.linalg.inv``."""
    from covdecomp import symmat

    if symmat._lapack is None:
        inv = np.linalg.inv(a)
        return 0.5 * (inv + inv.T)
    c = np.require(np.linalg.cholesky(a), requirements=["C", "W"])
    p = c.shape[0]
    assert symmat._lapack.potri(symmat._COL_MAJOR, b"U", p, c.ctypes.data, max(p, 1)) == 0
    c += np.tril(c, -1).T
    return c


def _reference_certificate(j_hat, j_inv, sigma, cfg, clip_mask=None, kkt_mask=None):
    # (kkt, z_gamma, residual, sign conflicts) as the solver formed them
    # before its loop took a workspace, symmetrisations included
    zg = np.where(np.abs(j_hat) > 1e-8, np.sign(j_hat), 0.0)
    if cfg.gamma > 0:
        interior = np.clip(j_inv - sigma, -cfg.gamma, cfg.gamma) / cfg.gamma
        zg = np.where(np.abs(j_hat) > 1e-8, zg, interior)
    np.fill_diagonal(zg, 0.0)
    zg = 0.5 * (zg + zg.T)
    if clip_mask is None:
        # the entries exactly on the box; with no box, none
        clip_mask = np.abs(j_hat) == cfg.lambda_off
    r = np.where(clip_mask, j_inv - sigma - cfg.gamma * zg, 0.0)
    np.fill_diagonal(r, 0.0)
    r = 0.5 * (r + r.T)
    conflicts = (r != 0.0) & (r * np.sign(j_hat) < -1e-8)
    r[conflicts] = 0.0
    stationarity = sigma - j_inv + r + cfg.gamma * zg
    if kkt_mask is not None:
        stationarity = stationarity[kkt_mask]
    return float(np.abs(stationarity).max()), zg, r, conflicts


def _reference_gap(j_hat, sigma, sigma_r, cfg):
    r_l1 = float(np.abs(sigma_r).sum() - np.abs(np.diag(sigma_r)).sum())
    lam_term = cfg.lambda_off * r_l1 if r_l1 > 0 else 0.0
    return (float(np.sum(sigma * j_hat)) - sigma.shape[0] + lam_term
            + cfg.gamma * float(np.abs(j_hat).sum() - np.trace(j_hat)))


def reference_prox_gradient(sigma, cfg, prox, j, clip_mask=None, kkt_mask=None,
                            gap_tol=np.inf):
    """The solver's G-ISTA loop as written before it took a workspace.

    Every matrix is a fresh array: ``prox(m, t)`` returns the feasible
    point, the factor is ``np.linalg.cholesky``'s and the inverse
    ``inv_pd``'s. Returns a dict of the final ``j_hat``, ``sigma_r_hat``,
    ``iterations``, ``converged``, ``kkt_residual``, ``duality_gap`` and
    ``sign_conflicts`` (the pairs i < j), plus ``backtracks``, the number
    of step halvings, and ``not_pd``, the number of those taken for a
    candidate with no Cholesky factor.
    """
    from covdecomp.symmat import inv_pd

    def objective(a, chol):
        return (float(np.sum(sigma * a)) - 2.0 * float(np.log(np.diag(chol)).sum())
                + cfg.gamma * float(np.abs(a).sum() - np.trace(a)))

    def result(j, j_inv, iterations, converged):
        kkt, _, r, conflicts = _reference_certificate(j, j_inv, sigma, cfg,
                                                      clip_mask, kkt_mask)
        return {"j_hat": j, "sigma_r_hat": r, "iterations": iterations,
                "converged": converged, "kkt_residual": kkt,
                "duality_gap": _reference_gap(j, sigma, r, cfg),
                "sign_conflicts": np.triu(conflicts, 1),
                "backtracks": backtracks, "not_pd": not_pd}

    chol = np.linalg.cholesky(j)
    history = [objective(j, chol)]
    j_inv = inv_pd(j)
    t = 1.0
    backtracks = not_pd = 0
    for it in range(1, cfg.max_iter + 1):
        grad = sigma - j_inv
        for _ in range(60):
            cand = prox(j - t * grad, t)
            try:
                chol = np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t *= 0.5
                backtracks += 1
                not_pd += 1
                continue
            f = objective(cand, chol)
            step = cand - j
            ss = float(np.sum(step * step))
            if f <= max(history) - 1e-4 * ss / t:
                break
            t *= 0.5
            backtracks += 1
        else:
            raise AssertionError("no feasible step length")
        cand_inv = inv_pd(cand)
        sy = float(np.sum(step * (j_inv - cand_inv)))
        if sy > 0:
            t = ss / sy
        j, j_inv = cand, cand_inv
        history = (history + [f])[-10:]
        stop = min(cfg.eps_abs + cfg.eps_rel * max(np.abs(sigma).max(), np.abs(j).max()),
                   cfg.eps_rel)
        if np.abs(np.diag(sigma) - np.diag(j_inv)).max() > stop:
            continue
        kkt, _, r, _ = _reference_certificate(j, j_inv, sigma, cfg, clip_mask, kkt_mask)
        if kkt <= stop and abs(_reference_gap(j, sigma, r, cfg)) <= gap_tol:
            return result(j, j_inv, it, True)
    return result(j, j_inv, cfg.max_iter, False)


def _reference_soft_threshold(m, level):
    return m - np.clip(m, -level, level)


def reference_box_solve(sigma_hat, cfg, warm_j=None):
    """``admm_solve`` on ``reference_prox_gradient``; ``warm_j`` is a start
    inside the box."""
    sigma = np.asarray(sigma_hat, dtype=float)
    sigma = 0.5 * (sigma + sigma.T)

    def prox(m, t):
        a = np.clip(_reference_soft_threshold(m, cfg.gamma * t),
                    -cfg.lambda_off, cfg.lambda_off)
        np.fill_diagonal(a, np.diag(m))
        return a

    j = np.diag(1.0 / np.diag(sigma)) if warm_j is None else np.asarray(warm_j)
    return reference_prox_gradient(sigma, cfg, prox, j, gap_tol=10.0 * cfg.eps_abs)


def reference_witness_solve(sigma_hat, s_m, s_r, signs_on_sr, cfg):
    """``witness_solve`` on ``reference_prox_gradient``, for symmetric masks
    and signs."""
    sigma = np.asarray(sigma_hat, dtype=float)
    sigma = 0.5 * (sigma + sigma.T)
    eye = np.eye(sigma.shape[0], dtype=bool)
    fixed_r = np.where(s_r, cfg.lambda_off * np.sign(signs_on_sr), 0.0)
    free_off = s_m & ~s_r & ~eye

    def prox(m, t):
        a = np.where(free_off, _reference_soft_threshold(m, cfg.gamma * t), fixed_r)
        np.fill_diagonal(a, np.diag(m))
        return a

    start = fixed_r + np.diag(
        np.maximum(1.0 / np.diag(sigma), np.abs(fixed_r).sum(axis=1) + 1.0))
    return reference_prox_gradient(sigma, cfg, prox, start, clip_mask=s_r,
                                   kkt_mask=free_off | eye)

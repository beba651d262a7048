"""Independent reference implementations that pin expected values.

Everything here favors directness over speed: explicit entry loops,
a dense materialized Kronecker Hessian, an analytic chain precision,
and a separately derived proximal-gradient solver for the unboxed
program. Tests compare package output against these references, never
the package against itself.
"""

import numpy as np

# solver tolerances used throughout the suite; tight enough that every
# converged solve certifies gap and KKT at 1e-6
TIGHT = {"eps_abs": 1e-10, "eps_rel": 1e-9}

# certification bounds every converged solve in the suite must meet
CERTIFIED_KKT = 1e-6
CERTIFIED_GAP = 1e-6


def certification_breaches(solves):
    """Messages naming each solve that breaks the certification bounds.

    ``solves`` holds ``(solver_name, result)`` pairs. Every result must
    have run at least one iteration; a converged one must have a KKT
    residual within ``CERTIFIED_KKT``, and a converged box-program
    (``admm_solve``) one a duality gap within ``CERTIFIED_GAP``. The
    witness program's gap is not certified, so it is not checked.
    """
    breaches = []
    for k, (name, res) in enumerate(solves):
        tag = "solve %d (%s)" % (k, name)
        if res.iterations < 1:
            breaches.append("%s ran %d iterations" % (tag, res.iterations))
        if not res.converged:
            continue
        if not res.kkt_residual <= CERTIFIED_KKT:
            breaches.append("%s converged with KKT %.3g" % (tag, res.kkt_residual))
        if name == "admm_solve" and not abs(res.duality_gap) <= CERTIFIED_GAP:
            breaches.append("%s converged with gap %.3g" % (tag, res.duality_gap))
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


def dense_lbp_run(m, max_iter, tol, damping=0.0):
    """Synchronous Gaussian belief propagation on dense p x p message arrays.

    ``d_j[i, k]`` and ``d_h[i, k]`` hold the message from i to k, zero off
    the support of J; node sums are column sums and the reverse message is
    the transpose. Same update order, breaks and trace as
    ``covdecomp.lbp_run``, at O(p^2) work per sweep.
    """
    from covdecomp import LbpTrace, exact_moments
    from covdecomp.inference import MESSAGE_NORM_LIMIT

    j = np.asarray(m.j, dtype=float)
    h = np.asarray(m.h, dtype=float)
    p = j.shape[0]
    exact_mean, exact_var = exact_moments(m)
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
        if damping > 0:
            new_j = (1.0 - damping) * new_j + damping * d_j
            new_h = (1.0 - damping) * new_h + damping * d_h
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
    every PD margin from a full ``eigvalsh``. Returns None where the
    generator must refuse: a ``fixed`` boost below the margin, or an
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

"""End-to-end acceptance checks for the decomposition package.

Each test covers one headline capability at its stated tolerance and
prints a single verdict line with the measured quantity. Every solve of
every criterion is also audited at teardown (see conftest.py).
"""

import math
import time

import numpy as np

import covdecomp as cd
from covdecomp import DiagBoostPolicy, InfoModel, SolverConfig
from oracles import (
    TIGHT,
    brute_incoherence,
    certification_breaches,
    gista,
    random_tree_info,
    sample_cov_instance,
    spearman,
)

RATIOS = (20, 40, 80, 160, 240, 320)
TABLE1_C_GAMMA = {5: 2.23, 8: 2.08, 10: 2.01}


def tight_config(**kw):
    merged = dict(TIGHT)
    merged.update(kw)
    return SolverConfig(**merged)


def _verdict(num, name, ok, detail):
    print("criterion %02d %-24s %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def _chain_family(count, lo=0.03, hi=0.06):
    for r1 in np.linspace(lo, hi, count):
        yield cd.chain_model((r1, 0.8 * r1, 0.6 * r1), -0.01)


def test_c01_exact_decomposition():
    start = time.time()
    worst_j = worst_r = 0.0
    models = list(_chain_family(20))
    for i in range(10):
        models.append(cd.grid_model(2 + i % 3, cd.derive_seed(100, i)))
    for model in models:
        sigma = np.asarray(cd.true_covariance(model))
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        res = cd.admm_solve(sigma, cfg)
        assert res.converged
        worst_j = max(
            worst_j, np.abs(np.asarray(res.j_hat) - np.asarray(model.j_markov)).max()
        )
        worst_r = max(
            worst_r,
            np.abs(
                np.asarray(res.sigma_r_hat) - np.asarray(model.sigma_residual)
            ).max(),
        )
    elapsed = time.time() - start
    ok = worst_j <= 1e-6 and worst_r <= 1e-6 and elapsed < 10.0
    _verdict(
        1, "exact decomposition", ok,
        "max err J %.1e, R %.1e over 30 models, %.1fs" % (worst_j, worst_r, elapsed),
    )


def test_c02_reduces_to_l1_mle():
    start = time.time()
    worst = 0.0
    for i in range(10):
        sigma_hat = sample_cov_instance(p=15, n=400, seed=200 + i)
        gamma = cd.gamma_schedule(2.0, 15, 400)
        res = cd.admm_solve(sigma_hat, tight_config(gamma=gamma, lambda_off=math.inf))
        assert res.converged
        reference = gista(sigma_hat, gamma)
        worst = max(worst, np.abs(np.asarray(res.j_hat) - reference).max())
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    _verdict(
        2, "unboxed l1 equivalence", ok,
        "max deviation %.1e over 10 instances, %.1fs" % (worst, elapsed),
    )


def test_c03_reduces_to_soft_threshold():
    start = time.time()
    worst = 0.0
    off = ~np.eye(10, dtype=bool)
    for i in range(10):
        sigma_hat = sample_cov_instance(p=10, n=400, seed=300 + i)
        gamma = cd.gamma_schedule(2.0, 10, 400)
        res = cd.admm_solve(sigma_hat, tight_config(gamma=gamma, lambda_off=1e-6))
        assert res.converged
        est, _ = cd.soft_threshold_covariance(sigma_hat, gamma)
        diff = np.abs(
            -np.asarray(res.sigma_r_hat)[off] - np.asarray(est)[off]
        ).max()
        worst = max(worst, diff)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _verdict(
        3, "soft-threshold limit", ok,
        "max off-diag deviation %.1e, %.1fs" % (worst, elapsed),
    )


def test_c05_sample_complexity_collapse():
    start = time.time()
    worst_rho = -1.0
    worst_final = 0.0
    for qi, q in enumerate((5, 8, 10)):
        p = q * q
        c_gamma = TABLE1_C_GAMMA[q]
        curves = []
        for trial in range(10):
            model = cd.grid_model(
                q,
                cd.derive_seed(500, qi, trial),
                clip_fraction=0.2,
                magnitude_range=(0.15, 0.2),
                diag_boost_policy=DiagBoostPolicy(fixed=1.0),
            )
            warm = None
            row = []
            for ratio in RATIOS:
                n = round(ratio * math.log(p))
                samples = cd.draw_samples(
                    model, n, cd.derive_seed(500, qi, trial, n, 1)
                )
                sigma_hat = cd.sample_covariance(samples)
                gamma = cd.gamma_schedule(c_gamma, p, n)
                res = cd.admm_solve(
                    sigma_hat, tight_config(gamma=gamma, lambda_off=0.2),
                    warm_start=warm,
                )
                warm = res
                row.append(cd.compare_to_truth(res, model).normalized_edit_markov)
            curves.append(row)
        mean_curve = np.mean(curves, axis=0)
        worst_rho = max(worst_rho, spearman(np.array(RATIOS, float), mean_curve))
        worst_final = max(worst_final, mean_curve[-1])
    elapsed = time.time() - start
    ok = worst_rho <= -0.9 and worst_final < 0.05 and elapsed < 1200.0
    _verdict(
        5, "sample-complexity trend", ok,
        "worst Spearman %.3f, worst final %.3f, %.0fs" % (worst_rho, worst_final, elapsed),
    )


def test_c06_overall_precision_dominance():
    wins = 0
    for trial in range(10):
        model = cd.grid_model(
            8,
            cd.derive_seed(600, trial),
            clip_fraction=0.2,
            magnitude_range=(0.15, 0.2),
            diag_boost_policy=DiagBoostPolicy(fixed=1.0),
        )
        n = 3000
        samples = cd.draw_samples(model, n, cd.derive_seed(600, trial, n, 1))
        sigma_hat = cd.sample_covariance(samples)
        gamma = cd.gamma_schedule(2.08, 64, n)
        boxed = cd.admm_solve(
            sigma_hat, tight_config(gamma=gamma, lambda_off=model.lambda_star)
        )
        unboxed = cd.admm_solve(
            sigma_hat, tight_config(gamma=gamma, lambda_off=math.inf)
        )
        # +inf when an estimate's overall covariance is indefinite
        errors = [cd.compare_to_truth(res, model).linf_error_precision_overall
                  for res in (boxed, unboxed)]
        wins += errors[0] < errors[1]
    ok = wins >= 8
    _verdict(6, "box beats plain l1", ok, "%d/10 trials" % wins)


def test_c07_incoherence_example():
    model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    report = cd.incoherence_report(model, m_param=83.0)
    alpha_brute, _, _ = brute_incoherence(
        np.asarray(model.j_markov), np.asarray(model.sigma_residual)
    )
    ok = (
        report.alpha >= 0.855
        and report.a4_satisfied
        and report.a5_satisfied
        and abs(report.alpha - alpha_brute) <= 0.01
    )
    _verdict(
        7, "incoherence certificate", ok,
        "alpha %.4f (brute %.4f), a4 %s, a5 %s at m=83"
        % (report.alpha, alpha_brute, report.a4_satisfied, report.a5_satisfied),
    )


def test_c08_witness_equivalence():
    worst = 0.0
    for model in _chain_family(10, lo=0.032, hi=0.059):
        sigma = np.asarray(cd.true_covariance(model))
        s_m, s_r, _, _ = cd.partition_pairs(model)
        signs = np.sign(np.asarray(model.j_markov))
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        wit = cd.witness_solve(sigma, s_m, s_r, signs, cfg)
        box = cd.admm_solve(sigma, cfg)
        worst = max(
            worst,
            np.abs(np.asarray(wit.j_hat) - np.asarray(box.j_hat)).max(),
            np.abs(np.asarray(wit.sigma_r_hat) - np.asarray(box.sigma_r_hat)).max(),
        )
    # negative control: a strongly coupled model with one true edge
    # removed from the witness support must land elsewhere
    strong = cd.chain_model((0.6, 0.5, 0.4), -0.05)
    sigma = np.asarray(cd.true_covariance(strong))
    s_m, s_r, _, _ = cd.partition_pairs(strong)
    kept = s_m.copy()
    kept[1, 2] = kept[2, 1] = False
    signs = np.sign(np.asarray(strong.j_markov))
    cfg = tight_config(gamma=0.0, lambda_off=strong.lambda_star)
    wit = cd.witness_solve(sigma, kept, s_r, signs, cfg)
    box = cd.admm_solve(sigma, cfg)
    control_gap = np.abs(np.asarray(wit.j_hat) - np.asarray(box.j_hat)).max()
    ok = worst <= 1e-6 and control_gap > 1e-3
    _verdict(
        8, "witness equivalence", ok,
        "max deviation %.1e, control gap %.1e" % (worst, control_gap),
    )


def test_c09_propagation_regimes():
    convergent_ok = 0
    convergent_total = 0
    divergent_fail = 0
    divergent_total = 0
    for k in range(20):
        model = cd.grid_model(
            10,
            cd.derive_seed(900, k),
            clip_fraction=0.5,
            magnitude_range=(0.15, 0.2),
            diag_boost_policy=DiagBoostPolicy(fixed=1.0),
        )
        j_markov = np.asarray(model.j_markov)
        j_overall = np.linalg.inv(np.asarray(cd.true_covariance(model)))
        j_overall = 0.5 * (j_overall + j_overall.T)
        h = np.random.default_rng(cd.derive_seed(900, k, 1)).standard_normal(100)
        if cd.walk_summability(j_markov) < 1.0:
            convergent_total += 1
            trace = cd.lbp_run(InfoModel(j_markov, h), max_iter=1000, tol=1e-10)
            convergent_ok += trace.converged and trace.mean_errors[-1] <= 1e-6
        if cd.walk_summability(j_overall) > 1.5:
            divergent_total += 1
            trace = cd.lbp_run(InfoModel(j_overall, h), max_iter=1000, tol=1e-10)
            divergent_fail += not trace.converged
    ok = (
        convergent_total > 0
        and convergent_ok == convergent_total
        and divergent_total > 0
        and divergent_fail >= 0.9 * divergent_total
    )
    _verdict(
        9, "propagation regimes", ok,
        "markov %d/%d converge, overall %d/%d diverge"
        % (convergent_ok, convergent_total, divergent_fail, divergent_total),
    )


def test_c10_tree_exactness():
    worst = 0.0
    for seed in range(50):
        p = 5 + seed % 26
        j, h = random_tree_info(p=p, seed=seed)
        trace = cd.lbp_run(InfoModel(j, h), max_iter=p, tol=1e-12)
        worst = max(worst, trace.mean_errors[-1], trace.var_errors[-1])
    ok = worst <= 1e-8
    _verdict(10, "tree exactness", ok, "max error %.1e over 50 trees" % worst)


def test_c04_certification():
    # box and witness programs on a chain and a grid at their exact
    # covariances, and a box program with the l1 term on a sampled grid cell
    solves = []
    for model in (cd.chain_model((0.05, 0.04, 0.03), -0.01),
                  cd.grid_model(3, cd.derive_seed(400, 0))):
        sigma = np.asarray(cd.true_covariance(model))
        s_m, s_r, _, _ = cd.partition_pairs(model)
        signs = np.sign(np.asarray(model.j_markov))
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        solves.append(("admm_solve", cfg, cd.admm_solve(sigma, cfg)))
        solves.append(("witness_solve", cfg, cd.witness_solve(sigma, s_m, s_r, signs, cfg)))
    model = cd.grid_model(4, cd.derive_seed(400, 1))
    samples = cd.draw_samples(model, 800, cd.derive_seed(400, 1, 800, 1))
    cfg = tight_config(gamma=cd.gamma_schedule(2.0, 16, 800), lambda_off=model.lambda_star)
    solves.append(("admm_solve", cfg, cd.admm_solve(cd.sample_covariance(samples), cfg)))
    converged = sum(res.converged for _, _, res in solves)
    breaches = certification_breaches(solves)
    ok = converged == len(solves) and not breaches
    _verdict(
        4, "KKT/gap certification", ok,
        "%d/%d solves converged, %d breaches" % (converged, len(solves), len(breaches)),
    )

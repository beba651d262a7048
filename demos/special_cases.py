"""
The two limiting regimes of the box level
=========================================

With lambda -> infinity the box never binds, the residual is forced to
zero, and the program is the plain l1-penalized precision estimate.
With lambda -> 0 the box pins the precision near a diagonal matrix and
the residual absorbs everything the l1 penalty leaves: a negative soft
threshold of the sample covariance.
"""

import math

import numpy as np

import covdecomp as cd

rng = np.random.default_rng(3)
p, n = 10, 400
model = cd.grid_model(3, 11, diag_boost_policy=cd.DiagBoostPolicy(fixed=1.0))
samples = cd.draw_samples(model, n, seed=8)
sigma_hat = np.asarray(cd.sample_covariance(samples))
p = sigma_hat.shape[0]
gamma = cd.gamma_schedule(2.0, p, n)
print("p = %d, n = %d, gamma = %.4f" % (p, n, gamma))

# regime 1: no box
cfg_inf = cd.SolverConfig(gamma=gamma, lambda_off=math.inf,
                          eps_abs=1e-10, eps_rel=1e-9)
res_inf = cd.admm_solve(sigma_hat, cfg_inf)
print("\nlambda = inf:")
print("  residual matrix is identically zero: %s"
      % bool(np.all(np.asarray(res_inf.sigma_r_hat) == 0.0)))
print("  markov support size: %d edges"
      % np.count_nonzero(cd.support_of(res_inf.j_hat)))

# regime 2: box collapsed to (near) zero
cfg_zero = cd.SolverConfig(gamma=gamma, lambda_off=1e-6,
                           eps_abs=1e-10, eps_rel=1e-9)
res_zero = cd.admm_solve(sigma_hat, cfg_zero)
est, r_ref = cd.soft_threshold_covariance(sigma_hat, gamma)
off = ~np.eye(p, dtype=bool)
dev = np.abs(np.asarray(res_zero.sigma_r_hat)[off] - np.asarray(r_ref)[off]).max()
print("\nlambda = 1e-6:")
print("  max |J_hat| off-diagonal: %.2e (pinned to the box)"
      % np.abs(np.asarray(res_zero.j_hat)[off]).max())
print("  residual vs direct soft threshold, max deviation: %.2e" % dev)

# the estimated covariances of the two regimes bracket the blend
print("\nboth solves certified: gaps %.1e / %.1e, KKT %.1e / %.1e"
      % (res_inf.duality_gap, res_zero.duality_gap,
         res_inf.kkt_residual, res_zero.kkt_residual))

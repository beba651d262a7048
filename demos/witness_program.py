"""
The support-constrained witness program
=======================================

Fixing the true zero pattern and the true clipped entries as hard
equality constraints gives an independent solver for the same optimum.
When the incoherence conditions hold, both programs land on the same
point; removing a true edge from the witness support breaks the
agreement, which is the negative control.
"""

import numpy as np

import covdecomp as cd

model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
sigma = np.asarray(cd.true_covariance(model))
s_m, s_r, s_free, s_comp = cd.partition_pairs(model)
print("ordered-pair partition sizes: |S_M| = %d, |S_R| = %d, |S| = %d, |S_M^c| = %d"
      % tuple(np.count_nonzero(mask) for mask in (s_m, s_r, s_free, s_comp)))

cfg = cd.SolverConfig(gamma=0.0, lambda_off=model.lambda_star,
                      eps_abs=1e-10, eps_rel=1e-9)
signs = np.sign(np.asarray(model.j_markov))

witness = cd.witness_solve(sigma, s_m, s_r, signs, cfg)
box = cd.admm_solve(sigma, cfg)
print("\nwitness vs box program:")
print("  max |J difference|  = %.2e"
      % np.abs(np.asarray(witness.j_hat) - np.asarray(box.j_hat)).max())
print("  max |R difference|  = %.2e"
      % np.abs(np.asarray(witness.sigma_r_hat)
               - np.asarray(box.sigma_r_hat)).max())

# negative control: a strongly coupled chain with a true edge dropped
strong = cd.chain_model((0.6, 0.5, 0.4), -0.05)
sigma_s = np.asarray(cd.true_covariance(strong))
sm, sr, _, _ = cd.partition_pairs(strong)
kept = sm.copy()
kept[1, 2] = kept[2, 1] = False
cfg_s = cd.SolverConfig(gamma=0.0, lambda_off=strong.lambda_star,
                        eps_abs=1e-10, eps_rel=1e-9)
wit_bad = cd.witness_solve(sigma_s, kept, sr, np.sign(np.asarray(strong.j_markov)),
                           cfg_s)
box_s = cd.admm_solve(sigma_s, cfg_s)
gap = np.abs(np.asarray(wit_bad.j_hat) - np.asarray(box_s.j_hat)).max()
print("\nnegative control (edge (1,2) removed from the witness support):")
print("  max |J difference|  = %.2e  (far from zero, as it should be)" % gap)

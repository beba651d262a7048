"""The benchmark's workloads: set-up, one job, and the check of its outputs.

A workload's constructor is its set-up: it generates every input from
the run's seed. ``run(i)`` performs job ``i`` and returns what
``check`` needs; a command line job that exits nonzero raises
``JobFailed``. Job ``i`` draws its own seed ``seed * 1000 + i``, except
in ``lbp`` (see there), so the same ``--seed`` gives the same job list
on every run. Runs attempt whole rounds of ``ROUND`` jobs.
"""

import json
import shutil

import numpy as np

import checks


class JobFailed(Exception):
    """A job's command exited with a nonzero status."""


def job_seed(seed, i):
    return seed * 1000 + i


class _Workload:
    ROUND = 1

    def __init__(self, cd, seed, workdir):
        self.cd = cd
        self.seed = seed
        self.workdir = workdir

    def out_dir(self, i):
        return self.workdir / ("job%d" % i)

    def _main(self, argv):
        code = self.cd.cli.main(argv)
        if code != 0:
            raise JobFailed("covdecomp %s exited with %d" % (argv[0], code))

    def bytes_written(self, i):
        out = self.out_dir(i)
        return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())

    def cleanup(self, i):
        shutil.rmtree(self.out_dir(i), ignore_errors=True)


class Sweep(_Workload):
    """``covdecomp sweep``: the sample-complexity experiment at p = 100, 225."""

    GRID_SIZES = (10, 15)
    SAMPLE_SIZES = (250, 500, 1000, 2000)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config = self.workdir / "sweep.json"
        self.config.write_text(json.dumps({
            "grid_sizes": list(self.GRID_SIZES),
            "diag_boost": 1.0,
            "sample_sizes": list(self.SAMPLE_SIZES),
            "c_gamma": [2.08],
            "lambda_policy": "lambda_star",
            "trials": 1,
        }))

    def run(self, i):
        self._main(["sweep", "--config", str(self.config),
                    "--seed", str(job_seed(self.seed, i)),
                    "--threads", "1",
                    "--out", str(self.out_dir(i))])
        return self.out_dir(i) / "sweep.csv"

    def check(self, csv_path):
        checks.check_sweep(csv_path, self.SAMPLE_SIZES,
                           [q * q for q in self.GRID_SIZES])


class Exact(_Workload):
    """Box program and witness program at the exact covariance, p = 400."""

    Q = 20
    # distinct planted models cycled through by the jobs
    MODELS = 6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        boost = self.cd.DiagBoostPolicy(fixed=1.0)
        self.models = [self.cd.grid_model(self.Q, job_seed(self.seed, k),
                                          diag_boost_policy=boost)
                       for k in range(self.MODELS)]

    def run(self, i):
        cd = self.cd
        model = self.models[i % self.MODELS]
        sigma = cd.true_covariance(model)
        cfg = cd.SolverConfig(gamma=0.0, lambda_off=model.lambda_star,
                              eps_abs=1e-10, eps_rel=1e-9)
        box = cd.admm_solve(sigma, cfg)
        s_m, s_r, _, _ = cd.partition_pairs(model)
        signs = np.sign(np.asarray(model.sigma_residual))
        witness = cd.witness_solve(sigma, s_m, s_r, signs, cfg)
        return model, box, witness

    def check(self, output):
        model, box, witness = output
        j = np.asarray(model.j_markov)
        r = np.asarray(model.sigma_residual)
        for result in (box, witness):
            checks.check_exact((result.j_hat, result.sigma_r_hat), j, r,
                               result.converged)


class Lbp(_Workload):
    """``covdecomp lbp`` at its defaults on q = 15 (p = 225)."""

    Q = 15
    MODELS = 5  # the command's default lbp_models
    # A study's work depends fourfold on its planted models (18 to 364
    # propagation sweeps per Markov run), so runs of ~12 freshly seeded
    # studies spread 14-20% from seed to seed. Every run therefore
    # cycles the same studies in whole rounds, and the seed only picks
    # where in the round it starts.
    ROUND = 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config = self.workdir / "lbp.json"
        self.config.write_text(json.dumps({"grid_sizes": [self.Q]}))
        self._expected = {}  # study seed -> walk-summability values, for checks

    def study_seed(self, i):
        return (self.seed + i) % self.ROUND

    def run(self, i):
        self._main(["lbp", "--config", str(self.config),
                    "--seed", str(self.study_seed(i)),
                    "--out", str(self.out_dir(i))])
        return i

    def check(self, i):
        seed = self.study_seed(i)
        if seed not in self._expected:
            self._expected[seed] = lbp_walk_summability(
                self.cd, self.Q, seed, self.MODELS)
        checks.check_lbp(self.out_dir(i), self._expected[seed])


def lbp_walk_summability(cd, q, seed, models):
    """Walk-summability of the models ``covdecomp lbp --seed seed`` studies.

    The planted models are rebuilt from the command's seeds; the overall
    precision is formed here as (J_M^-1 - Sigma_R)^-1.
    """
    out = []
    for k in range(models):
        model = cd.grid_model(q, cd.derive_seed(seed, k),
                              diag_boost_policy=cd.DiagBoostPolicy())
        j = np.asarray(model.j_markov)
        overall = np.linalg.inv(np.linalg.inv(j) - np.asarray(model.sigma_residual))
        out.append({
            "markov": checks.spectral_radius_abs_partial_correlation(j),
            "overall": checks.spectral_radius_abs_partial_correlation(
                0.5 * (overall + overall.T)),
        })
    return out


WORKLOADS = {
    "sweep": Sweep,
    "exact": Exact,
    "lbp": Lbp,
}

"""Solver unit tests: closed-form cases, KKT and box invariants,
residual extraction, the soft-threshold limit, and the witness program."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covdecomp as cd
from covdecomp import (
    DimensionMismatch,
    InfeasibleConstraints,
    NotPositiveDefinite,
    PreconditionViolated,
    SolverConfig,
)
from covdecomp import metrics, solver, symmat
from covdecomp.model import grid_edges
from oracles import (TIGHT, gista, kkt_residual, reference_box_solve,
                     reference_witness_solve, sample_cov_instance, witness_kkt_residual)


def tight_config(**kw):
    merged = dict(TIGHT)
    merged.update(kw)
    return SolverConfig(**merged)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(gamma=0.1, lambda_off=0.2)
        assert cfg.max_iter == 5000
        assert cfg.eps_abs == 1e-8
        assert cfg.eps_rel == 1e-6

    def test_kkt_bound_is_relative_and_never_above_eps_rel(self):
        cfg = SolverConfig(gamma=0.1, lambda_off=0.2)
        assert cfg.kkt_bound(0.5) == 1e-8 + 0.5e-6
        assert cfg.kkt_bound(5.0) == cfg.eps_rel == 1e-6

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": -0.1, "lambda_off": 0.2},
            {"gamma": 0.1, "lambda_off": 0.0},
            {"gamma": 0.1, "lambda_off": -1.0},
            {"gamma": 0.1, "lambda_off": 0.2, "max_iter": 0},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_abs": -1e-8},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_rel": 0.0},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_abs": 0.0},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_rel": -1e-6},
            {"gamma": math.nan, "lambda_off": 0.2},
            {"gamma": 0.1, "lambda_off": math.nan},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_abs": math.nan},
            {"gamma": 0.1, "lambda_off": 0.2, "eps_rel": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(PreconditionViolated):
            SolverConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iter": 2.5},
            {"max_iter": "10"},
            {"max_iter": True},
            {"gamma": math.inf},
            {"gamma": "0.1"},
            {"lambda_off": "x"},
            {"eps_abs": "x"},
            {"eps_abs": math.inf},
            {"eps_rel": math.inf},
        ],
    )
    def test_rejects_values_it_cannot_solve_with(self, kw):
        # not a TypeError from a comparison, nor a solve that misreads them
        with pytest.raises(PreconditionViolated):
            SolverConfig(**{"gamma": 0.1, "lambda_off": 0.2, **kw})

    def test_infinite_lambda_allowed(self):
        cfg = SolverConfig(gamma=0.1, lambda_off=math.inf)
        assert cfg.lambda_off == math.inf


class TestClosedFormCases:
    def test_identity_unpenalized(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        res = cd.admm_solve(np.eye(5), cfg)
        assert res.converged
        assert np.abs(np.asarray(res.j_hat) - np.eye(5)).max() < 1e-8
        assert np.all(np.asarray(res.sigma_r_hat) == 0.0)
        assert res.overall_pd

    def test_diagonal_inverse(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        res = cd.admm_solve(np.diag([2.0, 4.0]), cfg)
        assert np.abs(np.diag(res.j_hat) - [0.5, 0.25]).max() < 1e-9
        assert abs(res.j_hat[0, 1]) < 1e-9

    def test_nonpositive_diagonal_rejected(self):
        bad = np.eye(3)
        bad[1, 1] = 0.0
        with pytest.raises(NotPositiveDefinite):
            cd.admm_solve(bad, SolverConfig(gamma=0.0, lambda_off=1.0))

    def test_non_square_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            cd.admm_solve(np.ones((3, 4)), SolverConfig(gamma=0.0, lambda_off=1.0))

    def test_non_finite_input_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = math.nan
        cfg = SolverConfig(gamma=0.0, lambda_off=1.0)
        with pytest.raises(PreconditionViolated, match="non-finite"):
            cd.admm_solve(bad, cfg)
        s_m = np.eye(3, dtype=bool)
        with pytest.raises(PreconditionViolated, match="non-finite"):
            cd.witness_solve(bad, s_m, np.zeros((3, 3), dtype=bool), np.zeros((3, 3)), cfg)

    def test_asymmetric_input_solves_its_symmetric_part(self):
        sigma = sample_cov_instance(p=6, n=400, seed=3)
        skewed = sigma.copy()
        skewed[0, 1] += 0.05
        skewed[1, 0] -= 0.05
        cfg = tight_config(gamma=0.05, lambda_off=0.2)
        res = cd.admm_solve(skewed, cfg)
        assert res.converged
        plain = cd.admm_solve(sigma, cfg)
        assert np.abs(np.asarray(res.j_hat) - np.asarray(plain.j_hat)).max() < 1e-7

    def test_unbounded_program_rejected_up_front(self, monkeypatch):
        # n < p leaves sigma_hat singular; with no penalty and no box the
        # log-det objective is unbounded below
        x = np.random.default_rng(0).standard_normal((10, 30))
        sigma = x.T @ x / 10
        monkeypatch.setattr(solver, "_prox_gradient", None)
        with pytest.raises(PreconditionViolated, match="unbounded"):
            cd.admm_solve(sigma, SolverConfig(gamma=0.0, lambda_off=math.inf))

    def test_warm_start_of_wrong_size_rejected(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        small = cd.admm_solve(np.eye(4), cfg)
        with pytest.raises(DimensionMismatch):
            cd.admm_solve(np.eye(5), cfg, warm_start=small)

    def test_gap_vanishes_at_optimum(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        res = cd.admm_solve(np.eye(4), cfg)
        assert abs(res.duality_gap) < 1e-9
        assert abs(cd.duality_gap(res, np.eye(4), cfg)) < 1e-9


class TestExactRecovery:
    def test_chain_population_input(self, chain):
        sigma = cd.true_covariance(chain)
        cfg = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        res = cd.admm_solve(np.asarray(sigma), cfg)
        assert res.converged
        assert np.abs(np.asarray(res.j_hat) - np.asarray(chain.j_markov)).max() < 1e-6
        assert (
            np.abs(np.asarray(res.sigma_r_hat) - np.asarray(chain.sigma_residual)).max()
            < 1e-6
        )
        assert np.array_equal(cd.support_of(res.sigma_r_hat),
                              cd.support_of(chain.sigma_residual))
        # the residual-bearing entry sits exactly on the box boundary
        assert abs(abs(res.j_hat[0, 1]) - chain.lambda_star) < 1e-6

    def test_grid_population_input(self, small_grid):
        sigma = cd.true_covariance(small_grid)
        cfg = tight_config(gamma=0.0, lambda_off=small_grid.lambda_star)
        res = cd.admm_solve(np.asarray(sigma), cfg)
        assert res.converged
        assert np.abs(np.asarray(res.j_hat) - np.asarray(small_grid.j_markov)).max() < 1e-6
        assert (
            np.abs(
                np.asarray(res.sigma_r_hat) - np.asarray(small_grid.sigma_residual)
            ).max()
            < 1e-6
        )


@pytest.fixture(scope="module")
def solved():
    sigma = sample_cov_instance(p=8, n=600, seed=11)
    gamma = cd.gamma_schedule(2.0, 8, 600)
    cfg = tight_config(gamma=gamma, lambda_off=0.2)
    return cd.admm_solve(sigma, cfg), sigma, cfg


class TestSolveInvariants:
    def test_kkt_within_tolerance_budget(self, solved):
        res, sigma, cfg = solved
        assert res.converged
        scale = max(np.abs(sigma).max(), np.abs(np.asarray(res.j_hat)).max())
        assert res.kkt_residual <= 10.0 * (cfg.eps_abs + cfg.eps_rel * scale)

    def test_box_feasibility(self, solved):
        res, _, cfg = solved
        j = np.asarray(res.j_hat)
        off = np.abs(j - np.diag(np.diag(j))).max()
        assert off <= cfg.lambda_off + 1e-9

    def test_subgradient_certificate_valid(self, solved):
        res, _, _ = solved
        zg = np.asarray(res.z_gamma)
        j = np.asarray(res.j_hat)
        assert np.abs(zg).max() <= 1.0 + 1e-12
        assert np.all(np.diag(zg) == 0.0)
        on = (np.abs(j) > 1e-8) & ~np.eye(8, dtype=bool)
        assert np.array_equal(np.sign(j[on]), zg[on])

    def test_residual_signs_follow_precision(self, solved):
        res, _, _ = solved
        r = np.asarray(res.sigma_r_hat)
        j = np.asarray(res.j_hat)
        assert np.all(np.diag(r) == 0.0)
        assert np.all(r[r != 0.0] * np.sign(j[r != 0.0]) >= -1e-8)

    def test_residual_support_inside_clip_set(self, solved):
        res, _, cfg = solved
        j = np.asarray(res.j_hat)
        r = np.asarray(res.sigma_r_hat)
        assert np.all(np.abs(j[r != 0.0]) == cfg.lambda_off)

    def test_estimates_are_read_only(self, solved):
        res, _, _ = solved
        for a in (res.j_hat, res.sigma_m_hat, res.sigma_r_hat, res.z_gamma):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_warm_restart_is_idempotent(self, solved):
        res, sigma, cfg = solved
        again = cd.admm_solve(sigma, cfg, warm_start=res)
        assert again.converged
        assert again.iterations <= 3
        assert np.abs(np.asarray(again.j_hat) - np.asarray(res.j_hat)).max() < 1e-7

    def test_warm_start_from_wider_box(self, solved):
        res, sigma, cfg = solved
        narrow = tight_config(gamma=cfg.gamma, lambda_off=0.5 * cfg.lambda_off)
        again = cd.admm_solve(sigma, narrow, warm_start=res)
        cold = cd.admm_solve(sigma, narrow)
        assert again.converged
        assert np.abs(np.asarray(again.j_hat) - np.asarray(cold.j_hat)).max() < 1e-7


class TestConvergedVerdict:
    def test_default_boost_cell_converges_within_kkt_bound(self):
        # the default (adaptive) diagonal boost makes this cell
        # ill-conditioned; a stop rule looser than the KKT bound leaves
        # it uncertified, so the solver must stop at a point meeting it
        model = cd.grid_model(10, cd.derive_seed(0, 0, 0))
        samples = cd.draw_samples(model, 2000, cd.derive_seed(0, 0, 0, 2000, 1))
        sigma = np.asarray(cd.sample_covariance(samples))
        cfg = SolverConfig(
            gamma=cd.gamma_schedule(2.08, 100, 2000), lambda_off=model.lambda_star
        )
        res = cd.admm_solve(sigma, cfg)
        scale = max(np.abs(sigma).max(), np.abs(np.asarray(res.j_hat)).max())
        bound = 10.0 * (cfg.eps_abs + cfg.eps_rel * scale)
        assert res.converged
        assert res.kkt_residual <= bound


class TestTruncatedRuns:
    def test_early_stop_reports_not_converged(self):
        sigma = sample_cov_instance(p=6, n=400, seed=3)
        cfg = SolverConfig(gamma=0.05, lambda_off=0.2, max_iter=2)
        res = cd.admm_solve(sigma, cfg)
        assert not res.converged
        assert res.iterations == 2
        # best iterate is still usable
        np.linalg.cholesky(np.asarray(res.j_hat))

    def test_gap_shrinks_with_convergence(self):
        sigma = sample_cov_instance(p=6, n=400, seed=3)
        gamma = cd.gamma_schedule(2.0, 6, 400)
        full = cd.admm_solve(sigma, tight_config(gamma=gamma, lambda_off=0.2))
        short = cd.admm_solve(
            sigma, SolverConfig(gamma=gamma, lambda_off=0.2, max_iter=2)
        )
        assert full.converged and not short.converged
        assert abs(short.duality_gap) > abs(full.duality_gap)


class TestExtractResidual:
    def test_interior_solution_yields_zero(self):
        sigma = sample_cov_instance(p=5, n=500, seed=9)
        cfg = tight_config(gamma=0.0, lambda_off=50.0)
        res = cd.admm_solve(sigma, cfg)
        assert np.all(np.asarray(res.sigma_r_hat) == 0.0)
        assert not res.sign_conflicts.any()

    def test_infinite_lambda_yields_zero(self):
        sigma = sample_cov_instance(p=5, n=500, seed=9)
        cfg = tight_config(gamma=0.1, lambda_off=math.inf)
        res = cd.admm_solve(sigma, cfg)
        assert np.all(np.asarray(res.sigma_r_hat) == 0.0)

    def test_clip_mask_override_restricts_support(self, chain):
        sigma = np.asarray(cd.true_covariance(chain))
        cfg = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        res = cd.admm_solve(sigma, cfg)
        clip = np.zeros((4, 4), dtype=bool)
        clip[2, 3] = clip[3, 2] = True
        _, _, r, _ = solver._certificate(np.asarray(res.j_hat), np.asarray(res.sigma_m_hat),
                                         sigma, cfg, clip_mask=clip)
        assert r[0, 1] == 0.0
        # (2,3) is not clipped in truth, so the identity value there is noise
        assert not cd.support_of(r, threshold=1e-6).any()

    def test_sign_conflict_zeroed_and_logged(self, caplog):
        j = np.array([[1.0, 0.3], [0.3, 1.0]])
        j_inv = symmat.inv_pd(j)
        sigma = j_inv.copy()
        sigma[0, 1] += 0.1
        sigma[1, 0] += 0.1
        cfg = SolverConfig(gamma=0.0, lambda_off=0.3)
        cert = solver._certificate(j, j_inv, sigma, cfg)
        with caplog.at_level("WARNING", logger="covdecomp.solver"):
            res = solver._finalize((j, j_inv, 1, False, cert), sigma, cfg)
        assert np.all(np.asarray(res.sigma_r_hat) == 0.0)
        assert res.sign_conflicts.tolist() == [[False, True], [False, False]]
        assert any("sign-conflicting" in m for m in caplog.messages)


class TestSoftThresholdCovariance:
    def test_worked_example(self):
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        est, r = cd.soft_threshold_covariance(sigma, 0.2)
        assert est[0, 1] == pytest.approx(0.3)
        assert r[0, 1] == pytest.approx(-0.3)
        assert est[0, 0] == 1.0 and est[1, 1] == 2.0

    def test_dead_zone(self):
        sigma = np.array([[1.0, 0.1], [0.1, 1.0]])
        est, r = cd.soft_threshold_covariance(sigma, 0.2)
        assert est[0, 1] == 0.0
        assert r[0, 1] == 0.0

    def test_zero_gamma_is_identity(self):
        sigma = sample_cov_instance(p=4, n=200, seed=5)
        est, r = cd.soft_threshold_covariance(sigma, 0.0)
        assert np.array_equal(np.asarray(est), sigma)
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(np.asarray(r)[off], -sigma[off])

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            cd.soft_threshold_covariance(np.eye(2), -0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3
        ),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_off_diagonal_antisymmetry(self, vals, gamma):
        sigma = np.eye(3) * 3.0
        sigma[0, 1] = sigma[1, 0] = vals[0]
        sigma[0, 2] = sigma[2, 0] = vals[1]
        sigma[1, 2] = sigma[2, 1] = vals[2]
        est, r = cd.soft_threshold_covariance(sigma, gamma)
        off = ~np.eye(3, dtype=bool)
        assert np.array_equal(np.asarray(est)[off], -np.asarray(r)[off])
        assert np.all(np.abs(np.asarray(r)[off]) <= np.maximum(np.abs(sigma[off]) - gamma, 0.0) + 1e-15)


def _random_spd(p, seed, decades=4.0):
    # a random eigenbasis with eigenvalues log-uniform over some decades
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (q * 10.0 ** rng.uniform(-0.5 * decades, 0.5 * decades, p)) @ q.T
    return 0.5 * (a + a.T)


class TestHonestVerdict:
    # lapack_route's patch holds for every example of a run, which is
    # what these tests need
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        p=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        lambda_off=st.one_of(st.floats(1e-3, 2.0), st.just(math.inf)),
        max_iter=st.sampled_from([1, 2, 10, 100, 1000]),
    )
    def test_certifies_or_raises(self, p, seed, gamma, lambda_off, max_iter, lapack_route):
        # a solve either raises a typed error, stops certified, or says it
        # ran out of iterations; a converged verdict is checked afresh
        sigma = _random_spd(p, seed)
        cfg = tight_config(gamma=gamma, lambda_off=lambda_off, max_iter=max_iter)
        try:
            res = cd.admm_solve(sigma, cfg)
        except cd.CovdecompError:
            return
        if not res.converged:
            assert res.iterations == max_iter
            return
        j = np.asarray(res.j_hat)
        r = np.asarray(res.sigma_r_hat)
        scale = max(np.abs(sigma).max(), np.abs(j).max())
        assert kkt_residual(sigma, j, r, gamma) <= 10.0 * (cfg.eps_abs + cfg.eps_rel * scale)
        assert abs(cd.duality_gap(res, sigma, cfg)) <= 10.0 * cfg.eps_abs
        # the residual lives on the clipped entries, with their signs
        assert np.all(np.abs(j[r != 0.0]) == lambda_off)
        assert np.all(r * j >= 0.0)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        p=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
        gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        lambda_off=st.floats(1e-3, 2.0),
        max_iter=st.sampled_from([1, 2, 10, 100, 1000]),
    )
    def test_witness_certifies_or_raises(self, p, seed, density, gamma, lambda_off,
                                         max_iter, lapack_route):
        # the same three outcomes for the witness program on random masks
        rng = np.random.default_rng(seed)
        sigma = _random_spd(p, seed)
        upper = np.triu(rng.random((p, p)) < density, 1)
        in_r = upper & (rng.random((p, p)) < 0.5)
        signs = np.triu(rng.choice([-1.0, 1.0], (p, p)), 1)
        signs += signs.T
        s_m = upper | upper.T | np.eye(p, dtype=bool)
        s_r = in_r | in_r.T
        cfg = tight_config(gamma=gamma, lambda_off=lambda_off, max_iter=max_iter)
        try:
            res = cd.witness_solve(sigma, s_m, s_r, signs, cfg)
        except cd.CovdecompError:
            return
        if not res.converged:
            assert res.iterations == max_iter
            return
        j = np.asarray(res.j_hat)
        r = np.asarray(res.sigma_r_hat)
        scale = max(np.abs(sigma).max(), np.abs(j).max())
        assert (witness_kkt_residual(sigma, j, s_m & ~s_r, gamma)
                <= 10.0 * (cfg.eps_abs + cfg.eps_rel * scale))
        # the pinned entries stay where the program puts them, and the
        # residual lives on s_r with the signs of J
        assert np.array_equal(j[s_r], lambda_off * signs[s_r])
        assert not j[~s_m].any()
        assert not r[~s_r].any()
        assert np.all(r * j >= 0.0)


class TestSubnormalGamma:
    def test_certificate_does_not_overflow(self):
        # the interior subgradient is clipped before it is divided by gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = cd.admm_solve([[1.0, 0.3], [0.3, 1.0]],
                                SolverConfig(gamma=5e-324, lambda_off=2))
        assert np.isfinite(res.kkt_residual)


class TestAgainstProximalGradient:
    def test_matches_independent_solver_without_box(self):
        sigma = sample_cov_instance(p=8, n=500, seed=21)
        gamma = cd.gamma_schedule(2.0, 8, 500)
        cfg = tight_config(gamma=gamma, lambda_off=math.inf)
        res = cd.admm_solve(sigma, cfg)
        reference = gista(sigma, gamma)
        assert np.abs(np.asarray(res.j_hat) - reference).max() < 1e-5


class TestDualityGapErrors:
    def test_indefinite_estimate_rejected(self):
        res = cd.SolveResult(
            j_hat=np.diag([1.0, -1.0]),
            sigma_m_hat=np.eye(2),
            sigma_r_hat=np.zeros((2, 2)),
            z_gamma=np.zeros((2, 2)),
            kkt_residual=0.0,
            duality_gap=0.0,
            iterations=1,
            converged=True,
            overall_pd=True,
            sign_conflicts=np.zeros((2, 2), dtype=bool),
        )
        with pytest.raises(NotPositiveDefinite):
            cd.duality_gap(res, np.eye(2), SolverConfig(gamma=0.0, lambda_off=1.0))

    def test_malformed_sigma_rejected(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        res = cd.admm_solve(np.eye(3), cfg)
        with pytest.raises(DimensionMismatch):
            cd.duality_gap(res, np.eye(4), cfg)
        bad = np.eye(3)
        bad[0, 0] = math.nan
        with pytest.raises(PreconditionViolated, match="non-finite"):
            cd.duality_gap(res, bad, cfg)


class TestPostCheckOverallPd:
    def test_detects_indefinite_overall_model(self):
        cfg = tight_config(gamma=0.0, lambda_off=math.inf)
        res = cd.admm_solve(np.eye(2), cfg)
        assert res.overall_pd is True
        # a residual that outweighs Sigma_M leaves Sigma_M - Sigma_R indefinite
        r = np.array([[0.0, 1.5], [1.5, 0.0]])
        cert = (0.0, np.zeros((2, 2)), r, np.zeros((2, 2), dtype=bool))
        res = solver._finalize((np.eye(2), np.eye(2), 1, True, cert), np.eye(2), cfg)
        assert res.overall_pd is False


class TestNoEigendecomposition:
    def test_solves_decide_definiteness_by_cholesky(self, monkeypatch):
        model = _fixed_boost_grid(5, 3)
        sigma = np.asarray(cd.true_covariance(model))
        sample = np.asarray(cd.sample_covariance(cd.draw_samples(model, 500, 8)))
        s_m, s_r, signs = _planted_witness(model)

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition in a solve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        gamma = cd.gamma_schedule(2.08, 25, 500)
        assert cd.admm_solve(sample, replace(cfg, gamma=gamma)).converged
        assert cd.admm_solve(sigma, cfg).converged
        assert cd.witness_solve(sigma, s_m, s_r, signs, cfg).converged


class TestWitnessSolve:
    def test_diagonal_program(self):
        sigma = np.diag([1.0, 2.0, 4.0])
        s_m = np.eye(3, dtype=bool)
        s_r = np.zeros((3, 3), dtype=bool)
        cfg = tight_config(gamma=0.0, lambda_off=1.0)
        res = cd.witness_solve(sigma, s_m, s_r, np.zeros((3, 3)), cfg)
        assert res.converged
        assert np.abs(np.diag(res.j_hat) - [1.0, 0.5, 0.25]).max() < 1e-8
        assert np.all(np.asarray(res.sigma_r_hat) == 0.0)

    def test_coincides_with_box_program_on_true_supports(self, chain):
        sigma = np.asarray(cd.true_covariance(chain))
        s_m, s_r, _, _ = cd.partition_pairs(chain)
        signs = np.sign(np.asarray(chain.j_markov))
        cfg = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        wit = cd.witness_solve(sigma, s_m, s_r, signs, cfg)
        box = cd.admm_solve(sigma, cfg)
        assert wit.converged and box.converged
        assert np.abs(np.asarray(wit.j_hat) - np.asarray(box.j_hat)).max() < 1e-6
        assert (
            np.abs(np.asarray(wit.sigma_r_hat) - np.asarray(box.sigma_r_hat)).max()
            < 1e-6
        )

    def test_missing_edge_changes_solution(self):
        model = cd.chain_model((0.6, 0.5, 0.4), -0.05)
        sigma = np.asarray(cd.true_covariance(model))
        s_m, s_r, _, _ = cd.partition_pairs(model)
        kept = s_m.copy()
        kept[1, 2] = kept[2, 1] = False
        signs = np.sign(np.asarray(model.j_markov))
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        wit = cd.witness_solve(sigma, kept, s_r, signs, cfg)
        box = cd.admm_solve(sigma, cfg)
        assert np.abs(np.asarray(wit.j_hat) - np.asarray(box.j_hat)).max() > 1e-3

    def test_precondition_rejections(self, chain):
        sigma = np.asarray(cd.true_covariance(chain))
        s_m, s_r, _, _ = cd.partition_pairs(chain)
        signs = np.sign(np.asarray(chain.j_markov))
        good = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        with pytest.raises(PreconditionViolated, match="finite"):
            cd.witness_solve(
                sigma, s_m, s_r, signs, tight_config(gamma=0.0, lambda_off=math.inf)
            )
        no_diag = s_m & ~np.eye(4, dtype=bool)
        with pytest.raises(PreconditionViolated, match="diagonal"):
            cd.witness_solve(sigma, no_diag, s_r, signs, good)
        outside = np.zeros((4, 4), dtype=bool)
        outside[0, 3] = True
        with pytest.raises(PreconditionViolated, match="s_m"):
            cd.witness_solve(sigma, s_m, outside, signs, good)
        with pytest.raises(PreconditionViolated, match="sign"):
            cd.witness_solve(sigma, s_m, s_r, np.zeros((4, 4)), good)

    def test_conflicting_signs_rejected_before_solving(self, chain, monkeypatch):
        sigma = np.asarray(cd.true_covariance(chain))
        s_m, s_r, _, _ = cd.partition_pairs(chain)
        signs = np.sign(np.asarray(chain.j_markov))
        i, k = np.argwhere(np.triu(s_r))[0]
        signs[k, i] = -signs[i, k]
        cfg = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        monkeypatch.setattr(solver, "_prox_gradient", None)
        with pytest.raises(PreconditionViolated,
                           match=r"opposite signs at \(%d, %d\)" % (i, k)):
            cd.witness_solve(sigma, s_m, s_r, signs, cfg)

    @pytest.mark.parametrize("operand", ["s_m", "s_r", "signs_on_sr"])
    def test_operand_of_wrong_shape_rejected(self, operand, chain, monkeypatch):
        sigma = np.asarray(cd.true_covariance(chain))
        s_m, s_r, _, _ = cd.partition_pairs(chain)
        args = {"s_m": s_m, "s_r": s_r, "signs_on_sr": np.sign(np.asarray(chain.j_markov))}
        cfg = tight_config(gamma=0.0, lambda_off=chain.lambda_star)
        # rejected before the solve starts
        monkeypatch.setattr(solver, "_prox_gradient", None)
        # a 3 x 3 operand, then a (k, 2) array of pairs
        for bad in (args[operand][:3, :3], np.argwhere(args[operand])):
            with pytest.raises(DimensionMismatch, match=operand):
                cd.witness_solve(sigma, cfg=cfg, **{**args, operand: bad})

    def test_impossible_pattern_raises(self):
        # the witness program leaves the diagonal free, so every pattern
        # it builds has a PD completion; drive the shared loop with a
        # prox that pins the diagonal at 1 and the off-diagonal at 5,
        # which no PD matrix matches, so no step length is feasible
        def prox(m, t, out):
            out[...] = [[1.0, 5.0], [5.0, 1.0]]

        cfg = tight_config(gamma=0.0, lambda_off=5.0)
        with pytest.raises(InfeasibleConstraints):
            solver._prox_gradient(solver._Workspace(np.eye(2), cfg), prox, 0.5 * np.eye(2))

def _fixed_boost_grid(q, seed):
    return cd.grid_model(q, seed, diag_boost_policy=cd.DiagBoostPolicy(fixed=1.0))


def _default_cell(seed, n):
    # one cell of the default {"grid_sizes": [10]} sweep as the sweep drew
    # it from per-sample data, before it drew Wishart covariances; the
    # tests below pin that draw
    model = cd.grid_model(10, cd.derive_seed(seed, 0, 0))
    samples = cd.draw_samples(model, n, cd.derive_seed(seed, 0, 0, n, 1))
    sigma = np.asarray(cd.sample_covariance(samples))
    return sigma, model.lambda_star, cd.gamma_schedule(2.08, 100, n)


def _assert_bitwise(res, ref):
    # tobytes also tells -0.0 from 0.0, which the matrix CSVs print apart
    assert np.asarray(res.j_hat).tobytes() == ref["j_hat"].tobytes()
    assert np.asarray(res.sigma_r_hat).tobytes() == ref["sigma_r_hat"].tobytes()
    assert res.iterations == ref["iterations"]
    assert res.converged == ref["converged"]
    for name in ("kkt_residual", "duality_gap"):
        assert np.float64(getattr(res, name)).tobytes() == np.float64(ref[name]).tobytes()


def _box_loop(sigma, cfg, start=None):
    # the box program on the dense prox-gradient loop, from start or cold;
    # admm_solve runs it when a gamma > 0 working set's band is wider than
    # p / 2, and for gamma = 0 when the dual Newton steps hand over
    start = np.diag(1.0 / np.diag(sigma)) if start is None else start
    ws = solver._Workspace(sigma, cfg)
    prox = solver._box_prox(cfg.gamma, cfg.lambda_off, slice(None, None, sigma.shape[0] + 1))
    solved = solver._prox_gradient(ws, prox, start)
    return solver._finalize(solved, sigma, cfg)


class TestAgainstReferenceLoop:
    """The workspace loop's iterates are bit for bit those of the loop it
    replaced, kept as ``oracles.reference_prox_gradient``."""

    def test_warm_started_sweep_chain(self):
        model = _fixed_boost_grid(10, 11)
        warm, ref_warm = None, None
        for n in (250, 500, 1000, 2000):
            samples = cd.draw_samples(model, n, 100 + n)
            sigma = np.asarray(cd.sample_covariance(samples))
            cfg = SolverConfig(gamma=cd.gamma_schedule(2.08, 100, n),
                               lambda_off=model.lambda_star)
            warm = _box_loop(sigma, cfg, None if warm is None else warm.j_hat)
            ref = reference_box_solve(sigma, cfg, ref_warm)
            ref_warm = ref["j_hat"]
            _assert_bitwise(warm, ref)

    def test_unpenalised_box_program(self):
        model = _fixed_boost_grid(10, 11)
        sigma = np.asarray(cd.true_covariance(model))
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        ref = reference_box_solve(sigma, cfg)
        # some trial points have no Cholesky factor
        assert ref["not_pd"] > 0
        _assert_bitwise(_box_loop(sigma, cfg), ref)

    def test_default_cell_of_hundreds_of_iterations(self):
        sigma, lam, gamma = _default_cell(0, 2000)
        cfg = SolverConfig(gamma=gamma, lambda_off=lam)
        ref = reference_box_solve(sigma, cfg)
        assert ref["iterations"] >= 300
        _assert_bitwise(_box_loop(sigma, cfg), ref)

    def test_backtracking_solve(self):
        sigma, lam, gamma = _default_cell(2, 250)
        cfg = SolverConfig(gamma=gamma, lambda_off=lam)
        ref = reference_box_solve(sigma, cfg)
        # halvings both for a missing factor and for too little decrease
        assert 0 < ref["not_pd"] < ref["backtracks"]
        _assert_bitwise(_box_loop(sigma, cfg), ref)

    def test_solve_that_hits_max_iter(self):
        sigma, lam, gamma = _default_cell(0, 2000)
        cfg = SolverConfig(gamma=gamma, lambda_off=lam, max_iter=40)
        ref = reference_box_solve(sigma, cfg)
        assert not ref["converged"]
        _assert_bitwise(_box_loop(sigma, cfg), ref)


def _allocation_rises(monkeypatch, solves):
    # the rise of the peak traced memory between two prox calls, one
    # iteration or one backtrack, over every loop that solves() runs; a
    # pass's set-up (ws.start), which a growing working set repeats within
    # the loop, is no iteration
    if symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_LAPACKE_dpotrf/dpotri_work64_")
    rises = []
    loop = solver._prox_gradient

    def watched_loop(ws, prox, j):
        base = []
        start = ws.start

        def set_up(j):
            base.clear()
            return start(j)

        ws.start = set_up

        def watched(m, t, out):
            if base:
                rises.append(tracemalloc.get_traced_memory()[1] - base[0])
            prox(m, t, out)
            tracemalloc.reset_peak()
            base[:] = [tracemalloc.get_traced_memory()[0]]

        return loop(ws, watched, j)

    monkeypatch.setattr(solver, "_prox_gradient", watched_loop)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        solves()
    finally:
        if started:
            tracemalloc.stop()
    return rises


def _planted_witness(model):
    # s_m, s_r and the residual's signs of a planted model
    s_m, s_r, _, _ = cd.partition_pairs(model)
    return s_m, s_r, np.sign(np.asarray(model.sigma_residual))


class TestWorkspace:
    def test_iterations_allocate_no_matrix(self, monkeypatch):
        # the peak must not rise by as much as a boolean p x p array
        model = _fixed_boost_grid(15, 3)
        p = 225
        sigma = np.asarray(cd.true_covariance(model))

        def solves():
            for gamma in (0.0, 0.01, 0.02):
                cfg = tight_config(gamma=gamma, lambda_off=model.lambda_star)
                assert _box_loop(sigma, cfg).converged

        rises = _allocation_rises(monkeypatch, solves)
        assert len(rises) > 100
        assert max(rises) < p * p


def _witness_case(name):
    # (sigma, model, cfg): exact covariances at gamma = 0, or a sample
    # covariance of the q = 10 grid at the sweep's gamma
    if name == "chain":
        model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    else:
        model = _fixed_boost_grid(10, 3 if name == "q10_seed3" else 11)
    sigma = np.asarray(cd.true_covariance(model))
    gamma = 0.0
    if name.startswith("n"):
        n = int(name[1:])
        samples = cd.draw_samples(model, n, 100 + n)
        sigma = np.asarray(cd.sample_covariance(samples))
        gamma = cd.gamma_schedule(2.08, sigma.shape[0], n)
    return sigma, model, tight_config(gamma=gamma, lambda_off=model.lambda_star)


def _assert_matches_reference(res, ref):
    # the dense loop's steps with sums over F in another order: the same
    # iterations, and J within the last bits
    assert res.iterations == ref["iterations"]
    assert res.converged == ref["converged"]
    assert np.abs(np.asarray(res.j_hat) - ref["j_hat"]).max() <= 1e-12
    assert np.abs(np.asarray(res.sigma_r_hat) - ref["sigma_r_hat"]).max() <= 1e-12
    assert np.array_equal(res.sign_conflicts, ref["sign_conflicts"])


class TestFreeEntryWitness:
    """witness_solve runs the loop on the free entries alone; against the
    dense loop, kept as ``oracles.reference_witness_solve``."""

    @pytest.mark.parametrize("name", ["q10_seed11", "q10_seed3", "chain", "n250", "n2000"])
    def test_matches_reference_loop(self, name):
        sigma, model, cfg = _witness_case(name)
        operands = _planted_witness(model)
        ref = reference_witness_solve(sigma, *operands, cfg)
        assert ref["converged"]
        _assert_matches_reference(cd.witness_solve(sigma, *operands, cfg), ref)

    def test_permuted_grid(self):
        # in a random order the band of s_m spans most of the matrix, which
        # is then factored and inverted as one block
        sigma, model, cfg = _witness_case("q10_seed11")
        order = np.random.default_rng(7).permutation(sigma.shape[0])
        sub = np.ix_(order, order)
        operands = [np.asarray(x)[sub] for x in _planted_witness(model)]
        ws = solver._FreeWorkspace(sigma[sub], cfg, operands[0] & ~operands[1], operands[1])
        assert ws.kd > sigma.shape[0] // 2
        ref = reference_witness_solve(sigma[sub], *operands, cfg)
        assert ref["converged"]
        _assert_matches_reference(cd.witness_solve(sigma[sub], *operands, cfg), ref)

    def test_iterations_allocate_no_matrix(self, monkeypatch):
        model = _fixed_boost_grid(15, 3)
        p = 225
        sigma = np.asarray(cd.true_covariance(model))

        def solves():
            for gamma in (0.0, 0.01):
                cfg = tight_config(gamma=gamma, lambda_off=model.lambda_star)
                assert cd.witness_solve(sigma, *_planted_witness(model), cfg).converged

        rises = _allocation_rises(monkeypatch, solves)
        assert len(rises) > 40
        assert max(rises) < p * p

    def test_free_set_of_the_diagonal_only(self):
        p = 6
        sigma = _random_spd(p, 5)
        eye = np.eye(p, dtype=bool)
        s_r = np.zeros((p, p), dtype=bool)
        s_r[0, 3] = s_r[3, 0] = s_r[1, 2] = s_r[2, 1] = True
        signs = np.where(s_r, -1.0, 0.0)
        cfg = tight_config(gamma=0.1, lambda_off=0.05)
        for pinned in (np.zeros_like(s_r), s_r):
            operands = (eye | pinned, pinned, signs)
            ref = reference_witness_solve(sigma, *operands, cfg)
            res = cd.witness_solve(sigma, *operands, cfg)
            assert res.converged
            _assert_matches_reference(res, ref)
            if not pinned.any():
                # then the answer is diag(1 / Sigma_ii)
                inverse_diag = np.diag(1.0 / np.diag(sigma))
                assert np.abs(np.asarray(res.j_hat) - inverse_diag).max() < 1e-8

    def test_empty_residual_support(self):
        model = _fixed_boost_grid(6, 0)
        sigma = np.asarray(cd.true_covariance(model))
        s_m, _, _ = _planted_witness(model)
        none = np.zeros_like(s_m)
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        res = cd.witness_solve(sigma, s_m, none, np.zeros(sigma.shape), cfg)
        assert res.converged
        assert not np.asarray(res.sigma_r_hat).any()
        _assert_matches_reference(
            res, reference_witness_solve(sigma, s_m, none, np.zeros(sigma.shape), cfg))


def _working_set_passes(monkeypatch):
    # the half-bandwidth of every pass of the working-set solves that follow
    kds, set_free = [], solver._FreeWorkspace._set_free

    def recorded(ws, *args):
        set_free(ws, *args)
        kds.append(ws.kd)

    monkeypatch.setattr(solver._FreeWorkspace, "_set_free", recorded)
    return kds


def _grid_mask(q):
    mask = np.eye(q * q, dtype=bool)
    for i, k in grid_edges(q):
        mask[i, k] = mask[k, i] = True
    return mask


def _half_bandwidth(mask, order):
    position = np.argsort(order)
    rows, cols = np.nonzero(mask)
    return int(np.abs(position[rows] - position[cols]).max())


class TestWorkingSet:
    """gamma > 0 box solves iterate on a working set F in reverse
    Cuthill-McKee order, grow F until the whole certificate holds, and run
    the dense loop when the reordered band of F is wider than p / 2."""

    def test_growing_working_set_matches_dense_loop(self, lapack_route, monkeypatch):
        # a cold q = 10 cell: the first pass converges on F, and the whole
        # certificate then finds zeros with |Sigma - J^-1|_ij > gamma
        model = _fixed_boost_grid(10, 0)
        sigma = np.asarray(cd.draw_sample_covariance(model, 1000, 1000))
        cfg = tight_config(gamma=cd.gamma_schedule(2.08, 100, 1000),
                           lambda_off=model.lambda_star)
        ref = _box_loop(sigma, cfg)
        kds = _working_set_passes(monkeypatch)
        res = cd.admm_solve(sigma, cfg)
        assert len(kds) == 2 and max(kds) <= 50
        assert res.converged and ref.converged
        for a, b in ((res.j_hat, ref.j_hat), (res.sigma_r_hat, ref.sigma_r_hat)):
            assert metrics._sign_consistent(a, b, cd.support_of(a), cd.support_of(b))
        # each answer has a subgradient of the objective with entries within
        # its KKT residual, so of Frobenius norm at most p kkt; -log det is
        # strongly convex with modulus 1 / L^2 on the segment between the
        # two, L the larger top eigenvalue, so |J - J_ref|_F <= p (kkt +
        # kkt_ref) L^2
        j, j_ref = np.asarray(res.j_hat), np.asarray(ref.j_hat)
        top = max(np.linalg.eigvalsh(j)[-1], np.linalg.eigvalsh(j_ref)[-1])
        bound = 100 * (res.kkt_residual + ref.kkt_residual) * top ** 2
        assert bound < 1e-6
        assert np.abs(j - j_ref).max() <= bound

    def test_wide_band_takes_the_dense_loop(self, lapack_route, monkeypatch):
        # at the adaptive boost F holds most pairs of this q = 6 cell, and in
        # any order its band is wider than p / 2
        model = cd.grid_model(6, 1)
        order = np.random.default_rng(1).permutation(36)
        sigma = np.asarray(cd.draw_sample_covariance(model, 1000, 1001))[np.ix_(order, order)]
        cfg = SolverConfig(gamma=cd.gamma_schedule(2.08, 36, 1000), lambda_off=model.lambda_star)
        free = np.eye(36, dtype=bool) | (np.abs(sigma) > cfg.gamma)
        assert solver._rcm(free)[1] > 18
        loop, kinds = solver._prox_gradient, []

        def recorded(ws, *args):
            kinds.append(type(ws))
            return loop(ws, *args)

        ref = _box_loop(sigma, cfg)
        monkeypatch.setattr(solver, "_prox_gradient", recorded)
        kds = _working_set_passes(monkeypatch)
        res = cd.admm_solve(sigma, cfg)
        # no band workspace is made for it
        assert kds == [] and kinds == [solver._Workspace]
        assert res.converged
        _assert_bitwise(res, vars(ref))

    def test_band_iterations_allocate_no_matrix(self, monkeypatch):
        # both cells grow F once
        model = _fixed_boost_grid(15, 0)
        p = 225
        kds = _working_set_passes(monkeypatch)

        def solves():
            for n in (1000, 2000):
                sigma = np.asarray(cd.draw_sample_covariance(model, n, n))
                cfg = SolverConfig(gamma=cd.gamma_schedule(2.08, p, n),
                                   lambda_off=model.lambda_star)
                assert cd.admm_solve(sigma, cfg).converged

        rises = _allocation_rises(monkeypatch, solves)
        assert len(kds) == 4 and max(kds) <= p // 2
        assert len(rises) > 30
        assert max(rises) < p * p

    def test_order_is_a_deterministic_permutation(self):
        q = 10
        mask = _grid_mask(q)
        scramble = np.random.default_rng(3).permutation(q * q)
        mask = mask[np.ix_(scramble, scramble)]
        order, kd = solver._rcm(mask)
        assert np.array_equal(np.sort(order), np.arange(q * q))
        again = solver._rcm(mask.copy())
        assert np.array_equal(again[0], order) and again[1] == kd
        assert _half_bandwidth(mask, order) == kd == q

    @pytest.mark.parametrize("q", [3, 5, 10, 15])
    def test_one_far_edge_keeps_the_grid_band(self, q):
        # in the grid's own order an edge between two corners spans up to
        # the whole matrix
        p = q * q
        for far in ((0, p - 1), (q - 1, p - q), (0, q - 1), (0, p - q)):
            mask = _grid_mask(q)
            mask[far] = mask[far[::-1]] = True
            order, kd = solver._rcm(mask)
            assert _half_bandwidth(mask, order) == kd <= q + 2


class TestInversePaths:
    """Both ways of forming J^-1 reach the same certified optimum."""

    def _solve_both(self, solve, monkeypatch):
        if symmat._lapack is None:
            pytest.skip("numpy bundles no scipy_LAPACKE_dpotrf/dpotri_work64_")
        lapack = solve()
        monkeypatch.setattr(symmat, "_lapack", None)
        fallback = solve()
        for res in (lapack, fallback):
            assert res.converged
            assert res.kkt_residual < 1e-6
        assert np.abs(np.asarray(lapack.j_hat) - np.asarray(fallback.j_hat)).max() < 1e-9

    def test_box_program(self, small_grid, monkeypatch):
        sigma = np.asarray(cd.true_covariance(small_grid))
        cfg = tight_config(gamma=0.0, lambda_off=small_grid.lambda_star)
        self._solve_both(lambda: cd.admm_solve(sigma, cfg), monkeypatch)

    def test_witness_program(self, small_grid, monkeypatch):
        sigma = np.asarray(cd.true_covariance(small_grid))
        s_m, s_r, _, _ = cd.partition_pairs(small_grid)
        signs = np.sign(np.asarray(small_grid.j_markov))
        cfg = tight_config(gamma=0.0, lambda_off=small_grid.lambda_star)
        self._solve_both(lambda: cd.witness_solve(sigma, s_m, s_r, signs, cfg),
                         monkeypatch)


def _no_loop(*args, **kwargs):
    raise AssertionError("the dual Newton solve handed over to the loop")


def _exact_case(q, boost):
    policy = cd.DiagBoostPolicy() if boost is None else cd.DiagBoostPolicy(fixed=boost)
    model = cd.grid_model(q, 0, diag_boost_policy=policy)
    return model, np.asarray(cd.true_covariance(model))


class TestProjectedNewton:
    """gamma = 0 box solves take projected Newton steps on the dual, over the
    residual R, and hand over to the prox-gradient loop only when R's
    support fills 4p, K is singular, no step length passes or the snapped
    point fails to certify."""

    @pytest.mark.parametrize("q, boost", [(6, 1.0), (10, None)],
                             ids=["fixed_boost_q6", "adaptive_q10"])
    def test_exact_covariance_in_few_steps(self, q, boost, monkeypatch):
        model, sigma = _exact_case(q, boost)
        # the loop's answer at tolerances that keep its own error far
        # below the comparison's; it takes over 1000 iterations at q = 10
        ref = _box_loop(sigma, SolverConfig(gamma=0.0, lambda_off=model.lambda_star,
                                            eps_abs=1e-12, eps_rel=1e-11, max_iter=20000))
        assert ref.converged
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        res = cd.admm_solve(sigma, tight_config(gamma=0.0, lambda_off=model.lambda_star))
        assert res.converged
        assert res.iterations <= 10
        assert np.abs(np.asarray(res.j_hat) - np.asarray(ref.j_hat)).max() < 1e-9
        # the residual's support is the planted S_R
        _, s_r, _, _ = cd.partition_pairs(model)
        assert np.array_equal(np.asarray(res.sigma_r_hat) != 0, np.asarray(s_r))

    @pytest.mark.parametrize("q, boost", [(6, 1.0), (10, None)],
                             ids=["fixed_boost_q6", "adaptive_q10"])
    def test_routes_agree_with_the_loop(self, q, boost, lapack_route, monkeypatch):
        model, sigma = _exact_case(q, boost)
        cfg = SolverConfig(gamma=0.0, lambda_off=model.lambda_star,
                           eps_abs=1e-12, eps_rel=1e-11, max_iter=20000)
        ref = _box_loop(sigma, cfg)
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        res = cd.admm_solve(sigma, cfg)
        assert ref.converged and res.converged
        for name in ("j_hat", "sigma_r_hat"):
            assert np.abs(np.asarray(getattr(res, name))
                          - np.asarray(getattr(ref, name))).max() < 1e-9

    def test_warm_resolve_from_an_optimum_takes_one_step(self, monkeypatch):
        model, sigma = _exact_case(6, 1.0)
        cfg = tight_config(gamma=0.0, lambda_off=model.lambda_star)
        res = cd.admm_solve(sigma, cfg)
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        again = cd.admm_solve(sigma, cfg, warm_start=res)
        assert again.converged and again.iterations == 1
        assert np.abs(np.asarray(again.j_hat) - np.asarray(res.j_hat)).max() < 1e-12

    def test_unpenalised_draws_certify(self, monkeypatch):
        # the program the loop crawls on: its answer is Sigma^-1, the dual's
        # start, whose certificate counts as its one step
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        for seed in range(20):
            sigma = _random_spd(8, seed, decades=3.0)
            assert np.linalg.cond(sigma) <= 1e3
            res = cd.admm_solve(sigma, SolverConfig(gamma=0.0, lambda_off=math.inf))
            assert res.converged
            assert res.iterations == 1
            inverse = np.linalg.inv(sigma)
            assert (np.abs(np.asarray(res.j_hat) - inverse).max()
                    <= 1e-6 * np.abs(inverse).max())

    def test_unpenalised_solve_factors_sigma_once(self, monkeypatch, lapack_route):
        # no pair can join F, so the start J = Sigma^-1 is certified as it
        # stands: one factor of Sigma, which also decides boundedness, one
        # inverse, and _finalize's overall-PD check, a second factor
        calls = {"factor": 0, "inverse": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in ("factor", "inverse"):
            monkeypatch.setattr(symmat.PdWorkspace, name,
                                counted(name, getattr(symmat.PdWorkspace, name)))
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        sigma = _random_spd(8, 0, decades=3.0)
        res = cd.admm_solve(sigma, SolverConfig(gamma=0.0, lambda_off=math.inf))
        assert res.converged and res.iterations == 1
        assert calls == {"factor": 2, "inverse": 1}
        # the dual point Sigma + R, with R = 0, is J's inverse
        assert np.array_equal(res.sigma_m_hat, sigma)
        assert not res.sigma_r_hat.any()

    def test_small_boxed_program_keeps_its_newton_steps(self, monkeypatch):
        # a box of 0.01 puts more than p = 8 of the 28 pairs in R's
        # support, but K stays small: within 4p the solve keeps its Newton steps
        monkeypatch.setattr(solver, "_prox_gradient", _no_loop)
        for seed in range(10):
            res = cd.admm_solve(_random_spd(8, seed), tight_config(gamma=0.0, lambda_off=0.01))
            assert res.converged
            assert res.iterations <= 15

    def test_wide_active_set_hands_over_to_the_loop(self, monkeypatch):
        # a box of 1e-6 holds almost no pair of J, so R's support grows by
        # the largest pairs until it fills 4p = 64 of the 120. The loop then
        # takes the rest of max_iter after the Newton steps, each of which
        # solved one K of at most 4p rows, from the snapped point, every
        # pair of which is on the box
        sigma = np.asarray(cd.true_covariance(cd.grid_model(4, 0)))
        cfg = SolverConfig(gamma=0.0, lambda_off=1e-6)
        loop, solve, calls, rows = solver._prox_gradient, np.linalg.solve, [], []

        def counted(ws, prox, j, done=0):
            calls.append((done, np.count_nonzero(np.triu(np.abs(j) == cfg.lambda_off, 1))))
            return loop(ws, prox, j, done)

        def recorded(k, b):
            rows.append(len(k))
            return solve(k, b)

        monkeypatch.setattr(solver, "_prox_gradient", counted)
        monkeypatch.setattr(np.linalg, "solve", recorded)
        res = cd.admm_solve(sigma, cfg)
        assert rows and max(rows) <= 64
        assert calls == [(len(rows), 120)]
        assert len(rows) < res.iterations < cfg.max_iter
        assert res.converged

    def test_interior_optimum_in_clip_band_carries_no_residual(self):
        # the optimum's (0, 2) entry lies 1.6e-5 inside a box of 1.16,
        # within 1e-4 of it; a residual read there is rounding noise
        sigma = _random_spd(5, 6543)
        cfg = tight_config(gamma=0.0, lambda_off=1.162109375)
        res = cd.admm_solve(sigma, cfg)
        j, r = np.asarray(res.j_hat), np.asarray(res.sigma_r_hat)
        assert res.converged
        assert (1.0 - 1e-4) * cfg.lambda_off <= abs(j[0, 2]) < cfg.lambda_off
        assert r[0, 2] == 0.0
        assert np.all(r * j >= 0.0)


class TestResidualOnTheBox:
    def test_warm_started_loop_reads_residual_on_the_box(self):
        # the benchmark sweep's q = 10 cell at seed 1005, drawn from
        # per-sample data as the sweep drew it before it drew Wishart
        # covariances: at n = 1000 the loop's optimum has
        # J_(26,36) = -0.1999868, 1.3e-5 inside the box of 0.2, where a
        # residual read within 1e-4 of the box is 7.5e-9, against J's sign
        model = _fixed_boost_grid(10, cd.derive_seed(1005, 0, 0))
        warm = None
        for n in (250, 500, 1000):
            samples = cd.draw_samples(model, n, cd.derive_seed(1005, 0, 0, n, 1))
            sigma = np.asarray(cd.sample_covariance(samples))
            cfg = SolverConfig(gamma=cd.gamma_schedule(2.08, 100, n),
                               lambda_off=model.lambda_star)
            warm = cd.admm_solve(sigma, cfg, warm_start=warm)
            j, r = np.asarray(warm.j_hat), np.asarray(warm.sigma_r_hat)
            assert np.all(np.abs(j[r != 0.0]) == cfg.lambda_off)
            assert np.all(r * j >= 0.0)


class TestKktBoundAtLargeScale:
    def test_default_cells_certify_within_eps_rel(self, lapack_route):
        # the default sweep's adaptive-boost cells have max |Sigma_hat|
        # near 5, where eps_abs + eps_rel max(|Sigma|, |J|) alone would
        # stop at 5e-6; on the fallback route the n = 2000 solve of seed 0
        # stopped at a KKT residual of 1.6e-6 under that rule
        warm = None
        for n in (1000, 2000, 4000):
            sigma, lam, gamma = _default_cell(0, n)
            assert np.abs(sigma).max() > 5.0
            cfg = SolverConfig(gamma=gamma, lambda_off=lam)
            warm = cd.admm_solve(sigma, cfg, warm_start=warm)
            assert warm.converged and warm.kkt_residual <= cfg.eps_rel


@pytest.mark.parametrize(
    "call",
    [
        lambda: cd.soft_threshold_covariance(np.eye(2), -0.1),
        lambda: cd.draw_samples(cd.chain_model((0.05, 0.04, 0.03), -0.01), 0, 1),
        lambda: cd.draw_sample_covariance(cd.chain_model((0.05, 0.04, 0.03), -0.01), 0, 1),
        lambda: cd.gamma_schedule(2.0, 1, 100),
        lambda: cd.gamma_schedule(2.0, 4, 0),
        lambda: cd.gamma_schedule(0.0, 4, 100),
        lambda: cd.support_of(np.eye(2), threshold=-1.0),
        lambda: cd.soft_threshold_covariance(np.eye(2), math.nan),
        lambda: cd.gamma_schedule(2.0, math.nan, 100),
        lambda: cd.gamma_schedule(2.0, 4, math.nan),
        lambda: cd.gamma_schedule(math.nan, 4, 100),
        lambda: cd.support_of(np.eye(2), threshold=math.nan),
    ],
    ids=["soft_threshold_gamma", "draw_samples_n", "draw_sample_covariance_n",
         "gamma_schedule_p", "gamma_schedule_n", "gamma_schedule_c", "support_threshold",
         "soft_threshold_gamma_nan", "gamma_schedule_p_nan", "gamma_schedule_n_nan",
         "gamma_schedule_c_nan", "support_threshold_nan"],
)
def test_bad_argument_raises_precondition_violated(call):
    with pytest.raises(PreconditionViolated):
        call()

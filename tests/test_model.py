import numpy as np
import pytest

from covdecomp import (
    DecompositionModel,
    DiagBoostPolicy,
    DimensionMismatch,
    PreconditionViolated,
    chain_model,
    grid_model,
    incoherence_report,
    partition_pairs,
    true_covariance,
    validate_model,
)
from covdecomp.model import grid_edges

from oracles import brute_incoherence, brute_partition, chain_j_analytic, chain_sigma


class TestChainModel:
    def test_matches_analytic_precision(self):
        rho = (0.06, 0.04, 0.03)
        m = chain_model(rho, -0.01)
        np.testing.assert_allclose(
            np.asarray(m.j_markov), chain_j_analytic(rho), atol=1e-12
        )
        assert m.lambda_star == pytest.approx(abs(chain_j_analytic(rho)[0, 1]))

    def test_residual_only_at_first_pair(self):
        m = chain_model((0.05, 0.04, 0.03), -0.02)
        r = np.asarray(m.sigma_residual)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = -0.02
        np.testing.assert_array_equal(r, expected)

    def test_covariance_has_markov_fill_in(self):
        rho = (0.05, 0.04, 0.03)
        m = chain_model(rho, -0.01)
        sigma_m = np.linalg.inv(np.asarray(m.j_markov))
        np.testing.assert_allclose(sigma_m, chain_sigma(rho), atol=1e-12)

    def test_rejects_bad_rho(self):
        with pytest.raises(PreconditionViolated):
            chain_model((0.05, 0.04), -0.01)
        with pytest.raises(PreconditionViolated):
            chain_model((1.0, 0.4, 0.3), -0.01)
        with pytest.raises(PreconditionViolated):
            chain_model((0.05, 0.05, 0.05), -0.01)

    def test_rejects_wrong_residual_sign(self):
        with pytest.raises(PreconditionViolated, match="sign agreement"):
            chain_model((0.06, 0.04, 0.03), 0.01)

    def test_rejects_residual_breaking_overall_pd(self):
        with pytest.raises(PreconditionViolated, match="positive-definiteness"):
            chain_model((0.06, 0.04, 0.03), -2.0)


class TestGridModel:
    def test_deterministic_for_seed(self):
        a = grid_model(3, 11)
        b = grid_model(3, 11)
        np.testing.assert_array_equal(np.asarray(a.j_markov), np.asarray(b.j_markov))
        np.testing.assert_array_equal(
            np.asarray(a.sigma_residual), np.asarray(b.sigma_residual)
        )
        c = grid_model(3, 12)
        assert np.any(np.asarray(a.j_markov) != np.asarray(c.j_markov))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_support_is_grid(self, q):
        m = grid_model(q, 5)
        j = np.asarray(m.j_markov)
        found = {(i, k) for i, k in zip(*np.nonzero(np.triu(j, k=1)))}
        assert found == set(grid_edges(q))
        assert len(found) == 2 * q * (q - 1)

    def test_clip_count_and_magnitudes(self):
        m = grid_model(4, 9, clip_fraction=0.2, magnitude_range=(0.15, 0.2))
        j = np.asarray(m.j_markov)
        off = np.triu(j, k=1)
        mags = np.abs(off[off != 0.0])
        assert np.all(mags >= 0.15) and np.all(mags <= 0.2)
        n_clipped = int((np.abs(np.abs(off) - 0.2) < 1e-12).sum())
        assert n_clipped == int(np.ceil(0.2 * len(grid_edges(4))))
        assert m.lambda_star == 0.2

    def test_validates_and_residual_subset_of_clips(self):
        m = grid_model(5, 21)
        assert validate_model(m) == []
        j = np.asarray(m.j_markov)
        r = np.asarray(m.sigma_residual)
        res_pairs = set(zip(*np.nonzero(r)))
        assert res_pairs
        for i, k in res_pairs:
            assert abs(j[i, k]) == pytest.approx(m.lambda_star, abs=1e-12)
            assert np.sign(r[i, k]) == np.sign(j[i, k])

    def test_fixed_boost_policy(self):
        m = grid_model(3, 7, diag_boost_policy=DiagBoostPolicy(fixed=1.0))
        assert np.all(np.diag(np.asarray(m.j_markov)) == 1.0)
        with pytest.raises(PreconditionViolated):
            grid_model(3, 7, diag_boost_policy=DiagBoostPolicy(fixed=1e-6))

    def test_rejects_tiny_grid(self):
        with pytest.raises(PreconditionViolated):
            grid_model(1, 3)


class TestValidateModel:
    def _model(self, j, r, lam):
        return DecompositionModel(
            j_markov=np.asarray(j, dtype=float),
            sigma_residual=np.asarray(r, dtype=float),
            lambda_star=lam,
        )

    def test_clean_model_passes(self, chain):
        assert validate_model(chain) == []

    def test_flags_nonpd_precision(self):
        j = np.array([[1.0, 2.0], [2.0, 1.0]])
        out = validate_model(self._model(j, np.zeros((2, 2)), 3.0))
        assert any("not PD" in v for v in out)

    def test_flags_bound_violation(self):
        j = np.array([[2.0, 0.5], [0.5, 2.0]])
        out = validate_model(self._model(j, np.zeros((2, 2)), 0.3))
        assert any("off-diagonal bound" in v for v in out)

    def test_flags_residual_diagonal(self):
        j = np.eye(2)
        r = np.diag([0.1, 0.0])
        out = validate_model(self._model(j, r, 1.0))
        assert any("residual diagonal" in v for v in out)

    def test_flags_clip_without_residual_and_converse(self):
        j = np.array([[2.0, 0.3], [0.3, 2.0]])
        out = validate_model(self._model(j, np.zeros((2, 2)), 0.3))
        assert any("clip-support" in v for v in out)
        j2 = np.array([[2.0, 0.1], [0.1, 2.0]])
        r2 = np.array([[0.0, 0.05], [0.05, 0.0]])
        out2 = validate_model(self._model(j2, r2, 0.3))
        assert any("clip-support" in v for v in out2)

    def test_flags_sign_disagreement(self):
        j = np.array([[2.0, 0.3], [0.3, 2.0]])
        r = np.array([[0.0, -0.05], [-0.05, 0.0]])
        out = validate_model(self._model(j, r, 0.3))
        assert any("sign agreement" in v for v in out)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            validate_model(self._model(np.eye(2), np.zeros((3, 3)), 1.0))


class TestTrueCovariance:
    def test_identity_model(self):
        m = DecompositionModel(
            j_markov=np.eye(3), sigma_residual=np.zeros((3, 3)), lambda_star=1.0
        )
        np.testing.assert_array_equal(np.asarray(true_covariance(m)), np.eye(3))

    def test_chain_subtracts_residual(self, chain):
        sigma = np.asarray(true_covariance(chain))
        sigma_m = np.linalg.inv(np.asarray(chain.j_markov))
        np.testing.assert_allclose(
            sigma, sigma_m - np.asarray(chain.sigma_residual), atol=1e-12
        )
        assert np.linalg.eigvalsh(sigma).min() > 0


class TestPartitionPairs:
    def test_chain_partition(self, chain):
        s_m, s_r, s, s_c = partition_pairs(chain)
        assert set(s_r) == {(0, 1), (1, 0)}
        assert all((i, i) in s_m for i in range(4))
        assert set(s) == set(s_m) - set(s_r)
        assert len(s_m) + len(s_c) == 16
        expected_m = {(i, i) for i in range(4)}
        expected_m |= {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert set(s_m) == expected_m

    def test_grid_partition_counts(self, small_grid):
        s_m, s_r, s, s_c = partition_pairs(small_grid)
        edges = len(grid_edges(3))
        assert len(s_m) == 9 + 2 * edges
        assert len(s_r) % 2 == 0 and len(s_r) > 0
        assert len(s) == len(s_m) - len(s_r)

    @pytest.mark.parametrize("model", ["chain", "grid"])
    def test_matches_entrywise_oracle(self, model, chain):
        m = chain if model == "chain" else grid_model(6, 11)
        got = partition_pairs(m)
        want = brute_partition(m.j_markov, m.sigma_residual)
        for pairs, expected in zip(got, want):
            assert list(pairs) == expected
            assert all(pair in pairs for pair in expected)


class TestIncoherenceReport:
    def test_chain_matches_kronecker_oracle(self, chain):
        rep = incoherence_report(chain, m_param=83.0)
        alpha, k_ss, k_ssr = brute_incoherence(
            np.asarray(chain.j_markov), np.asarray(chain.sigma_residual)
        )
        assert rep.alpha == pytest.approx(alpha, abs=1e-9)
        assert rep.k_ss == pytest.approx(k_ss, abs=1e-9)
        assert rep.k_ssr == pytest.approx(k_ssr, abs=1e-9)
        assert rep.max_degree == 3

    def test_a5_depends_on_m(self, chain):
        assert incoherence_report(chain, m_param=83.0).a5_satisfied
        assert not incoherence_report(chain, m_param=5.0).a5_satisfied

    def test_diagonal_model_is_fully_incoherent(self):
        m = DecompositionModel(
            j_markov=np.diag([1.0, 2.0, 3.0]),
            sigma_residual=np.zeros((3, 3)),
            lambda_star=1.0,
        )
        rep = incoherence_report(m, m_param=10.0)
        assert rep.alpha == 1.0
        assert rep.k_ssr == 0.0
        assert rep.a4_satisfied

    def test_empty_residual_reduces_to_single_condition(self):
        j = chain_j_analytic((0.05, 0.04, 0.03))
        m = DecompositionModel(
            j_markov=j, sigma_residual=np.zeros((4, 4)), lambda_star=1.0
        )
        rep = incoherence_report(m, m_param=83.0)
        alpha, _, k_ssr = brute_incoherence(j, np.zeros((4, 4)))
        assert k_ssr == 0.0
        assert rep.alpha == pytest.approx(alpha, abs=1e-12)

    def test_invalid_model_rejected(self):
        bad = DecompositionModel(
            j_markov=np.array([[1.0, 2.0], [2.0, 1.0]]),
            sigma_residual=np.zeros((2, 2)),
            lambda_star=3.0,
        )
        with pytest.raises(PreconditionViolated):
            incoherence_report(bad, m_param=10.0)

    def test_a6_margin_decreases_with_constants(self, chain):
        low = incoherence_report(chain, m_param=83.0, c6=1.0, c7=1.0)
        high = incoherence_report(chain, m_param=83.0, c6=10.0, c7=10.0)
        assert high.a6_margin < low.a6_margin

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covdecomp import (
    CovdecompError,
    DecompositionModel,
    DiagBoostPolicy,
    DimensionMismatch,
    MalformedMatrix,
    PreconditionViolated,
    chain_model,
    draw_sample_covariance,
    grid_model,
    incoherence_report,
    partition_pairs,
    true_covariance,
    validate_model,
)
from covdecomp import model as model_module, symmat

from oracles import (
    brute_incoherence,
    brute_partition,
    chain_j_analytic,
    chain_sigma,
    doubling_boost,
    grid_edges,
    reference_grid_model,
    reference_violations,
)


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

    @pytest.mark.parametrize("q", [3, 5, 10, 15])
    def test_adaptive_boost_matches_doubling_oracle(self, q):
        for seed in range(20):
            m = grid_model(q, seed)
            j = np.asarray(m.j_markov)
            # the planted couplings are J_M off the diagonal; the boost is
            # the diagonal
            a = j.copy()
            np.fill_diagonal(a, 0.0)
            c = doubling_boost(a)
            assert np.all(np.diag(j) == c)
            rebuilt = grid_model(q, seed, diag_boost_policy=DiagBoostPolicy(fixed=c))
            assert np.asarray(rebuilt.j_markov).tobytes() == j.tobytes()
            assert (np.asarray(rebuilt.sigma_residual).tobytes()
                    == np.asarray(m.sigma_residual).tobytes())

    @pytest.mark.parametrize("q", [3, 10])
    def test_adaptive_boost_takes_no_eigenvalue(self, q, monkeypatch, lapack_route):
        # each boost is tried by a band Cholesky factor
        def refuse(*args):
            raise AssertionError("eigenvalue taken")

        for module, name in ((symmat, "eigenvalue"), (model_module, "eigenvalue"),
                             (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
            monkeypatch.setattr(module, name, refuse)
        for seed in range(5):
            assert grid_model(q, seed).dim == q * q


SHRINK_HEAVY = {"clip_fraction": 0.6, "magnitude_range": (0.2, 0.3)}


class TestGridModelAgainstReference:
    """grid_model's factor-based margins and sign draws reproduce the
    LU-inverse, eigvalsh and rng.choice protocol byte for byte."""

    @staticmethod
    def _assert_same(q, seed, kwargs, fixed):
        policy = DiagBoostPolicy(fixed=fixed)
        expected = reference_grid_model(q, seed, fixed=fixed, **kwargs)
        if expected is None:
            with pytest.raises(PreconditionViolated):
                grid_model(q, seed, diag_boost_policy=policy, **kwargs)
            return 0
        m = grid_model(q, seed, diag_boost_policy=policy, **kwargs)
        assert np.asarray(m.j_markov).tobytes() == expected[0].tobytes()
        assert np.asarray(m.sigma_residual).tobytes() == expected[1].tobytes()
        return expected[2]

    @pytest.mark.parametrize("q", [2, 3, 5, 10, 15, 20])
    def test_default_protocol(self, q):
        # at q = 2 the margin's band, of half-width min(3q, p - 1), is the whole matrix
        for seed in range(10):
            for fixed in (None, 1.0):
                self._assert_same(q, seed, {}, fixed)

    @pytest.mark.parametrize("clip_fraction", [0.0, 1.0])
    @pytest.mark.parametrize("q", [2, 5, 10])
    def test_clip_fraction_extremes(self, q, clip_fraction):
        # no residual, or one on every edge, which shrinks at every q
        shrinks = [self._assert_same(q, seed, {"clip_fraction": clip_fraction,
                                               "magnitude_range": magnitudes}, fixed)
                   for seed in range(10) for fixed in (None, 1.0)
                   for magnitudes in ((0.15, 0.2), (0.3, 0.45))]
        assert (max(shrinks) > 0) == (clip_fraction == 1.0)

    @pytest.mark.parametrize("q", [3, 5, 10, 15, 20])
    def test_residual_shrinks(self, q):
        shrinks = [self._assert_same(q, seed, SHRINK_HEAVY, fixed)
                   for seed in range(10) for fixed in (None, 1.0)]
        assert max(shrinks) > 0


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
        assert validate_model(self._model(j, np.zeros((2, 2)), 3.0)) == [
            "positive-definiteness: j_markov is not PD"]
        # J^-1 = I / 2 and a residual of 0.6 leaves the overall indefinite
        r = np.array([[0.0, 0.6], [0.6, 0.0]])
        assert validate_model(self._model(2.0 * np.eye(2), r, 3.0)) == [
            "positive-definiteness: overall covariance is not PD",
            "clip-support equivalence: residual at [0,1] without a clipped "
            "precision entry"]

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

    def test_non_finite_matrix_raises_package_error(self):
        j = np.eye(2)
        j[0, 1] = j[1, 0] = np.nan
        with pytest.raises(CovdecompError, match="finite"):
            self._model(j, np.zeros((2, 2)), 1.0)


def _far_from_singular(a):
    # PD decisions of two factorizations agree away from the boundary
    return abs(np.linalg.eigvalsh(0.5 * (a + a.T)).min()) > 1e-6


@st.composite
def violating_models(draw):
    """Small models with every kind of violation in reach: off-diagonal
    entries on, near (within and beyond the tie band) and past the bound,
    residuals of either sign, too large for an overall PD or off the clip
    set, residual diagonals, a weak diagonal for a non-PD J_M, and a
    lambda_star at or below the tie band, where the zero pairs count as
    clipped."""
    p = draw(st.integers(min_value=2, max_value=6))
    lam = draw(st.sampled_from([-0.1, 0.0, 1e-9, 0.2, 0.45]))
    levels = [0.0, lam, -lam, lam + 5e-10, lam - 5e-10, lam + 1e-8, 0.1, -0.1, 0.6, -0.6]
    j = np.zeros((p, p))
    r = np.zeros((p, p))
    for i in range(p):
        for k in range(i + 1, p):
            j[i, k] = j[k, i] = draw(st.sampled_from(levels))
            r[i, k] = r[k, i] = draw(st.sampled_from([0.0, 0.0, 0.05, -0.05, 3.0]))
        r[i, i] = draw(st.sampled_from([0.0, 0.0, 0.0, 0.1]))
    np.fill_diagonal(j, draw(st.sampled_from([0.05, 4.0])))
    assume(_far_from_singular(j))
    if np.linalg.eigvalsh(j).min() > 0:
        assume(_far_from_singular(np.linalg.inv(j) - r))
    return DecompositionModel(j_markov=j, sigma_residual=r, lambda_star=lam)


class TestViolationsAgainstReference:
    """validate_model, which reads the nonzeros of J_M and Sigma_R, gives
    the dense masks' messages in their order."""

    @settings(max_examples=300, deadline=None)
    @given(violating_models())
    def test_same_messages_in_order(self, m):
        assert validate_model(m) == reference_violations(m)

    @pytest.mark.parametrize("case", ["lambda_at_tie_band", "nonpd_precision",
                                      "nonpd_overall", "grid"])
    def test_named_cases(self, case):
        j = np.array([[2.0, 0.3, 0.0], [0.3, 2.0, -0.1], [0.0, -0.1, 2.0]])
        r = np.zeros((3, 3))
        lam, expect = 0.3, None
        if case == "lambda_at_tie_band":
            # every pair counts as clipped, the zero pair (0, 2) too
            lam, expect = 1e-9, "j_markov[0,2] at the bound"
        elif case == "nonpd_precision":
            j[0, 1] = j[1, 0] = 2.5
            expect = "j_markov is not PD"
        elif case == "nonpd_overall":
            r[0, 1] = r[1, 0] = 1.0
            expect = "overall covariance is not PD"
        m = DecompositionModel(j_markov=j, sigma_residual=r, lambda_star=lam)
        if case == "grid":
            m, expect = grid_model(4, 2), None
        got = validate_model(m)
        assert got == reference_violations(m)
        assert (expect is None) == (got == [])
        assert expect is None or any(expect in v for v in got)

    def test_grid_model_factors_the_margin_matrix_alone(self, monkeypatch):
        # grid_model takes no dense factor or inverse: it tries the overall
        # margin on J - J (0.01 I + Sigma_R) J, congruent to
        # Sigma_M - Sigma_R - 0.01 I, by one band factor of half-bandwidth
        # min(3q, p - 1) per residual shrink and one more
        if symmat._lapack is None:
            pytest.skip("the band factor's numpy fallback is a dense factor")

        def refuse(*args):
            raise AssertionError("dense factor or inverse taken")

        for owner, name in ((symmat.PdWorkspace, "factor"), (symmat.PdWorkspace, "inverse"),
                            (symmat, "inv_pd"), (model_module, "inv_pd")):
            monkeypatch.setattr(owner, name, refuse)
        tried, factor = [], symmat.BandWorkspace.factor

        def recording(ws, band):
            tried.append(np.array(band))
            return factor(ws, band)

        monkeypatch.setattr(symmat.BandWorkspace, "factor", recording)
        for q in (2, 3, 5):
            p, kd = q * q, min(3 * q, q * q - 1)
            for seed in range(3):
                tried.clear()
                m = grid_model(q, seed, **SHRINK_HEAVY)
                margins = [band for band in tried if band.shape[1] == kd + 1]
                assert len(margins) == 1 + reference_grid_model(q, seed, **SHRINK_HEAVY)[2]
                j, r = np.asarray(m.j_markov), np.asarray(m.sigma_residual)
                expected = symmat.to_band(j - j @ (0.01 * np.eye(p) + r) @ j, kd)
                np.testing.assert_allclose(margins[-1], expected, rtol=0, atol=1e-14)


class TestDecompositionModel:
    @pytest.mark.parametrize("j, r, error", [
        (np.zeros((2, 3)), np.zeros((2, 2)), DimensionMismatch),
        (np.ones(4), np.zeros((2, 2)), DimensionMismatch),
        (np.zeros((0, 0)), np.zeros((0, 0)), MalformedMatrix),
        (np.eye(2), [[0.0, np.inf], [np.inf, 0.0]], MalformedMatrix),
        ([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2)), MalformedMatrix),
        (np.eye(4), np.zeros((3, 3)), DimensionMismatch),
        ([["a", "b"], ["b", "a"]], np.zeros((2, 2)), MalformedMatrix),
    ], ids=["non-square", "vector", "empty", "non-finite", "asymmetric",
            "shapes-differ", "non-numeric"])
    def test_rejects_malformed_input(self, j, r, error):
        with pytest.raises(error) as info:
            DecompositionModel(j_markov=j, sigma_residual=r, lambda_star=1.0)
        assert isinstance(info.value, CovdecompError)

    def test_keeps_read_only_copies(self):
        j, r = np.eye(2), np.zeros((2, 2))
        m = DecompositionModel(j_markov=j, sigma_residual=r, lambda_star=1.0)
        j[0, 0] = r[0, 0] = 7.0
        assert m.j_markov[0, 0] == 1.0 and m.sigma_residual[0, 0] == 0.0
        for a in (m.j_markov, m.sigma_residual):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5.0
        assert m.dim == 2


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

    @pytest.mark.parametrize("q", [10, 15, 20])
    def test_overall_reads_one_factor(self, q, lapack_route):
        # L and Sigma^-1 come from one factor of Sigma, bit for bit as
        # np.linalg.cholesky and inv_pd form them, so the draws do not move
        for policy in (DiagBoostPolicy(), DiagBoostPolicy(fixed=1.0)):
            m = grid_model(q, q, diag_boost_policy=policy)
            sigma, chol, inverse = m._overall
            assert np.array_equal(sigma, true_covariance(m))
            assert np.array_equal(chol, np.linalg.cholesky(sigma)) and chol.flags.c_contiguous
            assert np.array_equal(inverse, symmat.inv_pd(sigma))
            apart = DecompositionModel(j_markov=m.j_markov, sigma_residual=m.sigma_residual,
                                       lambda_star=m.lambda_star)
            apart.__dict__["_overall"] = (sigma, np.linalg.cholesky(sigma), symmat.inv_pd(sigma))
            assert np.array_equal(draw_sample_covariance(m, 500, 3),
                                  draw_sample_covariance(apart, 500, 3))


def pairs_of(mask):
    return set(map(tuple, np.argwhere(mask).tolist()))


class TestPartitionPairs:
    def test_chain_partition(self, chain):
        s_m, s_r, s, s_c = partition_pairs(chain)
        assert pairs_of(s_r) == {(0, 1), (1, 0)}
        assert np.diag(s_m).all()
        assert np.array_equal(s, s_m & ~s_r)
        assert np.count_nonzero(s_m) + np.count_nonzero(s_c) == 16
        expected_m = {(i, i) for i in range(4)}
        expected_m |= {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert pairs_of(s_m) == expected_m

    def test_grid_partition_counts(self, small_grid):
        s_m, s_r, s, s_c = (np.count_nonzero(m) for m in partition_pairs(small_grid))
        edges = len(grid_edges(3))
        assert s_m == 9 + 2 * edges
        assert s_r % 2 == 0 and s_r > 0
        assert s == s_m - s_r

    @pytest.mark.parametrize("model", ["chain", "grid"])
    def test_matches_entrywise_oracle(self, model, chain):
        m = chain if model == "chain" else grid_model(6, 11)
        got = partition_pairs(m)
        want = brute_partition(m.j_markov, m.sigma_residual)
        for mask, expected in zip(got, want):
            assert mask.dtype == bool and mask.shape == (m.dim, m.dim)
            # np.argwhere enumerates row-major, the oracle's order
            assert np.argwhere(mask).tolist() == [list(pair) for pair in expected]


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

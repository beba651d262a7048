"""Metric unit tests: support extraction, edit distances, sign
consistency, and the overall-precision error, checked against brute
loops and on hand-built matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdecomp as cd
from covdecomp import (
    DimensionMismatch,
    EmptyTruthSupport,
    NotPositiveDefinite,
    SolverConfig,
    metrics,
)
from covdecomp.symmat import inv_pd
from oracles import brute_edit_distance, brute_support


def matrix_with_support(pairs, p, value=1.0):
    m = np.eye(p)
    for i, j in pairs:
        m[i, j] = m[j, i] = value
    return m


pair_sets = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: t[0] < t[1]),
    max_size=6,
    unique=True,
)


class TestSupportOf:
    def test_matches_brute_loops(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            a = 0.5 * (a + a.T)
            a[np.abs(a) < 0.8] = 0.0
            got = cd.support_of(a, 1e-6)
            assert got.dtype == bool and got.shape == (5, 5)
            assert set(map(tuple, np.argwhere(got).tolist())) == brute_support(a, 1e-6)

    def test_threshold_is_strict(self):
        m = matrix_with_support([(0, 1)], 3, value=0.5)
        assert np.count_nonzero(cd.support_of(m, 0.5)) == 0
        assert np.count_nonzero(cd.support_of(m, 0.499)) == 1

    def test_diagonal_ignored(self):
        assert np.count_nonzero(cd.support_of(np.diag([5.0, 5.0]), 1e-6)) == 0

    def test_default_threshold(self):
        m = matrix_with_support([(0, 1)], 3, value=1e-7)
        assert np.count_nonzero(cd.support_of(m)) == 0
        assert cd.DEFAULT_SUPPORT_THRESHOLD == 1e-6

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            cd.support_of(np.eye(2), -1.0)


def _edit_distance(a, b, threshold):
    # the edit distance as compare_to_truth forms it
    return metrics._edit(cd.support_of(a, threshold), cd.support_of(b, threshold))


def _sign_consistency(est, truth, threshold):
    # the sign consistency as compare_to_truth forms it
    return metrics._sign_consistent(est, truth, cd.support_of(est, threshold),
                                    cd.support_of(truth, threshold))


class TestEditDistance:
    def test_identical_supports(self):
        m = matrix_with_support([(0, 1), (1, 2)], 4)
        assert _edit_distance(m, m.copy(), 1e-6) == 0

    def test_one_extra_edge(self):
        a = matrix_with_support([(0, 1)], 4)
        b = matrix_with_support([(0, 1), (2, 3)], 4)
        assert _edit_distance(a, b, 1e-6) == 1

    def test_disjoint_supports_add(self):
        a = matrix_with_support([(0, 1), (0, 2)], 4)
        b = matrix_with_support([(1, 3), (2, 3)], 4)
        assert _edit_distance(a, b, 1e-6) == 4

    def test_matches_brute_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5))
            a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
            a[np.abs(a) < 1.0] = 0.0
            b[np.abs(b) < 1.0] = 0.0
            assert _edit_distance(a, b, 1e-6) == brute_edit_distance(a, b, 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(sa=pair_sets, sb=pair_sets, sc=pair_sets)
    def test_metric_properties(self, sa, sb, sc):
        a = matrix_with_support(sa, 5)
        b = matrix_with_support(sb, 5)
        c = matrix_with_support(sc, 5)
        dab = _edit_distance(a, b, 1e-6)
        assert dab == _edit_distance(b, a, 1e-6)
        assert _edit_distance(a, a, 1e-6) == 0
        assert dab <= _edit_distance(a, c, 1e-6) + _edit_distance(c, b, 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(sa=pair_sets, sb=pair_sets, scale=st.floats(min_value=0.01, max_value=100.0))
    def test_rescaling_matrix_and_threshold_together(self, sa, sb, scale):
        a = matrix_with_support(sa, 5, value=0.4)
        b = matrix_with_support(sb, 5, value=0.4)
        base = _edit_distance(a, b, 0.1)
        assert _edit_distance(scale * a, scale * b, 0.1 * scale) == base


def _normalized_edit(est, truth, threshold):
    # the normalized edit distance as compare_to_truth forms it
    return metrics._normalized_edit(cd.support_of(est, threshold),
                                    cd.support_of(truth, threshold))


class TestNormalizedEditDistance:
    def test_spurious_only_estimate(self):
        truth = matrix_with_support([(0, 1), (2, 3)], 4)
        est = matrix_with_support([(0, 2)], 4)
        assert _normalized_edit(est, truth, 1e-6) == pytest.approx(1.5)

    def test_empty_estimate_gives_one(self):
        truth = matrix_with_support([(0, 1), (1, 2), (2, 3)], 4)
        assert _normalized_edit(np.eye(4), truth, 1e-6) == pytest.approx(1.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(EmptyTruthSupport):
            _normalized_edit(np.eye(3), np.eye(3), 1e-6)

    def test_can_exceed_one(self):
        truth = matrix_with_support([(0, 1)], 5)
        est = matrix_with_support([(0, 2), (1, 3), (2, 4)], 5)
        assert _normalized_edit(est, truth, 1e-6) == pytest.approx(4.0)


class TestSignConsistency:
    def test_matching_supports_and_signs(self):
        truth = np.eye(3)
        truth[0, 1] = truth[1, 0] = -0.2
        est = truth * 3.0
        assert _sign_consistency(est, truth, 1e-6)

    def test_sign_flip_fails(self):
        truth = np.eye(3)
        truth[0, 1] = truth[1, 0] = -0.2
        est = truth.copy()
        est[0, 1] = est[1, 0] = 0.2
        assert not _sign_consistency(est, truth, 1e-6)

    def test_extra_edge_fails_despite_signs(self):
        truth = matrix_with_support([(0, 1)], 3)
        est = matrix_with_support([(0, 1), (1, 2)], 3)
        assert not _sign_consistency(est, truth, 1e-6)

    def test_missing_edge_fails(self):
        truth = matrix_with_support([(0, 1), (1, 2)], 3)
        est = matrix_with_support([(0, 1)], 3)
        assert not _sign_consistency(est, truth, 1e-6)

    def test_empty_supports_are_consistent(self):
        assert _sign_consistency(np.eye(3), np.eye(3) * 2.0, 1e-6)


def _true_precision(model):
    return np.linalg.inv(np.asarray(cd.true_covariance(model)))


class TestOverallPrecisionError:
    def test_zero_for_exact_model(self, chain):
        err = metrics._overall_precision_error(
            inv_pd(chain.j_markov), chain.sigma_residual, _true_precision(chain)
        )
        assert err < 1e-10

    def test_matches_direct_computation(self, chain):
        j = np.asarray(chain.j_markov) * 1.02
        r = np.asarray(chain.sigma_residual)
        est = np.linalg.inv(np.linalg.inv(j) - r)
        true = _true_precision(chain)
        direct = np.abs(est - true).max()
        err = metrics._overall_precision_error(inv_pd(j), r, true)
        assert err == pytest.approx(direct)

    def test_indefinite_overall_rejected(self, chain):
        r = np.zeros((4, 4))
        r[0, 1] = r[1, 0] = 50.0
        with pytest.raises(NotPositiveDefinite):
            metrics._overall_precision_error(inv_pd(chain.j_markov), r,
                                             _true_precision(chain))


@pytest.fixture(scope="module")
def exact_result():
    model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    sigma = np.asarray(cd.true_covariance(model))
    cfg = SolverConfig(
        gamma=0.0, lambda_off=model.lambda_star, eps_abs=1e-10, eps_rel=1e-9
    )
    return cd.admm_solve(sigma, cfg), model


class TestCompareToTruth:
    def test_exact_recovery_record(self, exact_result):
        res, model = exact_result
        rec = cd.compare_to_truth(res, model)
        assert rec.edit_distance_markov == 0
        assert rec.edit_distance_residual == 0
        assert rec.normalized_edit_markov == 0.0
        assert rec.normalized_edit_residual == 0.0
        assert rec.linf_error_j < 1e-6
        assert rec.linf_error_r < 1e-6
        assert rec.linf_error_precision_overall < 1e-5
        assert rec.spectral_error_sigma < 1e-6
        assert rec.sign_consistent_r and rec.sign_consistent_j
        # plain Python scalars, so sweep rows print the same
        assert [type(v) for v in rec.as_dict().values()] == [
            int, int, float, float, float, float, float, float, bool, bool]

    def test_as_dict_field_order(self, exact_result):
        res, model = exact_result
        rec = cd.compare_to_truth(res, model)
        assert list(rec.as_dict()) == [
            "edit_distance_markov",
            "edit_distance_residual",
            "normalized_edit_markov",
            "normalized_edit_residual",
            "linf_error_j",
            "linf_error_r",
            "linf_error_precision_overall",
            "spectral_error_sigma",
            "sign_consistent_r",
            "sign_consistent_j",
        ]

    def test_indefinite_overall_degrades_to_inf(self, exact_result, caplog):
        res, model = exact_result
        broken = cd.SolveResult(**{**res.__dict__})
        r = np.zeros((4, 4))
        r[0, 1] = r[1, 0] = 50.0
        broken.sigma_r_hat = r
        with caplog.at_level("WARNING", logger="covdecomp.metrics"):
            rec = cd.compare_to_truth(broken, model)
        assert rec.linf_error_precision_overall == float("inf")
        assert any("indefinite" in m for m in caplog.messages)
        # remaining metrics still computed
        assert rec.edit_distance_markov == 0
        assert np.isfinite(rec.spectral_error_sigma)

    def test_overall_error_matches_direct_computation(self):
        model = cd.grid_model(4, 3)
        samples = cd.draw_samples(model, 400, 5)
        sigma = np.asarray(cd.sample_covariance(samples))
        cfg = SolverConfig(
            gamma=cd.gamma_schedule(2.0, 16, 400), lambda_off=model.lambda_star
        )
        res = cd.admm_solve(sigma, cfg)
        rec = cd.compare_to_truth(res, model)
        j = np.asarray(res.j_hat)
        est = np.linalg.inv(np.linalg.inv(j) - np.asarray(res.sigma_r_hat))
        direct = np.abs(est - _true_precision(model)).max()
        assert direct > 0.0
        assert rec.linf_error_precision_overall == pytest.approx(direct, rel=1e-8)

    def test_result_of_another_size_rejected(self, exact_result):
        # a p = 4 chain result against a p = 9 grid model
        res, model = exact_result
        with pytest.raises(DimensionMismatch, match="j_hat"):
            cd.compare_to_truth(res, cd.grid_model(3, 0))
        broken = cd.SolveResult(**{**res.__dict__, "sigma_r_hat": np.zeros((3, 3))})
        with pytest.raises(DimensionMismatch, match="sigma_r_hat"):
            cd.compare_to_truth(broken, model)

    def test_threshold_passthrough(self, exact_result):
        res, model = exact_result
        # a coarse threshold erases the true supports entirely
        with pytest.raises(EmptyTruthSupport):
            cd.compare_to_truth(res, model, threshold=10.0)


class TestSpectralErrorAgainstEig:
    def test_value_matches_eigensolve(self, chain):
        model = chain
        sigma = np.asarray(cd.true_covariance(model))
        cfg = SolverConfig(
            gamma=0.0, lambda_off=model.lambda_star, eps_abs=1e-10, eps_rel=1e-9
        )
        res = cd.admm_solve(sigma, cfg)
        rec = cd.compare_to_truth(res, model)
        diff = (
            np.asarray(res.sigma_m_hat)
            - np.asarray(res.sigma_r_hat)
            - sigma
        )
        expected = np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).max()
        assert rec.spectral_error_sigma == pytest.approx(expected)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdecomp import (
    MalformedMatrix,
    PreconditionViolated,
    derive_seed,
    draw_samples,
    gamma_schedule,
    sample_covariance,
    sample_covariance_centered,
    true_covariance,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_distinct_paths_differ(self):
        seen = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1),
                derive_seed(7, 0, 0), derive_seed(8)}
        assert len(seen) == 5


class TestDrawSamples:
    def test_shape_and_determinism(self, chain):
        s1 = draw_samples(chain, 50, seed=3)
        s2 = draw_samples(chain, 50, seed=3)
        assert type(s1) is np.ndarray and s1.dtype == float
        assert s1.shape == (50, 4)
        np.testing.assert_array_equal(s1, s2)
        s3 = draw_samples(chain, 50, seed=4)
        assert np.any(s1 != s3)

    def test_rows_use_the_true_covariance_factor(self, small_grid):
        # the factor is formed once per model; every draw must match one
        # formed afresh from true_covariance
        chol = np.linalg.cholesky(np.asarray(true_covariance(small_grid)))
        for n, seed in ((30, 1), (70, 2)):
            z = np.random.default_rng(seed).standard_normal((n, small_grid.dim))
            assert draw_samples(small_grid, n, seed).tobytes() == (z @ chol.T).tobytes()

    def test_rejects_nonpositive_n(self, chain):
        with pytest.raises(ValueError):
            draw_samples(chain, 0, seed=1)


class TestSampleCovariance:
    def test_matches_outer_product_sum(self, rng):
        x = rng.standard_normal((7, 3))
        expected = sum(np.outer(row, row) for row in x) / 7
        np.testing.assert_allclose(np.asarray(sample_covariance(x)), expected,
                                   atol=1e-12)

    def test_no_centering(self):
        x = np.full((5, 2), 3.0)
        cov = np.asarray(sample_covariance(x))
        np.testing.assert_allclose(cov, np.full((2, 2), 9.0))
        centered = np.asarray(sample_covariance_centered(x))
        np.testing.assert_allclose(centered, np.zeros((2, 2)), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=24))
    def test_always_psd(self, vals):
        n = len(vals) // 4
        x = np.array(vals[: 4 * n]).reshape(n, 4)
        cov = np.asarray(sample_covariance(x))
        scale = max(np.abs(cov).max(), 1.0)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * scale

    @pytest.mark.parametrize("cov", [sample_covariance, sample_covariance_centered])
    @pytest.mark.parametrize("x", [np.zeros((0, 3)), np.ones(3), np.zeros((3, 0))],
                             ids=["no-rows", "vector", "no-columns"])
    def test_rejects_malformed_data(self, cov, x):
        with pytest.raises(PreconditionViolated, match="n x p"):
            cov(x)

    def test_rejects_non_finite_data(self):
        with pytest.raises(MalformedMatrix, match="finite"):
            sample_covariance([[np.nan, 1.0]])

    def test_converges_to_truth(self, chain):
        sigma_star = np.asarray(true_covariance(chain))
        errs = []
        for n in (100, 10000):
            s = draw_samples(chain, n, seed=11)
            errs.append(np.abs(np.asarray(sample_covariance(s)) - sigma_star).max())
        assert errs[1] < errs[0]
        assert errs[1] < 0.05


class TestGammaSchedule:
    def test_formula(self):
        assert gamma_schedule(2.08, 64, 1000) == pytest.approx(
            2.08 * math.sqrt(math.log(64) / 1000)
        )

    def test_unit_case(self):
        assert gamma_schedule(1.0, round(math.e), 1) == pytest.approx(
            math.sqrt(math.log(3.0)), abs=1e-12
        )

    def test_inverse_relation(self):
        c, p = 2.08, 64
        n = math.log(p) * c ** 2
        assert gamma_schedule(c, p, n) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_schedule(0.0, 10, 100)
        with pytest.raises(ValueError):
            gamma_schedule(1.0, 1, 100)
        with pytest.raises(ValueError):
            gamma_schedule(1.0, 10, 0)

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdecomp import (
    CovdecompError,
    DimensionMismatch,
    MalformedMatrix,
    NotPositiveDefinite,
    SymmetricMatrix,
    hessian_submatrix,
    inf_operator_norm,
    logdet_pd,
)
from covdecomp import symmat
from covdecomp.symmat import inv_pd
from oracles import kron_submatrix, naive_inf_operator_norm


def spd_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda p: st.lists(
            st.floats(-1.0, 1.0), min_size=p * p, max_size=p * p
        ).map(lambda vals: _spd_from(np.array(vals).reshape(p, p)))
    )


def _spd_from(a):
    return a @ a.T + np.eye(a.shape[0])


class TestSymmetricMatrix:
    def test_holds_entries_and_dim(self):
        m = SymmetricMatrix([[2.0, 1.0], [1.0, 3.0]])
        assert m.dim == 2
        assert m[0, 1] == 1.0
        np.testing.assert_array_equal(np.asarray(m), [[2.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymmetricMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            SymmetricMatrix(np.zeros(4))

    def test_rejects_asymmetric_without_flag(self):
        a = [[1.0, 2.0], [2.1, 1.0]]
        with pytest.raises(ValueError):
            SymmetricMatrix(a)
        m = SymmetricMatrix(a, symmetrize=True)
        assert m[0, 1] == m[1, 0] == pytest.approx(2.05)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejections_are_package_errors(self):
        for bad in ([[1.0, np.inf], [np.inf, 1.0]], [[1.0, 2.0], [0.0, 1.0]],
                    np.zeros((0, 0))):
            with pytest.raises(MalformedMatrix) as info:
                SymmetricMatrix(bad)
            assert isinstance(info.value, CovdecompError)

    def test_immutable(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            m.entries = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_input_copied(self):
        a = np.eye(2)
        m = SymmetricMatrix(a)
        a[0, 0] = 7.0
        assert m[0, 0] == 1.0


class TestLogdetPd:
    def test_matches_eigenvalue_sum(self):
        m = np.diag([1.0, 2.0, 4.0])
        assert logdet_pd(m) == pytest.approx(np.log(8.0))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_pd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            logdet_pd(np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(spd_matrices())
    def test_agrees_with_slogdet(self, a):
        sign, expected = np.linalg.slogdet(a)
        assert sign == 1.0
        assert logdet_pd(a) == pytest.approx(expected, abs=1e-8)


def _random_spd(p, seed):
    x = np.random.default_rng(seed).standard_normal((p, 2 * p))
    return x @ x.T / (2 * p) + 0.5 * np.eye(p)


@pytest.fixture(params=["lapack", "fallback"])
def inverse_path(request, monkeypatch):
    if request.param == "lapack" and symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_LAPACKE_dpotrf/dpotri_work64_")
    if request.param == "fallback":
        monkeypatch.setattr(symmat, "_lapack", None)
    return request.param


class TestInvPd:
    @pytest.mark.parametrize("p", [1, 2, 100, 400])
    def test_matches_linalg_inv(self, p, inverse_path):
        a = _random_spd(p, seed=p)
        got = inv_pd(a, np.linalg.cholesky(a))
        expected = np.linalg.inv(a)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(got, got.T)
        np.testing.assert_array_equal(inv_pd(a), got)

    def test_fallback_is_symmetrized_inv_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(symmat, "_lapack", None)
        a = _random_spd(50, seed=5)
        inv = np.linalg.inv(a)
        np.testing.assert_array_equal(inv_pd(a, np.linalg.cholesky(a)),
                                      0.5 * (inv + inv.T))

    def test_rejects_indefinite(self, inverse_path):
        # nonsingular, so an LU-based inverse alone would accept it
        with pytest.raises(NotPositiveDefinite):
            inv_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_factor_rejected(self):
        if symmat._lapack is None:
            pytest.skip("numpy bundles no scipy_LAPACKE_dpotrf/dpotri_work64_")
        with pytest.raises(NotPositiveDefinite):
            inv_pd(np.eye(2), np.diag([1.0, 0.0]))

    def test_lapack_path_resolves_on_bundled_openblas(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not list(libs.glob("libscipy_openblas64_*.so")):
            pytest.skip("no libscipy_openblas64_*.so beside numpy, so no "
                        "scipy_LAPACKE_dpotrf/dpotri_work64_")
        assert symmat._lapack is not None


class TestPdWorkspace:
    @pytest.mark.parametrize("a", [_random_spd(1, 1), _random_spd(100, 100),
                                   np.diag([1.0, 2.0, 4.0])],
                             ids=["p1", "p100", "diagonal"])
    def test_cholesky_and_inv_pd_bit_for_bit(self, a, inverse_path):
        # bytes, so that a negative zero off the diagonal counts too
        p = a.shape[0]
        ws = symmat.PdWorkspace(p)
        chol = np.linalg.cholesky(a)
        assert ws.factor(a).tobytes() == np.diag(chol).tobytes()
        out = np.empty((p, p))
        assert ws.inverse(out).tobytes() == inv_pd(a, chol).tobytes()

    def test_indefinite_has_no_factor(self, inverse_path):
        assert symmat.PdWorkspace(2).factor(np.array([[1.0, 2.0], [2.0, 1.0]])) is None


class TestInfOperatorNorm:
    def test_matches_naive_max_row_sum(self, rng):
        a = rng.standard_normal((6, 4))
        assert inf_operator_norm(a) == pytest.approx(naive_inf_operator_norm(a))

    def test_empty_is_zero(self):
        assert inf_operator_norm(np.zeros((0, 3))) == 0.0
        assert inf_operator_norm(np.zeros((3, 0))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=12, max_size=12))
    def test_transpose_gives_one_norm(self, vals):
        a = np.array(vals).reshape(3, 4)
        one_norm = np.abs(a).sum(axis=0).max()
        assert inf_operator_norm(a.T) == pytest.approx(one_norm)


def pair_mask(pairs, p):
    mask = np.zeros((p, p), dtype=bool)
    for i, j in pairs:
        mask[i, j] = True
    return mask


class TestHessianSubmatrix:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_materialized_kronecker(self, p, rng):
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + p * np.eye(p)
        # row-major pair lists, the order the masks enumerate
        rows = [(i, j) for i in range(p) for j in range(p) if (i + j) % 2 == 0]
        cols = [(i, j) for i in range(p) for j in range(p) if i <= j]
        got = hessian_submatrix(sigma, pair_mask(rows, p), pair_mask(cols, p))
        np.testing.assert_allclose(got, kron_submatrix(sigma, rows, cols),
                                   atol=1e-12)

    def test_empty_selection_shape(self):
        sigma = np.eye(3)
        none = pair_mask([], 3)
        one = pair_mask([(0, 1)], 3)
        assert hessian_submatrix(sigma, none, one).shape == (0, 1)
        assert hessian_submatrix(sigma, one, none).shape == (1, 0)

    def test_pair_array_rejected(self):
        with pytest.raises(DimensionMismatch):
            hessian_submatrix(np.eye(3), np.array([[0, 1], [1, 0]]), pair_mask([], 3))

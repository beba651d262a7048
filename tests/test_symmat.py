import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covdecomp import (
    DimensionMismatch,
    NotPositiveDefinite,
    PairIndexSet,
    SymmetricMatrix,
    hessian_submatrix,
    inf_operator_norm,
    logdet_pd,
)
from covdecomp.symmat import read_matrix_csv, write_matrix_csv

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


class TestPairIndexSet:
    def test_membership_len_iter(self):
        s = PairIndexSet([(0, 1), (2, 3)], dim=4)
        assert len(s) == 2
        assert (0, 1) in s and (2, 3) in s and (1, 2) not in s
        assert list(s) == [(0, 1), (2, 3)]

    def test_rejects_duplicates_and_out_of_range(self):
        with pytest.raises(ValueError):
            PairIndexSet([(0, 1), (0, 1)], dim=3)
        with pytest.raises(ValueError):
            PairIndexSet([(0, 3)], dim=3)
        with pytest.raises(ValueError):
            PairIndexSet(np.array([[0, 1], [-1, 2]]), dim=3)
        with pytest.raises(ValueError):
            PairIndexSet([(0, 1, 2), (1, 2, 0)], dim=3)

    def test_array_input_matches_tuples(self):
        s = PairIndexSet(np.array([[0, 1], [2, 3]]), dim=4)
        assert s == PairIndexSet([(0, 1), (2, 3)], dim=4)
        assert (2, 3) in s and (3, 2) not in s
        assert len(PairIndexSet(np.zeros((0, 2), dtype=int), dim=2)) == 0

    def test_equality_and_hash(self):
        a = PairIndexSet([(0, 1)], dim=2)
        b = PairIndexSet([(0, 1)], dim=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != PairIndexSet([(1, 0)], dim=2)


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


class TestHessianSubmatrix:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_materialized_kronecker(self, p, rng):
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + p * np.eye(p)
        rows = [(i, j) for i in range(p) for j in range(p) if (i + j) % 2 == 0]
        cols = [(i, j) for i in range(p) for j in range(p) if i <= j]
        got = hessian_submatrix(sigma, rows, cols)
        np.testing.assert_allclose(got, kron_submatrix(sigma, rows, cols),
                                   atol=1e-12)

    def test_empty_selection_shape(self):
        sigma = np.eye(3)
        assert hessian_submatrix(sigma, [], [(0, 0)]).shape == (0, 1)
        assert hessian_submatrix(sigma, [(0, 1)], []).shape == (1, 0)


def test_matrix_csv_roundtrip_exact(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    m = SymmetricMatrix(a + a.T, symmetrize=True)
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(np.asarray(back), np.asarray(m))

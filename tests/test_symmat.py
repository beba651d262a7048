import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdecomp as cd
from covdecomp import (CovdecompError, MalformedMatrix, NotPositiveDefinite, PreconditionViolated,
                       symmat)
from covdecomp.model import _hessian_block, _max_row_sum
from covdecomp.solver import _logdet
from covdecomp.symmat import inv_pd
from oracles import kron_submatrix, naive_inf_operator_norm, reference_inv_pd


def spd_matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda p: st.lists(
            st.floats(-1.0, 1.0), min_size=p * p, max_size=p * p
        ).map(lambda vals: _spd_from(np.array(vals).reshape(p, p)))
    )


def _spd_from(a):
    return a @ a.T + np.eye(a.shape[0])


class TestLogdetPd:
    def test_matches_eigenvalue_sum(self):
        m = np.diag([1.0, 2.0, 4.0])
        assert _logdet(m) == pytest.approx(np.log(8.0))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            _logdet(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            _logdet(np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(spd_matrices())
    def test_agrees_with_slogdet(self, a):
        sign, expected = np.linalg.slogdet(a)
        assert sign == 1.0
        assert _logdet(a) == pytest.approx(expected, abs=1e-8)


def _random_spd(p, seed):
    x = np.random.default_rng(seed).standard_normal((p, 2 * p))
    return x @ x.T / (2 * p) + 0.5 * np.eye(p)


class TestInvPd:
    @pytest.mark.parametrize("p", [1, 2, 100, 400])
    def test_matches_linalg_inv(self, p, lapack_route):
        a = _random_spd(p, seed=p)
        got = inv_pd(a)
        expected = np.linalg.inv(a)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(got, got.T)

    def test_fallback_is_symmetrized_inv_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(symmat, "_lapack", None)
        a = _random_spd(50, seed=5)
        inv = np.linalg.inv(a)
        np.testing.assert_array_equal(inv_pd(a), 0.5 * (inv + inv.T))

    def test_rejects_indefinite(self, lapack_route):
        # nonsingular, so an LU-based inverse alone would accept it
        with pytest.raises(NotPositiveDefinite):
            inv_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_lapack_path_resolves_on_bundled_openblas(self):
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        if not list(libs.glob("libscipy_openblas64_*.so")):
            pytest.skip("no libscipy_openblas64_*.so beside numpy, so no "
                        "scipy_LAPACKE_dpotrf/dpotri_work64_")
        assert symmat._load_lapack() is not None


class TestPdWorkspace:
    @pytest.mark.parametrize("a", [_random_spd(1, 1), _random_spd(100, 100),
                                   np.diag([1.0, 2.0, 4.0])],
                             ids=["p1", "p100", "diagonal"])
    def test_cholesky_and_inv_pd_bit_for_bit(self, a, lapack_route):
        # bytes, so that a negative zero off the diagonal counts too
        p = a.shape[0]
        ws = symmat.PdWorkspace(p)
        chol = np.linalg.cholesky(a)
        assert ws.factor(a).tobytes() == np.diag(chol).tobytes()
        out = np.empty((p, p))
        got = ws.inverse(out).tobytes()
        assert got == inv_pd(a).tobytes()
        assert got == reference_inv_pd(a).tobytes()

    def test_indefinite_has_no_factor(self, lapack_route):
        assert symmat.PdWorkspace(2).factor(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_factor_diagonal_survives_inverse(self, lapack_route):
        # inverse takes the factor's buffer as scratch, so an objective read
        # from the diagonal after it must still see the factor's
        a = _random_spd(20, seed=3)
        ws = symmat.PdWorkspace(20)
        diag = ws.factor(a)
        ws.inverse(np.empty((20, 20)))
        assert diag.tobytes() == np.diag(np.linalg.cholesky(a)).tobytes()


class TestCholesky:
    def test_indefinite_has_no_factor(self):
        assert symmat.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]])) is None

    def test_pd_factor_is_linalg_cholesky_bit_for_bit(self):
        a = _random_spd(50, seed=7)
        assert symmat.cholesky(a).tobytes() == np.linalg.cholesky(a).tobytes()


def _banded_spd(mask, seed):
    # a diagonally dominant matrix with the support of the symmetric mask
    off = np.triu(np.where(mask, np.random.default_rng(seed).uniform(-1, 1, mask.shape), 0.0), 1)
    a = off + off.T
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 0.5)
    return a


def _chain_mask(p):
    return np.abs(np.subtract.outer(np.arange(p), np.arange(p))) <= 1


def _grid_mask(q, order=None):
    # the q x q grid's neighbours, relabelled so that node order[k] is k
    i, j = np.divmod(np.arange(q * q), q)
    mask = np.abs(np.subtract.outer(i, i)) + np.abs(np.subtract.outer(j, j)) <= 1
    return mask if order is None else mask[np.ix_(order, order)]


def _spanning_order(q, seed):
    # a random order of the grid's nodes with the neighbours 0 and 1 first
    # and last, so that the band spans the whole matrix
    rest = np.random.default_rng(seed).permutation(np.arange(2, q * q))
    return np.concatenate([[0], rest, [1]])


def _half_bandwidth(mask):
    rows, cols = np.nonzero(mask)
    return int(np.max(cols - rows, initial=0))


def _block_tridiagonal_lower(p, kd):
    # the entries selected_inverse writes: i >= j in the same block or in
    # neighbouring ones, blocks of max(kd, _MIN_BLOCK) rows, the last
    # taking the remainder
    b = max(kd, symmat._MIN_BLOCK)
    block = np.minimum(np.arange(p) // b, max(1, p // b) - 1)
    return (np.abs(np.subtract.outer(block, block)) <= 1) & np.tri(p, dtype=bool)


class TestBandWorkspace:
    @pytest.mark.parametrize("mask, kd", [(_chain_mask(100), 1), (_grid_mask(10), 10),
                                          (_grid_mask(6, _spanning_order(6, 0)), 35)],
                             ids=["chain", "grid", "permuted_grid"])
    @pytest.mark.parametrize("min_block", [1, symmat._MIN_BLOCK])
    def test_selected_inverse_matches_inv(self, mask, kd, min_block, lapack_route,
                                          monkeypatch):
        # blocks of kd rows and of the default size; the permuted grid's
        # band spans the matrix, which is then one block
        monkeypatch.setattr(symmat, "_MIN_BLOCK", min_block)
        p = mask.shape[0]
        assert _half_bandwidth(mask) == kd
        a = _banded_spd(mask, seed=p)
        ws = symmat.BandWorkspace(p, kd)
        chol_diag = ws.factor(symmat.to_band(a, kd))
        np.testing.assert_allclose(chol_diag, np.diag(np.linalg.cholesky(a)), rtol=1e-13)
        got = ws.selected_inverse(np.full((p, p), np.nan))
        expected = np.linalg.inv(a)
        on = _block_tridiagonal_lower(p, kd)
        assert np.abs(got - expected)[on].max() <= 1e-13 * np.abs(expected).max()

    def test_indefinite_band_has_no_factor(self, lapack_route):
        # tridiagonal with unit diagonal and -0.9 beside it: its least
        # eigenvalue is 1 - 1.8 cos(pi / 51) < 0
        a = np.where(_chain_mask(50), -0.9, 0.0)
        np.fill_diagonal(a, 1.0)
        assert np.linalg.eigvalsh(a).min() < 0
        assert symmat.BandWorkspace(50, 1).factor(symmat.to_band(a, 1)) is None


class TestEigenvalue:
    @pytest.mark.parametrize("a", [
        _random_spd(1, 1), _random_spd(60, 2), _random_spd(225, 3),
        _random_spd(40, 4) - np.eye(40),  # indefinite
        np.where(_grid_mask(6), 0.3, 0.0),  # a symmetric spectrum
        np.eye(5),
    ], ids=["p1", "p60", "p225", "indefinite", "grid", "identity"])
    def test_extremes_match_eigvalsh(self, a, lapack_route):
        w = np.linalg.eigvalsh(a)
        scale = np.abs(w).max()
        for k in (0, len(a) - 1):
            assert abs(symmat.eigenvalue(a, k) - w[k]) <= 1e-12 * scale


class TestInfOperatorNorm:
    def test_matches_naive_max_row_sum(self, rng):
        a = rng.standard_normal((6, 4))
        assert _max_row_sum(a) == pytest.approx(naive_inf_operator_norm(a))

    def test_empty_is_zero(self):
        assert _max_row_sum(np.zeros((0, 3))) == 0.0
        assert _max_row_sum(np.zeros((3, 0))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=12, max_size=12))
    def test_transpose_gives_one_norm(self, vals):
        a = np.array(vals).reshape(3, 4)
        one_norm = np.abs(a).sum(axis=0).max()
        assert _max_row_sum(a.T) == pytest.approx(one_norm)


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
        got = _hessian_block(sigma, pair_mask(rows, p), pair_mask(cols, p))
        np.testing.assert_allclose(got, kron_submatrix(sigma, rows, cols),
                                   atol=1e-12)

    def test_empty_selection_shape(self):
        sigma = np.eye(3)
        none = pair_mask([], 3)
        one = pair_mask([(0, 1)], 3)
        assert _hessian_block(sigma, none, one).shape == (0, 1)
        assert _hessian_block(sigma, one, none).shape == (1, 0)


WORDS = [["a", "b"], ["c", "d"]]
EYE_MASK = np.eye(2, dtype=bool)
NO_PAIRS = np.zeros((2, 2), dtype=bool)
CFG = cd.SolverConfig(gamma=0.1, lambda_off=1.0)

# outside input that numpy cannot turn into floats, an empty matrix or one
# of the wrong shape, at each public entry point that converts it
MALFORMED_INPUT = {
    "info_model_h": lambda: cd.InfoModel(np.eye(2), ["a", "b"]),
    "admm_solve": lambda: cd.admm_solve(WORDS, CFG),
    "admm_solve_empty": lambda: cd.admm_solve(np.zeros((0, 0)), CFG),
    "witness_solve": lambda: cd.witness_solve(WORDS, EYE_MASK, NO_PAIRS, np.zeros((2, 2)), CFG),
    "witness_solve_signs": lambda: cd.witness_solve(np.eye(2), EYE_MASK, NO_PAIRS, WORDS, CFG),
    "duality_gap": lambda: cd.duality_gap(None, WORDS, CFG),
    "walk_summability": lambda: cd.walk_summability(WORDS),
    "walk_summability_empty": lambda: cd.walk_summability(np.zeros((0, 0))),
    "sample_covariance": lambda: cd.sample_covariance(WORDS),
    "support_of": lambda: cd.support_of(WORDS),
    "support_of_vector": lambda: cd.support_of(np.ones(3)),
    "soft_threshold_covariance": lambda: cd.soft_threshold_covariance(WORDS, 0.1),
    "soft_threshold_covariance_vector": lambda: cd.soft_threshold_covariance(np.ones(3), 0.1),
    "soft_threshold_covariance_non_square":
        lambda: cd.soft_threshold_covariance(np.ones((2, 3)), 0.1),
}


@pytest.mark.parametrize("call", MALFORMED_INPUT.values(), ids=MALFORMED_INPUT.keys())
def test_malformed_input_raises_typed_error(call):
    with pytest.raises(CovdecompError):
        call()


CHAIN = cd.chain_model((0.05, 0.04, 0.03), -0.01)
# the chain's truth, read as a solve's result
TRUTH = SimpleNamespace(j_hat=CHAIN.j_markov, sigma_m_hat=inv_pd(CHAIN.j_markov),
                        sigma_r_hat=CHAIN.sigma_residual)

# every public scalar parameter that symmat.checked_number guards, as the
# call on a value of it and whether it takes only integers
SCALARS = {
    "draw_samples-n": (lambda v: cd.draw_samples(CHAIN, v, 0), True),
    "draw_sample_covariance-n": (lambda v: cd.draw_sample_covariance(CHAIN, v, 0), True),
    "gamma_schedule-p": (lambda v: cd.gamma_schedule(2.0, v, 10), True),
    "gamma_schedule-n": (lambda v: cd.gamma_schedule(2.0, 10, v), False),
    "gamma_schedule-c_gamma": (lambda v: cd.gamma_schedule(v, 10, 10), False),
    "support_of-threshold": (lambda v: cd.support_of(np.eye(3), v), False),
    "compare_to_truth-threshold": (lambda v: cd.compare_to_truth(TRUTH, CHAIN, v), False),
    "soft_threshold_covariance-gamma":
        (lambda v: cd.soft_threshold_covariance(np.eye(3), v), False),
    "grid_model-q": (lambda v: cd.grid_model(v, 0), True),
    "grid_model-clip_fraction": (lambda v: cd.grid_model(3, 0, clip_fraction=v), False),
    "grid_model-low": (lambda v: cd.grid_model(3, 0, magnitude_range=(v, 0.2)), False),
    "grid_model-high": (lambda v: cd.grid_model(3, 0, magnitude_range=(0.15, v)), False),
    "chain_model-residual_value": (lambda v: cd.chain_model((0.05, 0.04, 0.03), v), False),
    "incoherence_report-m_param": (lambda v: cd.incoherence_report(CHAIN, v), False),
    "incoherence_report-tau": (lambda v: cd.incoherence_report(CHAIN, 83.0, tau=v), False),
    "incoherence_report-n": (lambda v: cd.incoherence_report(CHAIN, 83.0, n=v), False),
    "incoherence_report-c6": (lambda v: cd.incoherence_report(CHAIN, 83.0, c6=v), False),
    "incoherence_report-c7": (lambda v: cd.incoherence_report(CHAIN, 83.0, c7=v), False),
    "derive_seed-seed": (lambda v: cd.derive_seed(v, 0), True),
    "derive_seed-index": (lambda v: cd.derive_seed(0, v), True),
    "DiagBoostPolicy-fixed": (lambda v: cd.DiagBoostPolicy(fixed=v), False),
}
# None leaves the boost adaptive; a NaN residual is a non-finite matrix
NOT_SCALAR_FAULTS = {"DiagBoostPolicy-fixed-none", "chain_model-residual_value-nan"}
BAD_SCALARS = [
    pytest.param(call, value, id="%s-%s" % (name, kind))
    for name, (call, integer) in SCALARS.items()
    for kind, value in [("bool", True), ("string", "1"), ("none", None),
                        ("fraction", 2.5) if integer else ("nan", math.nan)]
    if "%s-%s" % (name, kind) not in NOT_SCALAR_FAULTS
]


@pytest.mark.parametrize("call, value", BAD_SCALARS)
def test_bad_scalar_raises_precondition_violated(call, value):
    with pytest.raises(PreconditionViolated):
        call(value)


# values of the right type outside their range
OUT_OF_RANGE = {
    "derive_seed-negative-seed": lambda: cd.derive_seed(-1),
    "derive_seed-negative-index": lambda: cd.derive_seed(0, -2),
    "grid_model-clip_fraction-above-1": lambda: cd.grid_model(3, 0, clip_fraction=1.5),
    "grid_model-clip_fraction-negative": lambda: cd.grid_model(3, 0, clip_fraction=-0.1),
    "grid_model-low-above-high": lambda: cd.grid_model(3, 0, magnitude_range=(0.2, 0.15)),
    "grid_model-infinite-high": lambda: cd.grid_model(3, 0, magnitude_range=(0.15, math.inf)),
    "DiagBoostPolicy-nan": lambda: cd.DiagBoostPolicy(fixed=math.nan),
    "DiagBoostPolicy-inf": lambda: cd.DiagBoostPolicy(fixed=math.inf),
    "DiagBoostPolicy-zero": lambda: cd.DiagBoostPolicy(fixed=0.0),
    "incoherence_report-negative-tau": lambda: cd.incoherence_report(CHAIN, 83.0, tau=-1.0),
    "chain_model-rho-nan": lambda: cd.chain_model((math.nan, 0.04, 0.03), -0.01),
    "chain_model-rho-scalar": lambda: cd.chain_model(0.05, -0.01),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_scalar_raises_precondition_violated(call):
    with pytest.raises(PreconditionViolated):
        call()


NOT_FINITE = np.eye(3)
NOT_FINITE[0, 1] = NOT_FINITE[1, 0] = math.inf

# a matrix or vector from outside that is not finite, or not numbers, at
# each public entry point that reads it through symmat.checked_square or as_floats
MALFORMED_MATRIX = {
    "admm_solve": lambda: cd.admm_solve(NOT_FINITE, CFG),
    "witness_solve": lambda: cd.witness_solve(NOT_FINITE, np.eye(3, dtype=bool),
                                              np.zeros((3, 3), dtype=bool), np.zeros((3, 3)), CFG),
    "duality_gap": lambda: cd.duality_gap(None, NOT_FINITE, CFG),
    "support_of": lambda: cd.support_of(NOT_FINITE),
    "soft_threshold_covariance": lambda: cd.soft_threshold_covariance(NOT_FINITE, 0.1),
    "walk_summability": lambda: cd.walk_summability(NOT_FINITE),
    "DecompositionModel": lambda: cd.DecompositionModel(NOT_FINITE, np.zeros((3, 3)), 1.0),
    "InfoModel": lambda: cd.InfoModel(NOT_FINITE, np.zeros(3)),
    "chain_model-rho": lambda: cd.chain_model(["a", "b", "c"], -0.01),
    "chain_model-residual_value": lambda: cd.chain_model((0.05, 0.04, 0.03), math.nan),
}


@pytest.mark.parametrize("call", MALFORMED_MATRIX.values(), ids=MALFORMED_MATRIX.keys())
def test_malformed_matrix_raises_malformed_matrix(call):
    with pytest.raises(MalformedMatrix):
        call()


def test_only_symmat_imports_numbers():
    # the scalar rule lives in symmat.checked_number alone
    src = Path(symmat.__file__).parent
    importers = [p.name for p in sorted(src.glob("*.py"))
                 if re.search(r"^\s*(import|from) numbers\b", p.read_text(), re.MULTILINE)]
    assert importers == ["symmat.py"]

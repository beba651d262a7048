"""Belief propagation tests: exact moments, walk-summability, tree
exactness, and divergence handling on frustrated models."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdecomp as cd
from covdecomp import (
    DimensionMismatch,
    InfoModel,
    MalformedMatrix,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PreconditionViolated,
)
from covdecomp import cli, inference, symmat
from covdecomp.inference import MESSAGE_NORM_LIMIT
from oracles import dense_lbp_run, dense_moments, random_tree_info, reference_grid_model


def frustrated_model(p=4, coupling=0.6):
    j = np.eye(p) + coupling * (np.ones((p, p)) - np.eye(p))
    return InfoModel(j, np.ones(p))


class TestInfoModel:
    def test_valid_construction(self):
        m = InfoModel(np.eye(3), np.arange(3.0))
        assert m.dim == 3
        assert np.array_equal(np.asarray(m.h), [0.0, 1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            InfoModel(np.eye(3), np.zeros(2))

    @pytest.mark.parametrize("j", [
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 2.0]]),  # a 2 x 2 block
        np.diag([1.0, 0.0, 2.0]),  # a zero pivot
        np.diag([1.0, -1e-300, 2.0]),
    ], ids=["negative_pivot", "2x2_block", "singular", "tiny_negative_pivot"])
    def test_indefinite_rejected(self, j, lapack_route):
        with pytest.raises(NotPositiveDefinite):
            InfoModel(j, np.ones(len(j)))

    def test_inputs_copied(self):
        j, h = np.eye(2), np.zeros(2)
        m = InfoModel(j, h)
        j[0, 0] = h[0] = 99.0
        assert m.j[0, 0] == 1.0 and m.h[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            m.j[0, 0] = 5.0

    def test_h_and_moments_read_only(self):
        m = InfoModel(np.eye(2), [1.0, 2.0])
        for a in (m.h, *m.moments):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5.0
        assert np.array_equal(m.h, [1.0, 2.0])

    def test_h_and_moments_read_only_on_the_study_route(self):
        # the lbp study's models, built with moments read off Sigma
        h, mean, var = np.ones(2), np.ones(2), np.ones(2)
        m = inference._with_moments(InfoModel(np.eye(2), h).j, h, mean, var)
        for a in (m.h, *m.moments):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 5.0
        h[0] = 3.0  # the caller's arrays stay its own
        assert m.h[0] == 1.0

    def test_non_square_j_rejected(self):
        with pytest.raises(DimensionMismatch):
            InfoModel(np.ones((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("j", [np.zeros((0, 0)), [[1.0, np.nan], [np.nan, 1.0]],
                                   [[1.0, 0.5], [0.4, 1.0]]],
                             ids=["empty", "non-finite", "asymmetric"])
    def test_malformed_j_rejected(self, j):
        with pytest.raises(MalformedMatrix):
            InfoModel(j, np.zeros(len(j)))

    def test_wrong_length_h_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="length"):
            InfoModel(np.eye(3), np.zeros(4))

    def test_nan_h_rejected(self):
        with pytest.raises(MalformedMatrix, match="finite"):
            InfoModel(np.eye(2), np.array([0.0, np.nan]))


class TestExactMoments:
    def test_identity_precision(self):
        mean, var = InfoModel(np.eye(2), np.array([1.0, 2.0])).moments
        assert np.allclose(mean, [1.0, 2.0])
        assert np.allclose(var, [1.0, 1.0])

    def test_scalar_case(self):
        mean, var = InfoModel(np.array([[2.0]]), np.array([4.0])).moments
        assert mean[0] == pytest.approx(2.0)
        assert var[0] == pytest.approx(0.5)

    def test_chain_against_dense_solve(self):
        j = np.eye(4)
        for i in range(3):
            j[i, i + 1] = j[i + 1, i] = -0.3
        h = np.array([1.0, -2.0, 0.5, 0.0])
        mean, var = InfoModel(j, h).moments
        ref_mean, ref_var = dense_moments(j, h)
        assert np.allclose(mean, ref_mean, atol=1e-12)
        assert np.allclose(var, ref_var, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 7, 60, 225])
    def test_random_spd_against_dense(self, p, lapack_route):
        rng = np.random.default_rng(p)
        x = rng.standard_normal((p, 2 * p))
        j = x @ x.T / (2 * p) + 0.1 * np.eye(p)
        h = rng.standard_normal(p)
        mean, var = InfoModel(j, h).moments
        ref_mean, ref_var = dense_moments(j, h)
        assert np.abs(mean - ref_mean).max() <= 1e-12 * np.abs(ref_mean).max()
        assert np.abs(var - ref_var).max() <= 1e-12 * np.abs(ref_var).max()

    def test_diagonal_variances_are_reciprocals(self, lapack_route):
        d = np.array([3.0, 7.0, 0.1, 2.5, 1e-3, 6.0])
        _, var = InfoModel(np.diag(d), np.ones(6)).moments
        assert var.tobytes() == (1.0 / d).tobytes()


class TestWalkSummability:
    def test_diagonal_model_is_zero(self):
        assert cd.walk_summability(np.diag([2.0, 3.0, 4.0])) == 0.0

    def test_diagonal_model_is_positive_zero(self, lapack_route):
        value = cd.walk_summability(np.diag([2.0, 3.0, 4.0]))
        assert math.copysign(1.0, value) == 1.0 and value == 0.0
        assert json.dumps(value) == "0.0"

    @pytest.mark.parametrize("q, seed", [(4, 0), (6, 11), (15, 3)])
    def test_matches_full_spectrum(self, q, seed, lapack_route):
        model = cd.grid_model(q, seed)
        for j in (np.asarray(model.j_markov), np.asarray(model._overall[2])):
            s = 1.0 / np.sqrt(np.diag(j))
            r = np.abs(j) * np.outer(s, s)
            np.fill_diagonal(r, 0.0)
            expected = np.abs(np.linalg.eigvalsh(r)).max()
            assert abs(cd.walk_summability(j) - expected) <= 1e-12 * expected

    def test_single_pair_value(self):
        j = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert cd.walk_summability(j) == pytest.approx(0.5)

    @pytest.mark.parametrize("scale", [1e-200, 1e200], ids=["underflow", "overflow"])
    def test_scale_invariant_at_float_range_ends(self, scale, lapack_route):
        # sqrt(d_i d_j) leaves the float range here, though d_i does not
        j = scale * np.array([[1.0, 0.1], [0.1, 1.0]])
        assert cd.walk_summability(j) == pytest.approx(0.1, rel=1e-12)

    def test_sign_of_coupling_irrelevant(self):
        j = np.array([[1.0, 0.5], [0.5, 1.0]])
        j_neg = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert cd.walk_summability(j) == pytest.approx(cd.walk_summability(j_neg))

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(NonPositiveDiagonal):
            cd.walk_summability(np.diag([1.0, 0.0]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            cd.walk_summability(np.ones((2, 3)))

    def test_nan_entry_rejected(self):
        j = np.eye(3)
        j[0, 1] = j[1, 0] = np.nan
        with pytest.raises(MalformedMatrix):
            cd.walk_summability(j)

    @settings(max_examples=25, deadline=None)
    @given(
        scales=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3
        )
    )
    def test_invariant_under_diagonal_rescaling(self, scales):
        j = np.eye(3)
        j[0, 1] = j[1, 0] = 0.4
        j[1, 2] = j[2, 1] = -0.3
        d = np.diag(scales)
        base = cd.walk_summability(j)
        assert cd.walk_summability(d @ j @ d) == pytest.approx(base, rel=1e-9)


class TestLbpOnTrees:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exact_after_at_most_p_iterations(self, seed):
        j, h = random_tree_info(p=12, seed=seed)
        m = InfoModel(j, h)
        trace = cd.lbp_run(m, max_iter=12, tol=1e-12)
        assert trace.mean_errors[-1] < 1e-8
        assert trace.var_errors[-1] < 1e-8

    def test_converged_flag_and_trace_lengths(self):
        j, h = random_tree_info(p=8, seed=7)
        trace = cd.lbp_run(InfoModel(j, h), max_iter=100, tol=1e-12)
        assert trace.converged
        assert len(trace.mean_errors) == trace.iterations_run
        assert len(trace.var_errors) == trace.iterations_run
        assert trace.iterations_run <= 100

    def test_diagonal_model_converges_immediately(self):
        m = InfoModel(np.diag([2.0, 3.0]), np.array([2.0, 3.0]))
        trace = cd.lbp_run(m, max_iter=10, tol=1e-12)
        assert trace.converged
        assert trace.iterations_run == 1
        assert trace.mean_errors[0] == 0.0
        assert trace.var_errors[0] == 0.0


class TestLbpOnLoopyModels:
    def test_walk_summable_loop_converges(self):
        # 4-cycle with weak couplings: ws < 1 certifies convergence
        j = np.eye(4)
        for i in range(4):
            k = (i + 1) % 4
            j[i, k] = j[k, i] = 0.2
        m = InfoModel(j, np.ones(4))
        assert cd.walk_summability(j) < 1.0
        trace = cd.lbp_run(m, max_iter=1000, tol=1e-10)
        assert trace.converged
        assert trace.mean_errors[-1] < 1e-6

    def test_frustrated_model_diverges(self):
        m = frustrated_model()
        assert cd.walk_summability(np.asarray(m.j)) > 1.5
        trace = cd.lbp_run(m, max_iter=1000, tol=1e-10)
        assert not trace.converged
        assert trace.iterations_run < 1000


class TestLbpValidation:
    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            cd.lbp_run(InfoModel(np.eye(2), np.zeros(2)), max_iter=0, tol=1e-8)

    def test_nan_tol_rejected(self):
        with pytest.raises(PreconditionViolated, match="tol"):
            cd.lbp_run(InfoModel(np.eye(2), np.zeros(2)), max_iter=10, tol=np.nan)

    @pytest.mark.parametrize("max_iter", [2.5, float("inf"), True, "3", None, np.array(3)])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(PreconditionViolated, match="max_iter must be an integer"):
            cd.lbp_run(InfoModel(np.eye(2), np.zeros(2)), max_iter=max_iter, tol=1e-8)

    @pytest.mark.parametrize("tol", ["x", None, True, 1j])
    def test_non_real_tol_rejected(self, tol):
        with pytest.raises(PreconditionViolated, match="tol must be a number"):
            cd.lbp_run(InfoModel(np.eye(2), np.zeros(2)), max_iter=3, tol=tol)

    def test_numpy_scalars_accepted(self):
        trace = cd.lbp_run(InfoModel(np.eye(2), np.zeros(2)), max_iter=np.int64(3),
                           tol=np.float32(1e-8))
        assert trace.converged and trace.iterations_run == 1


def assert_same_as_dense(m, **kwargs):
    """Both message layouts of lbp_run, the edge list and the p x p
    arrays, reproduce the dense oracle's trace bit for bit; returns it."""
    kwargs.setdefault("max_iter", 1000)
    kwargs.setdefault("tol", 1e-10)
    want = dense_lbp_run(m, **kwargs)
    for share in (math.inf, -math.inf):  # every J on the edge list, then dense
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "DENSE_EDGE_SHARE", share)
            got = cd.lbp_run(m, **kwargs)
        assert np.array_equal(got.mean_errors, want.mean_errors)
        assert np.array_equal(got.var_errors, want.var_errors)
        assert got.converged == want.converged
        assert got.iterations_run == want.iterations_run
    return want


@pytest.fixture(scope="module")
def grid6():
    """An adaptive-boost q = 6 grid model: its Markov and overall precisions."""
    model = cd.grid_model(6, 11)
    j_overall = np.linalg.inv(np.asarray(cd.true_covariance(model)))
    h = np.random.default_rng(3).standard_normal(model.dim)
    return (InfoModel(np.asarray(model.j_markov), h),
            InfoModel(0.5 * (j_overall + j_overall.T), h))


class TestEdgeListMatchesDenseOracle:
    def test_grid_markov(self, grid6):
        trace = assert_same_as_dense(grid6[0])
        assert trace.converged and trace.iterations_run > 10

    def test_grid_overall(self, grid6):
        assert_same_as_dense(grid6[1])

    def test_cavity_break(self):
        trace = assert_same_as_dense(frustrated_model())
        assert not trace.converged and trace.iterations_run < 1000

    def test_message_norm_break(self):
        # variances settle but the means grow geometrically until the
        # potential messages pass the norm limit
        j = np.array([[1.2, -0.1, -0.8, -0.2],
                      [-0.1, 1.2, 0.3, 0.75],
                      [-0.8, 0.3, 1.2, 0.3],
                      [-0.2, 0.75, 0.3, 1.2]])
        trace = assert_same_as_dense(InfoModel(j, np.ones(4)))
        assert not trace.converged and trace.iterations_run < 1000
        assert trace.mean_errors[-1] > MESSAGE_NORM_LIMIT ** 0.5

    def test_diagonal_model(self):
        trace = assert_same_as_dense(InfoModel(np.diag([2.0, 3.0, 0.5]),
                                               np.array([1.0, -1.0, 2.0])))
        assert trace.converged and trace.iterations_run == 1

    def test_single_node(self):
        trace = assert_same_as_dense(InfoModel(np.array([[2.0]]), np.array([4.0])))
        assert trace.converged and trace.iterations_run == 1
        assert trace.mean_errors[0] == 0.0

    def test_nonpositive_belief_beside_a_non_edge(self):
        # every belief precision is nonpositive at sweep 5, but no cavity
        # precision is, so the run goes on; node 0 has the non-edge (0, 3),
        # whose p x p entries the cavity test must skip, as the diagonal's
        j = np.array([[1.2, 0.3, -0.7, 0.0],
                      [0.3, 1.2, -0.6, -0.6],
                      [-0.7, -0.6, 1.2, -0.3],
                      [0.0, -0.6, -0.3, 1.2]])
        trace = assert_same_as_dense(InfoModel(j, np.ones(4)))
        assert np.isinf(trace.mean_errors[4]) and trace.iterations_run == 6
        assert not trace.converged

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        density=st.floats(min_value=0.0, max_value=1.0),
        slack=st.floats(min_value=0.05, max_value=2.0),
        tol=st.sampled_from([0.0, 1e-12, 1e-6]),
    )
    def test_random_sparse_spd(self, p, seed, density, slack, tol):
        # each pair an edge with probability density, on either side of
        # the layouts' switch; the others exact zeros
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(-1.0, 1.0, (p, p)) * (rng.random((p, p)) < density), 1)
        a = a + a.T
        j = a + (slack - np.linalg.eigvalsh(a).min()) * np.eye(p)
        assert_same_as_dense(InfoModel(j, rng.standard_normal(p)),
                             max_iter=60, tol=tol)


def test_lbp_study_takes_no_dense_lu_or_full_spectrum(tmp_path, monkeypatch):
    """``covdecomp lbp`` on the LAPACK route calls no LU solve or inverse and
    no full eigenvalue decomposition: the moments come from each model's
    overall covariance, each walk-summability from one eigenvalue and the
    adaptive boost from band Cholesky factors."""
    if symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_openblas64 LAPACKE routines")

    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")

    for name in ("inv", "solve", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    config = tmp_path / "lbp.json"
    config.write_text(json.dumps({"grid_sizes": [4]}))
    assert cli.main(["lbp", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    models = json.loads((tmp_path / "out" / "lbp_summary.json").read_text())["models"]
    assert len(models) == 5 and all(m["converged_markov"] for m in models)


def test_lbp_study_factors_each_model_three_times(tmp_path, monkeypatch):
    """Beside grid_model's margin tries, one per residual shrink and one
    more, ``covdecomp lbp`` on the LAPACK route takes three dense Cholesky
    factors per model: J_M^-1 in grid_model, J_M^-1 and the overall
    covariance in its one factor for L and Sigma^-1. Both information
    models take their exact moments from that Sigma, with no factor of
    their own, and the two eigenvalues per model are the two
    walk-summabilities."""
    if symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_openblas64 LAPACKE routines")
    calls = []

    def counted(fn, name):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(symmat.PdWorkspace, "factor",
                        counted(symmat.PdWorkspace.factor, "cholesky"))
    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky, "cholesky"))
    call = counted(symmat.eigenvalue, "eigenvalue")
    for module in (symmat, inference, cd.model):
        monkeypatch.setattr(module, "eigenvalue", call)
    config = tmp_path / "lbp.json"
    config.write_text(json.dumps({"grid_sizes": [4], "lbp_models": 3}))
    assert cli.main(["lbp", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    margin_tries = sum(1 + reference_grid_model(4, cd.derive_seed(0, k))[2] for k in range(3))
    assert calls.count("cholesky") == margin_tries + 3 * 3
    assert calls.count("eigenvalue") == 2 * 3


@pytest.mark.parametrize("q", [3, 5, 10, 15])
@pytest.mark.parametrize("route", ["lapack", "fallback"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_lbp_study_moments_are_the_information_models_moments(q, route, seed):
    """The moments that ``covdecomp lbp`` reads off each model's overall
    covariance are those that ``InfoModel`` takes from one factor of each
    information matrix, on both kernel routes."""
    if route == "lapack" and symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_openblas64 LAPACKE routines")
    studied = []

    def recorded(m, max_iter, tol):
        studied.append(m)
        return cd.lbp_run(m, 1, tol)

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        if route == "fallback":
            patch.setattr(symmat, "_lapack", None)
        patch.setattr(cli, "lbp_run", recorded)
        config = Path(out) / "lbp.json"
        config.write_text(json.dumps({"grid_sizes": [q], "lbp_models": 2}))
        assert cli.main(["lbp", "--config", str(config), "--seed", str(seed), "--out", out]) == 0
        assert len(studied) == 4
        for m in studied:
            for got, want in zip(m.moments, InfoModel(m.j, m.h).moments):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

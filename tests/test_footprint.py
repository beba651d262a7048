"""The footprint table: the traced peak of each entry point, in p x p arrays.

A call's peak is the most memory that tracemalloc sees allocated at once
inside it, less what was allocated when it began: its inputs do not
count, what it returns does. The unit is one p x p float64 array, so a
boolean p x p array counts as 1/8. A peak is read to one decimal, as the
caps are given; below that lie the call's O(p) vectors and Python
objects. Each call runs once untraced before it is traced, so that
numpy's one-time set-up does not count. The caps hold on the LAPACK route
only: the numpy fallback allocates in every factor and inverse.
"""

import tracemalloc

import numpy as np
import pytest

import covdecomp as cd
from covdecomp import inference, solver, symmat

# the benchmark's exact covariance (q = 20) and sweep cells (boost 1.0)
_EXACT = dict(eps_abs=1e-10, eps_rel=1e-9)
_BOOST = cd.DiagBoostPolicy(fixed=1.0)


@pytest.fixture(autouse=True)
def _lapack_only():
    if symmat._lapack is None:
        pytest.skip("the caps are the LAPACK route's; the fallback allocates freely")


def _peak(call, p):
    # call()'s result and its traced peak in p x p float64 arrays, to one decimal
    call()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, round(peak / (8.0 * p * p), 1)


def _routes(monkeypatch):
    # the workspace type of every loop that the solves after this call run
    kinds, loop = [], solver._prox_gradient

    def recorded(ws, *args):
        kinds.append(type(ws))
        return loop(ws, *args)

    monkeypatch.setattr(solver, "_prox_gradient", recorded)
    return kinds


def _cell(model, n, seed):
    # a sweep cell's sample covariance and config at n samples
    sigma = cd.draw_sample_covariance(model, n, seed)
    gamma = cd.gamma_schedule(2.08, model.dim, n)
    return sigma, cd.SolverConfig(gamma=gamma, lambda_off=model.lambda_star)


@pytest.fixture(scope="module")
def exact():
    model = cd.grid_model(20, 1000, diag_boost_policy=_BOOST)
    sigma = cd.true_covariance(model)
    return model, sigma, cd.SolverConfig(gamma=0.0, lambda_off=model.lambda_star, **_EXACT)


def test_box_solve_at_gamma_zero(exact):
    model, sigma, cfg = exact
    result, peak = _peak(lambda: cd.admm_solve(sigma, cfg), model.dim)
    assert result.converged
    assert peak <= 7


def test_witness_solve(exact):
    model, sigma, cfg = exact
    s_m, s_r, _, _ = cd.partition_pairs(model)
    signs = np.sign(np.asarray(model.sigma_residual))
    result, peak = _peak(lambda: cd.witness_solve(sigma, s_m, s_r, signs, cfg), model.dim)
    assert result.converged
    assert peak <= 6


@pytest.mark.parametrize("q", [10, 15])
def test_working_set_solves_cold_and_warm(q, monkeypatch):
    model = cd.grid_model(q, cd.derive_seed(1005, q, 0), diag_boost_policy=_BOOST)
    model._overall  # the model's cached factor, which the draws read
    kinds = _routes(monkeypatch)
    cold, cfg = _cell(model, 250, 1)
    first, peak_cold = _peak(lambda: cd.admm_solve(cold, cfg), model.dim)
    warm, cfg = _cell(model, 500, 2)
    second, peak_warm = _peak(lambda: cd.admm_solve(warm, cfg, warm_start=first), model.dim)
    assert set(kinds) == {solver._FreeWorkspace}
    assert first.converged and second.converged
    assert max(peak_cold, peak_warm) <= 7


def test_dense_route(monkeypatch):
    # at the adaptive boost the working set is too wide for a band
    model = cd.grid_model(10, 4)
    model._overall
    kinds = _routes(monkeypatch)
    sigma, cfg = _cell(model, 500, 3)
    result, peak = _peak(lambda: cd.admm_solve(sigma, cfg), model.dim)
    assert set(kinds) == {solver._Workspace}
    assert result.converged
    assert peak <= 9


@pytest.fixture(scope="module")
def model15():
    model = cd.grid_model(15, 5, diag_boost_policy=_BOOST)
    model._overall
    return model


@pytest.mark.parametrize("n", [100, 250, 10 ** 5])
def test_draw_sample_covariance(model15, n):
    # n < p draws p x n factors; n >= p, a square one
    _, peak = _peak(lambda: cd.draw_sample_covariance(model15, n, 1), model15.dim)
    assert peak <= 3


def test_compare_to_truth(model15):
    sigma, cfg = _cell(model15, 500, 3)
    result = cd.admm_solve(sigma, cfg)
    _, peak = _peak(lambda: cd.compare_to_truth(result, model15), model15.dim)
    assert peak <= 3


@pytest.mark.parametrize("policy", [_BOOST, None], ids=["fixed", "adaptive"])
def test_grid_model(policy):
    model, peak = _peak(lambda: cd.grid_model(15, 5, diag_boost_policy=policy), 225)
    assert model.dim == 225
    assert peak <= 4


def test_true_covariance(model15):
    _, peak = _peak(lambda: cd.true_covariance(model15), model15.dim)
    assert peak <= 2


def test_overall(model15):
    # Sigma, L and Sigma^-1, which takes the buffer that factored Sigma
    arrays, peak = _peak(lambda: cd.DecompositionModel._overall.func(model15), model15.dim)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, model15._overall))
    assert peak <= 3


def test_lbp_run_on_the_overall_precision(model15):
    # a dense J: its messages d and their update, two layers each, and J_st^2
    sigma, _, precision = model15._overall
    h = np.ones(model15.dim)
    m = inference._with_moments(precision, h, sigma @ h, sigma.diagonal().copy())
    trace, peak = _peak(lambda: cd.lbp_run(m, 1000, 1e-10), model15.dim)
    assert trace.iterations_run >= 1
    assert peak <= 6

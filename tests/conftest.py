"""Shared fixtures, and the certification audit of every solve.

Every call to ``admm_solve`` or ``witness_solve`` made while a test runs,
including those of the module fixtures it sets up, is recorded with its
config; the test's teardown checks each result against the bounds its
config promises, in ``oracles.certification_breaches``, and clears the
record. The audit therefore holds for any selection or order of tests.
"""

import inspect

import numpy as np
import pytest

import covdecomp as cd
from covdecomp import chain_model, cli, grid_model, solver, symmat
from oracles import certification_breaches

# the namespaces callers reach the solvers through
SOLVER_NAMESPACES = (cd, solver, cli)


@pytest.fixture(scope="session", autouse=True)
def solve_record():
    """``(solver_name, cfg, result)`` of each solve since the last
    teardown, with the ``SolverConfig`` the solve was called with."""
    record = []
    patch = pytest.MonkeyPatch()
    for name in ("admm_solve", "witness_solve"):
        def recorded(*args, _solve=getattr(solver, name), _name=name, **kwargs):
            cfg = inspect.signature(_solve).bind(*args, **kwargs).arguments["cfg"]
            result = _solve(*args, **kwargs)
            record.append((_name, cfg, result))
            return result

        for namespace in SOLVER_NAMESPACES:
            if hasattr(namespace, name):
                patch.setattr(namespace, name, recorded)
    yield record
    patch.undo()


@pytest.fixture(autouse=True)
def _audit_solves(solve_record):
    yield
    breaches = certification_breaches(solve_record)
    solve_record.clear()
    assert not breaches, "; ".join(breaches)


@pytest.fixture(params=["lapack", "fallback"])
def lapack_route(request, monkeypatch):
    """Runs a test on the LAPACK kernels of ``symmat`` and on their numpy
    fallback, which ``symmat._lapack = None`` selects."""
    if request.param == "lapack" and symmat._lapack is None:
        pytest.skip("numpy bundles no scipy_openblas64 LAPACKE routines")
    if request.param == "fallback":
        monkeypatch.setattr(symmat, "_lapack", None)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def chain():
    return chain_model((0.05, 0.04, 0.03), -0.01)


@pytest.fixture
def small_grid():
    return grid_model(3, 7)

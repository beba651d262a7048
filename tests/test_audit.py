"""The per-test certification audit: it sees every solve route with its
config, and it flags a converged result that breaks a bound its config
promises."""

import dataclasses
import json

import numpy as np

import covdecomp as cd
from covdecomp import cli
from oracles import TIGHT, certification_breaches


def test_audit_records_every_solve_route(solve_record, tmp_path):
    assert solve_record == []
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=1.0, **TIGHT)
    direct = cd.admm_solve(np.diag([1.0, 2.0]), cfg)
    witness = cd.witness_solve(np.diag([1.0, 2.0]), np.eye(2, dtype=bool),
                               np.zeros((2, 2), dtype=bool), np.zeros((2, 2)), cfg)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid_sizes": [2], "sample_sizes": [500],
                                  "solver": dict(TIGHT)}))
    assert cli.main(["fit", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _, _ in solve_record] == ["admm_solve", "witness_solve",
                                                     "admm_solve"]
    assert solve_record[0][1] is cfg and solve_record[1][1] is cfg
    assert solve_record[0][2] is direct and solve_record[1][2] is witness
    # the cell's config: the solver keys from the file, gamma from the harness
    assert solve_record[2][1].eps_rel == TIGHT["eps_rel"] and solve_record[2][1].gamma > 0
    assert solve_record[2][2].j_hat.shape == (4, 4)


def _certified_box_solve():
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=1.0, **TIGHT)
    return cfg, cd.admm_solve(np.diag([1.0, 2.0]), cfg)


def test_audit_flags_converged_kkt_breach():
    cfg, res = _certified_box_solve()
    assert certification_breaches([("admm_solve", cfg, res)]) == []
    # the bound is the config's eps_rel, not a fixed number
    res = dataclasses.replace(res, kkt_residual=1e-8)
    breaches = certification_breaches([("admm_solve", cfg, res)])
    assert len(breaches) == 1 and "KKT" in breaches[0]
    loose = dataclasses.replace(cfg, eps_rel=1e-6)
    assert certification_breaches([("admm_solve", loose, res)]) == []


def test_audit_flags_converged_gap_breach():
    cfg, res = _certified_box_solve()
    res = dataclasses.replace(res, duality_gap=-1e-8)
    breaches = certification_breaches([("admm_solve", cfg, res)])
    assert len(breaches) == 1 and "gap" in breaches[0]
    loose = dataclasses.replace(cfg, eps_abs=1e-8)
    assert certification_breaches([("admm_solve", loose, res)]) == []
    # the witness program's gap is not certified
    assert certification_breaches([("witness_solve", cfg, res)]) == []


def test_audit_skips_bounds_of_unconverged_results():
    cfg, res = _certified_box_solve()
    res = dataclasses.replace(res, converged=False, kkt_residual=1e-3, duality_gap=1e-3)
    assert certification_breaches([("admm_solve", cfg, res)]) == []
    res = dataclasses.replace(res, iterations=0)
    assert len(certification_breaches([("admm_solve", cfg, res)])) == 1


def test_audit_flags_residual_against_the_sign_of_j():
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=0.1, **TIGHT)
    res = cd.admm_solve(np.array([[1.0, 0.5], [0.5, 1.0]]), cfg)
    assert res.sigma_r_hat[0, 1] != 0.0
    assert certification_breaches([("admm_solve", cfg, res)]) == []
    r = -res.sigma_r_hat
    # converged or not, a residual that fights J's sign is flagged
    for converged in (True, False):
        tampered = dataclasses.replace(res, sigma_r_hat=r, converged=converged)
        breaches = certification_breaches([("admm_solve", cfg, tampered)])
        assert len(breaches) == 1 and "sign" in breaches[0]

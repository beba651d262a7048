"""The per-test certification audit: it sees every solve route, and it
flags a converged result that breaks a bound."""

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
    config.write_text(json.dumps({"generator": "chain", "sample_sizes": [500],
                                  "solver": dict(TIGHT)}))
    assert cli.main(["fit", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _ in solve_record] == ["admm_solve", "witness_solve", "admm_solve"]
    assert solve_record[0][1] is direct and solve_record[1][1] is witness
    assert solve_record[2][1].j_hat.shape == (4, 4)


def _certified_box_result():
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=1.0, **TIGHT)
    return cd.admm_solve(np.diag([1.0, 2.0]), cfg)


def test_audit_flags_converged_kkt_breach():
    res = _certified_box_result()
    assert certification_breaches([("admm_solve", res)]) == []
    res = dataclasses.replace(res, kkt_residual=1e-3)
    breaches = certification_breaches([("admm_solve", res)])
    assert len(breaches) == 1 and "KKT" in breaches[0]


def test_audit_flags_converged_gap_breach():
    res = dataclasses.replace(_certified_box_result(), duality_gap=1e-3)
    breaches = certification_breaches([("admm_solve", res)])
    assert len(breaches) == 1 and "gap" in breaches[0]
    # the witness program's gap is not certified
    assert certification_breaches([("witness_solve", res)]) == []


def test_audit_skips_bounds_of_unconverged_results():
    res = dataclasses.replace(_certified_box_result(), converged=False,
                              kkt_residual=1e-3, duality_gap=1e-3)
    assert certification_breaches([("admm_solve", res)]) == []
    res = dataclasses.replace(res, iterations=0)
    assert len(certification_breaches([("admm_solve", res)])) == 1

"""Each output checker accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

Correct outputs come from small runs of the real commands (or, for the
sweep, a hand-written table); each test then corrupts one thing the
checker must notice.
"""

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import covdecomp as cd  # noqa: E402
from covdecomp.cli import main  # noqa: E402

from checks import CheckFailed, check_exact, check_lbp, check_sweep  # noqa: E402
from workloads import lbp_walk_summability  # noqa: E402


# --- sweep ---------------------------------------------------------------

SIZES = (250, 2000)
DIMS = (100, 225)


def write_sweep(path, edits):
    """A sweep table with the given (markov, residual) edits per (p, n)."""
    with open(path, "w", newline="") as fh:
        fh.write("# covdecomp test\n")
        writer = csv.writer(fh)
        writer.writerow(["p", "n", "n_over_logp", "trial", "normalized_edit_markov",
                         "normalized_edit_residual", "converged"])
        for (p, n), (em, er) in sorted(edits.items()):
            writer.writerow([p, n, repr(n / math.log(p)), 0, em, er, True])


GOOD_EDITS = {(100, 250): (0.6, 0.9), (100, 2000): (0.02, 0.0),
              (225, 250): (0.7, 0.95), (225, 2000): (0.01, 0.01)}


def test_sweep_accepts_consistent_rows(tmp_path):
    write_sweep(tmp_path / "sweep.csv", GOOD_EDITS)
    check_sweep(tmp_path / "sweep.csv", SIZES, DIMS)


def test_sweep_rejects_edit_distance_rising_with_n(tmp_path):
    edits = dict(GOOD_EDITS)
    edits[(225, 2000)] = (0.01, 0.97)
    write_sweep(tmp_path / "sweep.csv", edits)
    with pytest.raises(CheckFailed, match="normalized_edit_residual"):
        check_sweep(tmp_path / "sweep.csv", SIZES, DIMS)


# --- exact ---------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_solve():
    model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=model.lambda_star,
                          eps_abs=1e-10, eps_rel=1e-9)
    result = cd.admm_solve(cd.true_covariance(model), cfg)
    return model, result


def test_exact_accepts_solution(exact_solve):
    model, result = exact_solve
    check_exact((result.j_hat, result.sigma_r_hat), np.asarray(model.j_markov),
                np.asarray(model.sigma_residual), result.converged)


def test_exact_rejects_solution_moved_by_1e_5(exact_solve):
    model, result = exact_solve
    moved = np.asarray(result.j_hat) + 1e-5
    with pytest.raises(CheckFailed, match="J - J_M"):
        check_exact((moved, result.sigma_r_hat), np.asarray(model.j_markov),
                    np.asarray(model.sigma_residual), result.converged)


# --- lbp -----------------------------------------------------------------

LBP_Q, LBP_MODELS, LBP_SEED = 5, 2, 3


@pytest.fixture(scope="module")
def lbp_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("lbp")
    config = out / "lbp.json"
    config.write_text(json.dumps({"grid_sizes": [LBP_Q], "lbp_models": LBP_MODELS}))
    assert main(["lbp", "--config", str(config), "--seed", str(LBP_SEED),
                 "--out", str(out)]) == 0
    return out, lbp_walk_summability(cd, LBP_Q, LBP_SEED, LBP_MODELS)


def test_lbp_accepts_study(lbp_out):
    check_lbp(*lbp_out)


def test_lbp_rejects_nonzero_final_mean_error(lbp_out):
    out, expected = lbp_out
    summary = json.loads((out / "lbp_summary.json").read_text())
    k = next(e["model"] for e in summary["models"] if e["converged_markov"])
    path = out / ("trace_markov_%d.csv" % k)
    original = path.read_text()
    rows = [line.split(",") for line in original.splitlines()]
    rows[-1][1] = "0.001"
    try:
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        with pytest.raises(CheckFailed, match="mean error"):
            check_lbp(out, expected)
    finally:
        path.write_text(original)


def test_lbp_rejects_wrong_walk_summability(lbp_out):
    out, expected = lbp_out
    wrong = [dict(m, markov=1.001 * m["markov"]) for m in expected]
    with pytest.raises(CheckFailed, match="walk_summability"):
        check_lbp(out, wrong)

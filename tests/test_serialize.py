"""Round-trip tests for the written formats (solve results, matrices and
propagation traces) and tests of the data CSV reader."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import covdecomp as cd
from covdecomp import InfoModel, MalformedCsv, NonNumericCell, SolverConfig
from covdecomp.serialize import read_csv_table, write_matrix_csv


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def solved_chain():
    model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    sigma = np.asarray(cd.true_covariance(model))
    cfg = SolverConfig(
        gamma=0.0, lambda_off=model.lambda_star, eps_abs=1e-10, eps_rel=1e-9
    )
    return cd.admm_solve(sigma, cfg)


class TestResultRoundTrip:
    def test_matrices_round_trip(self, solved_chain, tmp_path):
        d = cd.save_result(solved_chain, tmp_path / "result")
        j_hat = np.loadtxt(d / "j_hat.csv", delimiter=",")
        sigma_r = np.loadtxt(d / "sigma_r.csv", delimiter=",")
        assert np.array_equal(j_hat, solved_chain.j_hat)
        assert np.array_equal(sigma_r, solved_chain.sigma_r_hat)

    def test_diagnostics_contents(self, solved_chain, tmp_path):
        d = cd.save_result(
            solved_chain, tmp_path / "result", extra_diagnostics={"note": "unit"}
        )
        diag = json.loads((d / "diagnostics.json").read_text())
        assert diag["converged"] is True
        assert diag["duality_gap"] == solved_chain.duality_gap
        assert diag["kkt_residual"] == solved_chain.kkt_residual
        assert diag["iterations"] == solved_chain.iterations
        assert diag["overall_pd"] is True
        assert diag["clip_pairs"] == [[0, 1]]
        assert diag["sign_conflicts"] == []
        assert diag["note"] == "unit"

    def test_unconverged_flag_survives(self, tmp_path):
        model = cd.grid_model(3, 7)
        sigma = np.asarray(cd.true_covariance(model))
        # its box program takes more than two Newton steps
        cfg = SolverConfig(gamma=0.0, lambda_off=model.lambda_star)
        assert cd.admm_solve(sigma, cfg).iterations > 2
        res = cd.admm_solve(sigma, dataclasses.replace(cfg, max_iter=2))
        d = cd.save_result(res, tmp_path / "result")
        diag = json.loads((d / "diagnostics.json").read_text())
        assert diag["converged"] is False

    def test_sign_conflicts_listed_as_pairs(self, solved_chain, tmp_path):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 3] = True
        res = dataclasses.replace(solved_chain, sign_conflicts=mask)
        d = cd.save_result(res, tmp_path / "result")
        diag = json.loads((d / "diagnostics.json").read_text())
        assert diag["sign_conflicts"] == [[1, 3]]


class TestReadCsvTable:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.5\n")
        columns, data = read_csv_table(path)
        assert columns == ["a", "b"]
        assert np.array_equal(data, [[1.0, 2.0], [3.0, 4.5]])

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(NonNumericCell) as info:
            read_csv_table(path)
        assert info.value.row == 1
        assert info.value.col == 1
        assert info.value.value == "oops"
        assert "file row 3" in str(info.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(MalformedCsv, match="empty"):
            read_csv_table(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n")
        with pytest.raises(MalformedCsv, match="no data"):
            read_csv_table(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(MalformedCsv, match="row 3 has 2 cells"):
            read_csv_table(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named_with_file(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1.0,2.0,3.0\n4.0,5.0,%s\n" % cell)
        with pytest.raises(MalformedCsv, match=r"data\.csv: non-finite cell '%s' "
                           r"at file row 3, column 3" % cell):
            read_csv_table(path)


class TestTraceCsv:
    def test_rows_match_trace(self, tmp_path):
        j = np.eye(3)
        j[0, 1] = j[1, 0] = 0.2
        trace = cd.lbp_run(InfoModel(j, np.ones(3)), max_iter=50, tol=1e-12)
        path = cd.write_trace_csv(trace, tmp_path / "trace.csv")
        rows = _csv_rows(path)
        assert rows[0] == ["iteration", "mean_error", "var_error"]
        assert len(rows) == trace.iterations_run + 1
        assert int(rows[1][0]) == 1
        assert float(rows[-1][1]) == trace.mean_errors[-1]
        assert float(rows[-1][2]) == trace.var_errors[-1]

    @pytest.mark.parametrize("errors", [
        [],
        [(0.5, 0.25), (1.0 / 3.0, 1e-300), (math.inf, math.inf), (2.0 ** -1074, 123456.789)],
    ], ids=["empty", "with-inf-rows"])
    def test_bytes_match_a_row_by_row_writer(self, tmp_path, errors):
        mean = np.array([m for m, _ in errors], dtype=float)
        var = np.array([v for _, v in errors], dtype=float)
        trace = cd.LbpTrace(mean_errors=mean, var_errors=var, converged=False,
                            iterations_run=len(errors))
        path = cd.write_trace_csv(trace, tmp_path / "trace.csv")
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "mean_error", "var_error"])
            for k in range(len(errors)):
                writer.writerow([k + 1, repr(float(mean[k])), repr(float(var[k]))])
        assert path.read_bytes() == reference.read_bytes()

    def test_values_parse_to_float(self, tmp_path):
        j = np.eye(2)
        trace = cd.lbp_run(InfoModel(j, np.array([1.0, 2.0])), max_iter=5, tol=1e-12)
        path = cd.write_trace_csv(trace, tmp_path / "trace.csv")
        rows = _csv_rows(path)[1:]
        for row in rows:
            assert math.isfinite(float(row[1]))
            assert math.isfinite(float(row[2]))


class TestMatrixCsv:
    def test_matrix_csv_roundtrip_exact(self, tmp_path, rng):
        a = rng.standard_normal((4, 4))
        m = a + a.T
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), m)

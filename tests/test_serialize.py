"""Round-trip tests for the directory formats: models, solve results,
sample sets, and propagation traces."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import covdecomp as cd
from covdecomp import (DimensionMismatch, InfoModel, MalformedCsv, PreconditionViolated,
                       SolverConfig)
from covdecomp.serialize import read_matrix_csv, write_matrix_csv


def _csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


class TestModelRoundTrip:
    def test_exact_round_trip(self, chain, tmp_path):
        d = cd.save_model(chain, tmp_path / "model")
        loaded = cd.load_model(d)
        assert np.array_equal(np.asarray(loaded.j_markov), np.asarray(chain.j_markov))
        assert np.array_equal(
            np.asarray(loaded.sigma_residual), np.asarray(chain.sigma_residual)
        )
        assert loaded.lambda_star == chain.lambda_star

    def test_meta_contents(self, chain, tmp_path):
        d = cd.save_model(chain, tmp_path / "model", extra_meta={"kind": "chain"})
        meta = json.loads((d / "meta.json").read_text())
        assert meta["schema_version"] == cd.SCHEMA_VERSION
        assert meta["dim"] == 4
        assert meta["lambda_star"] == chain.lambda_star
        assert meta["kind"] == "chain"
        assert "mean" not in meta

    def test_tampered_model_rejected(self, chain, tmp_path):
        d = cd.save_model(chain, tmp_path / "model")
        rows = _csv_rows(d / "sigma_residual.csv")
        # move residual mass onto a pair that is not clipped in j_markov
        rows[1][2] = rows[2][1] = "0.05"
        rows[0][1] = rows[1][0] = "0.0"
        with (d / "sigma_residual.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(PreconditionViolated, match="validation"):
            cd.load_model(d)

    @staticmethod
    def _legacy_model(chain, path, mean):
        # a model directory as older versions wrote it, with a "mean" key
        d = cd.save_model(chain, path)
        meta = json.loads((d / "meta.json").read_text())
        meta["mean"] = mean
        (d / "meta.json").write_text(json.dumps(meta))
        return d

    def test_legacy_zero_mean_loads(self, chain, tmp_path):
        d = self._legacy_model(chain, tmp_path / "model", [0.0, -0.0, 0, 0.0])
        loaded = cd.load_model(d)
        assert np.array_equal(loaded.j_markov, chain.j_markov)
        assert not hasattr(loaded, "mean")

    @pytest.mark.parametrize("mean", [
        [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0], "0000", None,
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["nonzero", "short", "nan", "string", "null", "nested"])
    def test_legacy_mean_rejected(self, chain, tmp_path, mean):
        d = self._legacy_model(chain, tmp_path / "model", mean)
        with pytest.raises(PreconditionViolated, match="zero-mean") as info:
            cd.load_model(d)
        assert str(d) in str(info.value)


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
        j_hat = read_matrix_csv(d / "j_hat.csv")
        sigma_r = read_matrix_csv(d / "sigma_r.csv")
        assert np.array_equal(np.asarray(j_hat), np.asarray(solved_chain.j_hat))
        assert np.array_equal(np.asarray(sigma_r), np.asarray(solved_chain.sigma_r_hat))

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
        sigma = np.asarray(
            cd.true_covariance(cd.chain_model((0.05, 0.04, 0.03), -0.01))
        )
        res = cd.admm_solve(
            sigma, SolverConfig(gamma=0.0, lambda_off=0.2, max_iter=2)
        )
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

    def test_ragged_matrix_file_rejected(self, solved_chain, tmp_path):
        d = cd.save_result(solved_chain, tmp_path / "result")
        lines = (d / "sigma_r.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        (d / "sigma_r.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedCsv, match=r"sigma_r\.csv: row 2 has 3 cells"):
            read_matrix_csv(d / "sigma_r.csv")


class TestSamplesRoundTrip:
    def test_exact_round_trip(self, chain, tmp_path):
        samples = cd.draw_samples(chain, 50, seed=13)
        d = cd.save_samples(samples, tmp_path / "samples", ["a", "b", "c", "d"])
        columns, loaded = cd.load_samples(d)
        assert np.array_equal(loaded, samples)
        assert columns == ["a", "b", "c", "d"]

    def test_writes_data_csv_only(self, chain, tmp_path):
        d = cd.save_samples(cd.draw_samples(chain, 7, seed=1), tmp_path / "samples")
        assert [f.name for f in d.iterdir()] == ["data.csv"]
        columns, loaded = cd.load_samples(d)
        assert columns == ["x0", "x1", "x2", "x3"]
        assert loaded.shape == (7, 4)

    def test_ragged_data_file_rejected(self, chain, tmp_path):
        d = cd.save_samples(cd.draw_samples(chain, 3, seed=1), tmp_path / "samples")
        with open(d / "data.csv", "a", encoding="utf-8") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(MalformedCsv, match="row 5 has 2 cells"):
            cd.load_samples(d)

    def test_sample_covariance_unchanged(self, chain, tmp_path):
        samples = cd.draw_samples(chain, 200, seed=2)
        d = cd.save_samples(samples, tmp_path / "samples")
        _, loaded = cd.load_samples(d)
        before = np.asarray(cd.sample_covariance(samples))
        after = np.asarray(cd.sample_covariance(loaded))
        assert np.array_equal(before, after)


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
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(np.asarray(back), np.asarray(m))

    def test_matrix_file_symmetrized(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n2.1,1.0\n")
        back = read_matrix_csv(path)
        assert back[0, 1] == back[1, 0] == pytest.approx(2.05)

    def test_non_square_matrix_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(DimensionMismatch, match="square"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell, message", [
        # a matrix file has no header, so data row 1 is file row 2
        ("oops", r"j_markov\.csv: non-numeric cell 'oops' at file row 2, column 3"),
        ("nan", r"j_markov\.csv has a non-finite cell"),
    ])
    def test_bad_cell_named_with_file(self, chain, tmp_path, cell, message):
        d = cd.save_model(chain, tmp_path / "model")
        rows = _csv_rows(d / "j_markov.csv")
        rows[1][2] = cell
        with (d / "j_markov.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(MalformedCsv, match=message):
            cd.load_model(d)

"""Harness tests: config merging, lambda policies, sweep output format
and determinism, graph export, exit codes, and the README's CLI tables."""

import csv
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import covdecomp as cd
from covdecomp.cli import (
    METRIC_FIELDS,
    SWEEP_COLUMNS,
    ExperimentSpec,
    export_graphs,
    main,
    parse_lambda_policy,
    resolve_lambda,
    run_exact_decomposition,
    run_sweep,
    spec_from_config,
)
from covdecomp.errors import PreconditionViolated
from oracles import TIGHT

TIGHT_SOLVER = {"solver": dict(TIGHT)}
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# values that spec_from_config rejects, so that no command starts with them
BAD_CONFIGS = {
    "empty-grid-sizes": {"grid_sizes": []},
    "empty-sample-sizes": {"sample_sizes": []},
    "grid-size-1": {"grid_sizes": [6, 1]},
    "negative-c-gamma": {"c_gamma": [-1.0]},
    "nan-c-gamma": {"c_gamma": [math.nan]},
    "infinite-c-gamma": {"c_gamma": [math.inf]},
    "negative-diag-boost": {"diag_boost": -5.0},
    "nan-diag-boost": {"diag_boost": math.nan},
    "no-lbp-models": {"lbp_models": 0},
    "negative-seed": {"seed": -1},
    "negative-fixed-lambda": {"lambda_policy": "fixed:-1"},
    "nan-fixed-lambda": {"lambda_policy": "fixed:nan"},
    "nan-inflation": {"lambda_policy": "inflated:nan"},
    "negative-inflation": {"lambda_policy": "inflated:-1"},
    "negative-eps-abs": {"solver": {"eps_abs": -1.0}},
    "nan-eps-rel": {"solver": {"eps_rel": math.nan}},
    "zero-max-iter": {"solver": {"max_iter": 0}},
    "empty-data-path": {"data_path": ""},
}


def small_grid_sweep_spec(tmp_path, **overrides):
    # q = 2: p = 4 with one residual pair
    base = dict(
        grid_sizes=[2],
        sample_sizes=[200, 400],
        trials=2,
        seed=5,
        out_dir=str(tmp_path / "out"),
        **TIGHT_SOLVER,
    )
    base.update(overrides)
    return spec_from_config(**base)


class TestSpecFromConfig:
    def test_defaults(self):
        spec = spec_from_config()
        assert spec.grid_sizes == (5,)
        assert spec.sample_sizes == (1000, 2000, 4000)
        assert spec.lambda_policy == "lambda_star"

    def test_config_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [2], "trials": 3, "seed": 9}))
        spec = spec_from_config(cfg, trials=5)
        assert spec.grid_sizes == (2,)
        assert spec.trials == 5
        assert spec.seed == 9

    def test_none_overrides_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        spec = spec_from_config(cfg, seed=None, trials=None)
        assert spec.seed == 4
        assert spec.trials == 1

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_size": [100]}))
        with pytest.raises(ValueError, match="unknown config keys"):
            spec_from_config(cfg)

    def test_unknown_solver_overrides_rejected(self):
        with pytest.raises(ValueError, match="solver overrides"):
            spec_from_config(solver={"epsilon": 1e-9})

    def test_removed_solver_key_rejected(self):
        with pytest.raises(ValueError, match="unknown solver overrides"):
            spec_from_config(solver={"over_relax": 1.0})

    def test_lists_become_tuples(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_sizes": [100, 200], "c_gamma": [2.0]}))
        spec = spec_from_config(cfg)
        assert spec.sample_sizes == (100, 200)
        assert spec.c_gamma == (2.0,)

    def test_non_object_root_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            spec_from_config(cfg)

    @pytest.mark.parametrize(
        "kw",
        [
            {"trials": 0},
            {"threads": 0},
            {"sample_sizes": (0,)},
            {"grid_sizes": (1,)},
            {"lambda_policy": "soft"},
            {"c_gamma": ()},
            {"trials": "3"},
            {"grid_sizes": 5},
            {"sample_sizes": (100.0,)},
            {"trials": True},
            {"lambda_policy": "fixed:x"},
            *BAD_CONFIGS.values(),
        ],
    )
    def test_validation_failures(self, kw):
        with pytest.raises(PreconditionViolated):
            spec_from_config(**kw)


class TestLambdaPolicies:
    def test_parse_forms(self):
        assert parse_lambda_policy("fixed:0.3") == ("fixed", 0.3)
        assert parse_lambda_policy("lambda_star") == ("lambda_star", None)
        assert parse_lambda_policy("inf") == ("inf", None)
        assert parse_lambda_policy("inflated:1.5") == ("inflated", 1.5)

    @pytest.mark.parametrize("text", ["fixed", "inflated", "soft:1", "lambda_star:2",
                                      "near_zero", "fixed:0", "fixed:-1", "fixed:nan",
                                      "inflated:-1", "inflated:inf", "inflated:nan"])
    def test_parse_rejections(self, text):
        with pytest.raises(ValueError):
            parse_lambda_policy(text)

    def test_resolution(self, chain):
        assert resolve_lambda("fixed:0.3", None, 10, 100) == 0.3
        assert resolve_lambda("inf", None, 10, 100) == math.inf
        assert resolve_lambda("lambda_star", chain, 4, 100) == chain.lambda_star
        inflated = resolve_lambda("inflated:2.0", chain, 4, 100)
        assert inflated == pytest.approx(
            chain.lambda_star + 2.0 * math.sqrt(math.log(4) / 100)
        )

    def test_model_dependent_policy_needs_model(self):
        with pytest.raises(ValueError, match="model"):
            resolve_lambda("lambda_star", None, 10, 100)


class TestRunSweep:
    def test_row_count_and_columns(self, tmp_path):
        spec = small_grid_sweep_spec(tmp_path)
        csv_path, summary_path = run_sweep(spec)
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# covdecomp ")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 2 * 2
        assert list(rows[0]) == SWEEP_COLUMNS
        assert all(r["converged"] == "True" for r in rows)
        summary = json.loads(summary_path.read_text())
        assert len(summary["cells"]) == 2
        assert all(c["frac_converged"] == 1.0 for c in summary["cells"])

    def test_rows_sorted_by_p_n_trial(self, tmp_path):
        spec = small_grid_sweep_spec(tmp_path)
        csv_path, _ = run_sweep(spec)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()[1:]))
        keys = [(int(r["p"]), int(r["n"]), int(r["trial"])) for r in rows]
        assert keys == sorted(keys)

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        spec_a = small_grid_sweep_spec(tmp_path / "a")
        spec_b = small_grid_sweep_spec(tmp_path / "b")
        spec_c = small_grid_sweep_spec(tmp_path / "c", threads=3)
        path_a, _ = run_sweep(spec_a)
        path_b, _ = run_sweep(spec_b)
        path_c, _ = run_sweep(spec_c)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_bytes() == path_c.read_bytes()

    def test_infinite_lambda_misses_residual_support(self, tmp_path):
        spec = small_grid_sweep_spec(tmp_path, lambda_policy="inf", trials=1)
        csv_path, _ = run_sweep(spec)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()[1:]))
        # sigma_r is forced to zero, so each row misses the one true pair
        assert all(r["edit_distance_residual"] == "1" for r in rows)
        assert all(r["sign_consistent_r"] == "False" for r in rows)

    def test_grid_cell_layout(self, tmp_path):
        spec = spec_from_config(
            grid_sizes=[2],
            sample_sizes=[400],
            trials=2,
            c_gamma=[2.0],
            seed=3,
            out_dir=str(tmp_path / "out"),
            **TIGHT_SOLVER,
        )
        csv_path, _ = run_sweep(spec)
        rows = list(csv.DictReader(csv_path.read_text().splitlines()[1:]))
        assert len(rows) == 2
        assert all(r["p"] == "4" for r in rows)
        assert {r["trial"] for r in rows} == {"0", "1"}


class TestExactDecomposition:
    def test_small_grid_family_recovers(self, tmp_path):
        spec = spec_from_config(grid_sizes=[2], trials=5, out_dir=str(tmp_path / "out"))
        report = run_exact_decomposition(spec)
        assert report["all_pass"] is True
        assert [i["params"] for i in report["instances"]] == [
            {"q": 2, "trial": t} for t in range(5)]
        assert all(i["error_j"] <= 1e-6 for i in report["instances"])
        assert all(i["error_r"] <= 1e-6 for i in report["instances"])

    def test_oversized_box_cannot_recover_residual(self, tmp_path):
        spec = spec_from_config(
            grid_sizes=[2],
            lambda_policy="fixed:0.5",
            out_dir=str(tmp_path / "out"),
        )
        report = run_exact_decomposition(spec)
        assert report["all_pass"] is False
        inst = report["instances"][0]
        model = cd.grid_model(2, cd.derive_seed(spec.seed, 0, 0))
        # nothing clips, so the extracted residual is empty
        assert inst["error_r"] == pytest.approx(np.abs(model.sigma_residual).max(), abs=1e-6)


@pytest.fixture(scope="module")
def chain_result():
    model = cd.chain_model((0.05, 0.04, 0.03), -0.01)
    sigma = np.asarray(cd.true_covariance(model))
    cfg = cd.SolverConfig(gamma=0.0, lambda_off=model.lambda_star, **TIGHT)
    return cd.admm_solve(sigma, cfg)


class TestExportGraphs:
    def test_edge_lists(self, chain_result):
        names = ["w", "x", "y", "z"]
        graphs = export_graphs(chain_result, names, 1e-6)
        markov_pairs = {(e["source"], e["target"]) for e in graphs["markov"]}
        assert markov_pairs == {("w", "x"), ("x", "y"), ("y", "z")}
        assert [(e["source"], e["target"]) for e in graphs["residual"]] == [("w", "x")]
        assert graphs["residual"][0]["weight"] == pytest.approx(-0.01, abs=1e-6)

    def test_threshold_above_everything(self, chain_result):
        graphs = export_graphs(chain_result, list("abcd"), 100.0)
        assert graphs["markov"] == []
        assert graphs["residual"] == []

    def test_name_count_checked(self, chain_result):
        with pytest.raises(cd.DimensionMismatch):
            export_graphs(chain_result, ["a", "b"], 1e-6)


class TestMainEntry:
    def test_fit_small_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_sizes": [2],
            "sample_sizes": [500],
            "solver": dict(TIGHT),
        }))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((out / "fit" / "diagnostics.json").read_text())
        assert diag["converged"] is True
        assert (out / "fit" / "graphs.json").exists()

    def test_default_grid_sweep_certifies_every_row(self, tmp_path, lapack_route):
        # the default (adaptive) diagonal boost gives ill-conditioned
        # cells; each one must still stop at a certified point
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [10]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 3
        assert all(r["converged"] == "True" for r in rows)

    def test_fit_data_checks_policy_before_parsing(self, tmp_path, caplog):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1.0,oops\n")
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            code = main(["fit", "--data", str(data),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert any("--lambda fixed:V" in m for m in caplog.messages)
        assert not any("oops" in m for m in caplog.messages)

    def test_missing_data_file_fails_cleanly(self, tmp_path):
        code = main([
            "fit", "--data", str(tmp_path / "nope.csv"), "--lambda", "fixed:0.1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_data_path_fails_before_the_synthetic_fit(self, tmp_path, caplog,
                                                            solve_record):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [2], "sample_sizes": [100]}))
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            code = main(["fit", "--config", str(cfg), "--data", "",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert len(caplog.messages) == 1
        assert solve_record == []
        assert not (tmp_path / "out").exists()

    def test_one_row_data_file_fails_cleanly(self, tmp_path, caplog):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n")
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            code = main(["fit", "--data", str(data), "--lambda", "fixed:0.1",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert len(caplog.messages) == 1
        assert "at least 2 rows" in caplog.messages[0]

    def test_bad_config_key_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text", ['{"trials": "3"}', '{"grid_sizes": 5}', '{"trials": 3'],
                             ids=["string-trials", "scalar-grid-sizes", "malformed-json"])
    def test_bad_config_value_fails_cleanly(self, tmp_path, caplog, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(PreconditionViolated):
            spec_from_config(cfg)
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert len(caplog.messages) == 1

    def test_exactdecomp_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [2], "trials": 5}))
        out = tmp_path / "out"
        assert main(["exactdecomp", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "exact_decomposition.json").read_text())
        assert report["all_pass"] is True
        assert len(report["instances"]) == 5
        assert main([
            "exactdecomp", "--config", str(cfg), "--out", str(out),
            "--lambda", "fixed:0.5",
        ]) == 1

    def test_lbp_study_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_sizes": [3],
            "lbp_models": 2,
        }))
        out = tmp_path / "out"
        assert main(["lbp", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "lbp_summary.json").read_text())
        assert len(summary["models"]) == 2
        for entry in summary["models"]:
            assert "walk_summability_markov" in entry
            assert "walk_summability_overall" in entry
            k = entry["model"]
            assert (out / ("trace_markov_%d.csv" % k)).exists()
            assert (out / ("trace_overall_%d.csv" % k)).exists()

    def test_lbp_refuses_a_second_grid_size(self, tmp_path, caplog):
        # a study of q = 3 alone would drop the second size without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [3, 4], "lbp_models": 1}))
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            assert main(["lbp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert len(caplog.messages) == 1
        assert "one grid size" in caplog.messages[0]
        assert not (tmp_path / "out").exists()

    def test_fit_is_the_sweeps_first_cell(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_sizes": [3], "diag_boost": 1.0,
                                   "sample_sizes": [800], **TIGHT_SOLVER}))
        for mode in ("sweep", "fit"):
            assert main([mode, "--config", str(cfg), "--seed", "6",
                         "--out", str(tmp_path / "out")]) == 0
        (row,) = csv.DictReader((tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:])
        diag = json.loads((tmp_path / "out" / "fit" / "diagnostics.json").read_text())
        # a CSV cell is the str of its value, and JSON keeps floats exactly
        assert {k: str(v) for k, v in diag["metrics"].items()} == {
            k: row[k] for k in METRIC_FIELDS}
        assert str(diag["lambda"]) == row["lambda"]
        assert diag["gamma"] == cd.gamma_schedule(float(row["c_gamma"]), 9, 800)

    def test_removed_keys_and_flags_fail_cleanly(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        for key in ("generator", "fresh_models", "support_threshold", "centered", "chain_rho",
                    "residual_value", "clip_fraction", "magnitude_range", "lbp_max_iter",
                    "lbp_tol", "exact_rho1", "exact_tolerance"):
            cfg.write_text(json.dumps({key: 1}))
            caplog.clear()
            with caplog.at_level("ERROR", logger="covdecomp.cli"):
                assert main(["sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 2
            assert len(caplog.messages) == 1
        for flag in ("--cgamma", "--trials"):
            caplog.clear()
            with caplog.at_level("ERROR", logger="covdecomp.cli"):
                assert main(["sweep", flag, "3"]) == 2
            assert len(caplog.messages) == 1
            assert flag in caplog.messages[0]
        # a removed subcommand fails the same way
        for mode in ("ingest", "generate"):
            caplog.clear()
            with caplog.at_level("ERROR", logger="covdecomp.cli"):
                assert main([mode, "--out", str(tmp_path / "out")]) == 2
            assert len(caplog.messages) == 1
            assert mode in caplog.messages[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["fit", "sweep", "lbp", "exactdecomp"])
    @pytest.mark.parametrize("config", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_value_stops_every_command_before_it_runs(self, tmp_path, caplog,
                                                          solve_record, mode, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert len(caplog.messages) == 1
        assert solve_record == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["sweep", "--seed", "x"]],
                             ids=["no-subcommand", "unknown-subcommand", "bad-int"])
    def test_usage_errors_log_one_line(self, argv, caplog, capsys):
        with caplog.at_level("ERROR", logger="covdecomp.cli"):
            assert main(argv) == 2
        assert len(caplog.messages) == 1
        assert "usage:" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["lbp", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out


class TestReadme:
    def test_config_table_lists_the_spec_fields(self):
        section = README.split("### Configuration file")[1].split("###")[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert sorted(keys) == sorted(f.name for f in fields(ExperimentSpec))

    def test_command_table_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        (choices,) = re.findall(r"\{([\w,]+)\}", capsys.readouterr().out.split("\n\n")[0])
        section = README.split("## Command line")[1].split("###")[0]
        modes = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
        assert sorted(modes) == sorted(choices.split(","))

    def test_usage_lists_the_parser_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        synopsis = README.split("## Command line")[1].split("```")[1]

        def options(text):
            return re.findall(r"\[(-[^\]]+)\]", text)

        assert options(synopsis) == [o for o in options(usage) if o != "-h"]

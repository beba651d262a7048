"""Experiment harness: single fits (of a generated model or of a data
CSV), sample-complexity sweeps, propagation studies, and exact-recovery
reports.

Everything is driven by an ExperimentSpec, built from defaults, an
optional JSON config file, and command-line overrides (in that order).
Sweep cells get independently derived seeds, so results are identical
for any --threads value; rows are sorted by (p, n, trial) at flush.
"""

import argparse
import csv
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CovdecompError, DimensionMismatch, PreconditionViolated
from .inference import _with_moments, lbp_run, walk_summability
from .metrics import DEFAULT_SUPPORT_THRESHOLD, MetricsRecord, compare_to_truth, support_of
from .model import DiagBoostPolicy, grid_model, true_covariance
from .sampling import (
    derive_seed,
    draw_sample_covariance,
    gamma_schedule,
    sample_covariance_centered,
)
from .serialize import (
    SCHEMA_VERSION,
    read_csv_table,
    save_result,
    write_json,
    write_trace_csv,
)
from .solver import SolverConfig, admm_solve
from .symmat import checked_number

logger = logging.getLogger(__name__)

LAMBDA_POLICIES = ("fixed", "lambda_star", "inf", "inflated")
# exactdecomp's pass level
EXACT_TOLERANCE = 1e-6
# belief propagation cap and stop level in the lbp study
LBP_MAX_ITER = 1000
LBP_TOL = 1e-10

METRIC_FIELDS = [f.name for f in fields(MetricsRecord)]
# the per-cell columns that sweep_summary.json averages over trials
_AVERAGED = METRIC_FIELDS + ["iterations", "converged"]
SWEEP_COLUMNS = ["p", "n", "n_over_logp", "trial", "c_gamma", "lambda"] + _AVERAGED

# settable through the config's "solver" object; the harness picks
# gamma and lambda_off per cell
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)} - {"gamma", "lambda_off"}
# the least value of an integer field of ExperimentSpec, or of each of its items
_LEAST = {"grid_sizes": 2, "sample_sizes": 1, "trials": 1, "threads": 1, "lbp_models": 1}


@dataclass
class ExperimentSpec:
    """Declarative description of one harness invocation."""

    grid_sizes: tuple = (5,)
    diag_boost: float = None
    sample_sizes: tuple = (1000, 2000, 4000)
    c_gamma: tuple = (2.08,)
    lambda_policy: str = "lambda_star"
    trials: int = 1
    seed: int = 0
    threads: int = 1
    solver: dict = field(default_factory=dict)
    out_dir: str = "out"
    data_path: str = None
    lbp_models: int = 5

    def validate(self):
        # every bad value fails here, before a command starts; NaN fails each test
        for f in fields(self):
            value = getattr(self, f.name)
            _check_type(f, value)
            items = value if f.type is tuple else [value]
            if not items:
                raise PreconditionViolated("%s must be a nonempty list" % f.name)
            if f.name in _LEAST and min(items) < _LEAST[f.name]:
                raise PreconditionViolated("%s must be >= %d" % (f.name, _LEAST[f.name]))
            if f.name == "c_gamma" and not all(0 < v < math.inf for v in items):
                raise PreconditionViolated("c_gamma must be finite and > 0")
        derive_seed(self.seed)
        DiagBoostPolicy(fixed=self.diag_boost)
        if self.data_path == "":
            raise PreconditionViolated("data_path must name a file")
        parse_lambda_policy(self.lambda_policy)
        unknown = set(self.solver) - _SOLVER_KEYS
        if unknown:
            raise PreconditionViolated("unknown solver overrides: %s" % sorted(unknown))
        _solver_config(self, 0.0, math.inf)
        return self


def _check_type(f, value):
    # value fits field f of ExperimentSpec: of its default's type (a float
    # field takes an int, no field a bool), a list or tuple of such
    # values for a tuple field, or None for a field whose default is None
    if value is None and f.default is None:
        return
    if f.type is tuple:
        if not isinstance(value, (list, tuple)):
            raise PreconditionViolated("%s must be a list, got %r" % (f.name, value))
        kind, items, name = type(f.default[0]), value, "each item of " + f.name
    else:
        kind, items, name = f.type, [value], f.name
    for v in items:
        if kind in (int, float):
            checked_number(v, name, integer=kind is int)
        elif not isinstance(v, kind):
            raise PreconditionViolated("%s must be a %s, got %r" % (name, kind.__name__, v))


def spec_from_config(path=None, **overrides):
    """Merge defaults, the JSON config (if any), and keyword overrides.

    Raises ``PreconditionViolated`` for a config that is not a JSON object,
    an unknown key or a value of the wrong type or range.
    """
    payload = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PreconditionViolated("%s is not JSON: %s" % (path, exc)) from None
        if not isinstance(payload, dict):
            raise PreconditionViolated("config root must be a JSON object")
    payload.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = set(payload) - known
    if unknown:
        raise PreconditionViolated("unknown config keys: %s" % sorted(unknown))
    payload = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
    return ExperimentSpec(**payload).validate()


def parse_lambda_policy(text):
    """Parse 'fixed:V' (V > 0), 'lambda_star', 'inf', 'inflated:C' (0 <= C < inf)."""
    name, _, arg = str(text).partition(":")
    if name not in LAMBDA_POLICIES:
        raise PreconditionViolated(
            "unknown lambda policy %r (expected one of %s)" % (text, LAMBDA_POLICIES)
        )
    if name in ("fixed", "inflated"):
        try:
            value = float(arg)
        except ValueError:
            raise PreconditionViolated(
                "policy %r needs a number, e.g. '%s:0.2'" % (name, name)) from None
        if name == "fixed" and not value > 0:
            raise PreconditionViolated("%r needs V > 0" % text)
        if name == "inflated" and not 0 <= value < math.inf:
            raise PreconditionViolated("%r needs a finite C >= 0" % text)
        return name, value
    if arg:
        raise PreconditionViolated("policy %r takes no value" % name)
    return name, None


def _require_model_free(name):
    if name in ("lambda_star", "inflated"):
        raise PreconditionViolated(
            "policy %r needs a generated model; to fit data, set the box "
            "with --lambda fixed:V" % name
        )


def resolve_lambda(policy, model, p, n):
    """Concrete box bound for one sweep cell."""
    name, value = parse_lambda_policy(policy)
    if model is None:
        _require_model_free(name)
    if name == "fixed":
        return value
    if name == "inf":
        return math.inf
    if name == "lambda_star":
        return model.lambda_star
    return model.lambda_star + value * math.sqrt(math.log(p) / n)


def _solver_config(spec, gamma, lam):
    return SolverConfig(gamma=gamma, lambda_off=lam, **spec.solver)


def _build_model(spec, q, model_seed):
    return grid_model(q, model_seed, diag_boost_policy=DiagBoostPolicy(fixed=spec.diag_boost))


def _nan_metrics():
    # the metrics of a failed solve: counts -1, sign checks failed, errors NaN
    return {f.name: {int: -1, bool: False}.get(f.type, math.nan)
            for f in fields(MetricsRecord)}


def _solve_cell(spec, model, q_index, trial, n, warm=None):
    """Draw the sample covariance of sweep cell (q_index, trial) at n
    samples, then solve and score it.

    Returns (row, gamma, result): the cell's sweep.csv row, its penalty
    level and its solve, or None if the solve raised, when the row holds
    NaN metrics. A bad gamma, lambda or solver config raises before the
    solve instead, and so aborts the run.
    """
    p = model.dim
    cg = spec.c_gamma[q_index] if q_index < len(spec.c_gamma) else spec.c_gamma[0]
    sigma_hat = draw_sample_covariance(
        model, n, derive_seed(spec.seed, q_index, trial, n, 1))
    gamma = gamma_schedule(cg, p, n)
    lam = resolve_lambda(spec.lambda_policy, model, p, n)
    cfg = _solver_config(spec, gamma, lam)
    row = {"p": p, "n": n, "n_over_logp": n / math.log(p), "trial": trial,
           "c_gamma": cg, "lambda": lam}
    try:
        result = admm_solve(sigma_hat, cfg, warm_start=warm)
        row.update(compare_to_truth(result, model, DEFAULT_SUPPORT_THRESHOLD).as_dict(),
                   iterations=result.iterations, converged=result.converged)
    except CovdecompError as exc:
        logger.error("p=%d n=%d trial=%d failed: %s", p, n, trial, exc)
        result = None
        row.update(_nan_metrics(), iterations=0, converged=False)
    return row, gamma, result


def _sweep_task(spec, q_index, q, trial):
    model = _build_model(spec, q, derive_seed(spec.seed, q_index, trial))
    rows, warm = [], None
    for n in sorted(spec.sample_sizes):
        row, _, warm = _solve_cell(spec, model, q_index, trial, n, warm)
        rows.append(row)
    return rows


def run_sweep(spec):
    """Execute the sweep grid; returns (csv_path, summary_path).

    One CSV row per (p, n, trial) cell, a version header line on top,
    and a JSON summary of per-(p, n) averages alongside.
    """
    from . import __version__

    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(qi, q, trial) for qi, q in enumerate(spec.grid_sizes) for trial in range(spec.trials)]
    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            chunks = list(pool.map(lambda t: _sweep_task(spec, *t), tasks))
    else:
        chunks = [_sweep_task(spec, *t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["p"], r["n"], r["trial"]))

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# covdecomp %s\n" % __version__)
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary = {"schema_version": SCHEMA_VERSION, "package_version": __version__,
               "cells": []}
    for key in sorted({(r["p"], r["n"]) for r in rows}):
        group = [r for r in rows if (r["p"], r["n"]) == key]
        cell = {"p": key[0], "n": key[1], "n_over_logp": key[1] / math.log(key[0]),
                "trials": len(group)}
        for name in _AVERAGED:
            values = [r[name] for r in group]
            # a flag's mean is the fraction of trials that raise it
            kind = "frac_" if isinstance(values[0], bool) else "mean_"
            cell[kind + name] = float(np.mean(values))
        summary["cells"].append(cell)
    summary_path = out / "sweep_summary.json"
    write_json(summary_path, summary)
    return csv_path, summary_path


def run_exact_decomposition(spec):
    """Solve desk-scale instances at exact statistics and report errors.

    Uses the population covariance, gamma = 0, and the configured lambda
    policy (default the model's own bound); each instance reports
    max-norm errors of both components against the ground truth and a
    pass/fail at ``EXACT_TOLERANCE``.
    """
    solver = dict(spec.solver)
    solver.setdefault("eps_abs", 1e-10)
    solver.setdefault("eps_rel", 1e-9)
    instances = []
    for qi, q in enumerate(spec.grid_sizes):
        for trial in range(spec.trials):
            model = _build_model(spec, q, derive_seed(spec.seed, qi, trial))
            sigma_star = true_covariance(model)
            p = sigma_star.shape[0]
            lam = resolve_lambda(spec.lambda_policy, model, p, max(spec.sample_sizes))
            cfg = SolverConfig(gamma=0.0, lambda_off=lam, **solver)
            result = admm_solve(sigma_star, cfg)
            err_j = float(np.abs(result.j_hat - model.j_markov).max())
            err_r = float(np.abs(result.sigma_r_hat - model.sigma_residual).max())
            instances.append({
                "params": {"q": q, "trial": trial}, "p": p, "lambda": lam,
                "error_j": err_j, "error_r": err_r,
                "iterations": result.iterations, "converged": result.converged,
                "passed": bool(err_j <= EXACT_TOLERANCE and err_r <= EXACT_TOLERANCE),
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "tolerance": EXACT_TOLERANCE,
        "instances": instances,
        "all_pass": all(i["passed"] for i in instances),
    }


def export_graphs(result, names, threshold):
    """Edge lists of the estimated Markov and residual graphs."""
    p = result.j_hat.shape[0]
    if len(names) != p:
        raise DimensionMismatch(
            "got %d names for a %d-variable result" % (len(names), p)
        )

    def edges(a):
        out = []
        for i, j in zip(*np.nonzero(support_of(a, threshold))):
            out.append({"source": names[i], "target": names[j],
                        "weight": float(a[i, j])})
        return out

    return {
        "schema_version": SCHEMA_VERSION,
        "threshold": threshold,
        "markov": edges(result.j_hat),
        "residual": edges(result.sigma_r_hat),
    }


def _cmd_fit(spec):
    out = Path(spec.out_dir)
    if spec.data_path:
        # check the policy before the costliest step, parsing the data
        _require_model_free(parse_lambda_policy(spec.lambda_policy)[0])
        names, data = read_csv_table(spec.data_path)
        n, p = data.shape
        gamma = gamma_schedule(spec.c_gamma[0], p, n)
        lam = resolve_lambda(spec.lambda_policy, None, p, n)
        result = admm_solve(sample_covariance_centered(data),
                            _solver_config(spec, gamma, lam))
        extra = {"gamma": gamma, "lambda": lam, "n": n, "p": p}
    else:
        # the sweep's first cell at its largest sample size
        model = _build_model(spec, spec.grid_sizes[0], derive_seed(spec.seed, 0, 0))
        n, p = max(spec.sample_sizes), model.dim
        row, gamma, result = _solve_cell(spec, model, 0, 0, n)
        if result is None:
            return 2
        names = ["x%d" % k for k in range(p)]
        extra = {"gamma": gamma, "lambda": row["lambda"], "n": n, "p": p,
                 "metrics": {k: row[k] for k in METRIC_FIELDS}}
    save_result(result, out / "fit", extra_diagnostics=extra)
    write_json(out / "fit" / "graphs.json",
                export_graphs(result, names, DEFAULT_SUPPORT_THRESHOLD))
    logger.info(
        "fit written to %s (iterations=%d, converged=%s, gap=%.3g)",
        out / "fit", result.iterations, result.converged, result.duality_gap,
    )
    return 0


def _cmd_sweep(spec):
    csv_path, summary_path = run_sweep(spec)
    logger.info("sweep written to %s and %s", csv_path, summary_path)
    return 0


def _cmd_lbp(spec):
    if len(spec.grid_sizes) > 1:
        raise PreconditionViolated("lbp studies one grid size, got %d" % len(spec.grid_sizes))
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = []
    for k in range(spec.lbp_models):
        model = _build_model(spec, spec.grid_sizes[0], derive_seed(spec.seed, k))
        h = np.random.default_rng(derive_seed(spec.seed, k, 1)).standard_normal(model.dim)
        entry = {"model": k, "p": model.dim}
        # exact moments off the overall covariance Sigma: J_M^-1 = Sigma +
        # Sigma_R, whose zero diagonal leaves both models the variances diag(Sigma)
        sigma, _, precision = model._overall
        mean, var = sigma @ h, sigma.diagonal().copy()
        for tag, j, mu in (("markov", model.j_markov, mean + model.sigma_residual @ h),
                           ("overall", precision, mean)):
            trace = lbp_run(_with_moments(j, h, mu, var), LBP_MAX_ITER, LBP_TOL)
            write_trace_csv(trace, out / ("trace_%s_%d.csv" % (tag, k)))
            entry["walk_summability_" + tag] = walk_summability(j)
            entry["converged_" + tag] = trace.converged
            entry["iterations_" + tag] = trace.iterations_run
            entry["final_mean_error_" + tag] = (
                float(trace.mean_errors[-1]) if trace.iterations_run else None)
        report.append(entry)
    write_json(out / "lbp_summary.json",
                {"schema_version": SCHEMA_VERSION, "models": report})
    logger.info("propagation study written to %s", out / "lbp_summary.json")
    return 0


def _cmd_exactdecomp(spec):
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_exact_decomposition(spec)
    write_json(out / "exact_decomposition.json", report)
    status = "pass" if report["all_pass"] else "FAIL"
    logger.info("exact decomposition: %s (%d instances, tolerance %g)",
                status, len(report["instances"]), report["tolerance"])
    return 0 if report["all_pass"] else 1


_COMMANDS = {
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "lbp": _cmd_lbp,
    "exactdecomp": _cmd_exactdecomp,
}


class _Parser(argparse.ArgumentParser):
    # a usage error raises, so that main logs it on one line and returns 2
    def error(self, message):
        raise PreconditionViolated("%s: %s (see %s --help)" % (self.prog, message, self.prog))


def build_parser():
    from . import __version__

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="JSON config file (schema in README)")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--seed", type=int, metavar="N", help="base seed")
    shared.add_argument("--threads", type=int, metavar="N",
                        help="worker threads for sweep cells")
    shared.add_argument("--lambda", dest="lambda_policy", metavar="POLICY",
                        help="fixed:V | lambda_star | inf | inflated:C")
    shared.add_argument("--data", dest="data_path", metavar="PATH",
                        help="input CSV with a header row (fit)")
    shared.add_argument("-v", "--verbose", action="store_true")

    parser = _Parser(
        prog="covdecomp",
        description="Sparse Markov-plus-residual covariance decomposition "
                    "experiment harness",
    )
    parser.add_argument("--version", action="version",
                        version="covdecomp %s" % __version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "fit": "solve one instance (synthetic, or a CSV via --data)",
        "sweep": "run a (p, n, trial) sweep and emit CSV + summary",
        "lbp": "belief propagation study on generated models",
        "exactdecomp": "exact-statistics recovery report",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[shared], help=helps[name])
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        spec = spec_from_config(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            lambda_policy=args.lambda_policy,
            data_path=args.data_path,
        )
        return _COMMANDS[args.mode](spec)
    except (CovdecompError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

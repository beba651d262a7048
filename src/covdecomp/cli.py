"""Experiment harness: model generation, single fits, sample-complexity
sweeps, propagation studies, CSV ingestion, and exact-recovery reports.

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
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CovdecompError, DimensionMismatch, PreconditionViolated
from .inference import InfoModel, lbp_run, walk_summability
from .metrics import DEFAULT_SUPPORT_THRESHOLD, MetricsRecord, compare_to_truth, support_of
from .model import DiagBoostPolicy, chain_model, grid_model, true_covariance
from .sampling import (
    SampleSet,
    derive_seed,
    draw_samples,
    gamma_schedule,
    sample_covariance,
    sample_covariance_centered,
)
from .serialize import (
    SCHEMA_VERSION,
    read_csv_table,
    save_model,
    save_result,
    save_samples,
    write_json,
    write_trace_csv,
)
from .solver import SolverConfig, admm_solve

logger = logging.getLogger(__name__)

LAMBDA_POLICIES = ("fixed", "lambda_star", "inf", "near_zero", "inflated")
NEAR_ZERO_LAMBDA = 1e-6

METRIC_FIELDS = [f.name for f in fields(MetricsRecord)]
SWEEP_COLUMNS = (
    ["p", "n", "n_over_logp", "trial", "c_gamma", "lambda"]
    + METRIC_FIELDS
    + ["iterations", "converged"]
)

# settable through the config's "solver" object; the harness picks
# gamma and lambda_off per cell
_SOLVER_KEYS = tuple(
    f.name for f in fields(SolverConfig) if f.name not in ("gamma", "lambda_off")
)


@dataclass
class ExperimentSpec:
    """Declarative description of one harness invocation."""

    mode: str = "sweep"
    generator: str = "grid"
    grid_sizes: tuple = (5,)
    chain_rho: tuple = (0.05, 0.04, 0.03)
    residual_value: float = 0.01
    clip_fraction: float = 0.2
    magnitude_range: tuple = (0.15, 0.2)
    diag_boost: float = None
    sample_sizes: tuple = (1000, 2000, 4000)
    c_gamma: tuple = (2.08,)
    lambda_policy: str = "lambda_star"
    trials: int = 1
    seed: int = 0
    threads: int = 1
    fresh_models: bool = False
    support_threshold: float = DEFAULT_SUPPORT_THRESHOLD
    solver: dict = field(default_factory=dict)
    out_dir: str = "out"
    data_path: str = None
    centered: bool = True
    lbp_models: int = 5
    lbp_max_iter: int = 1000
    lbp_tol: float = 1e-10
    exact_rho1: tuple = (0.02, 0.03, 0.04, 0.05, 0.06)
    exact_tolerance: float = 1e-6

    def validate(self):
        for f in fields(self):
            _check_type(f, getattr(self, f.name))
        if self.trials < 1:
            raise PreconditionViolated("trials must be >= 1")
        if any(n < 1 for n in self.sample_sizes):
            raise PreconditionViolated("sample sizes must be >= 1")
        if self.threads < 1:
            raise PreconditionViolated("threads must be >= 1")
        if self.generator not in ("grid", "chain"):
            raise PreconditionViolated("generator must be 'grid' or 'chain'")
        parse_lambda_policy(self.lambda_policy)
        if not self.c_gamma:
            raise PreconditionViolated("c_gamma list must be nonempty")
        unknown = set(self.solver) - set(_SOLVER_KEYS)
        if unknown:
            raise PreconditionViolated("unknown solver overrides: %s" % sorted(unknown))
        return self

    def boost_policy(self):
        if self.diag_boost is None:
            return DiagBoostPolicy()
        return DiagBoostPolicy(fixed=float(self.diag_boost))


def _check_type(f, value):
    # value fits field f of ExperimentSpec: of its default's type (a float
    # field takes an int, no number field a bool), a list or tuple of such
    # values for a tuple field, or None for a field whose default is None
    if value is None and f.default is None:
        return
    if f.type is tuple:
        if not isinstance(value, (list, tuple)):
            raise PreconditionViolated("%s must be a list, got %r" % (f.name, value))
        kind, items, what = type(f.default[0]), value, "a list of %s"
    else:
        kind, items, what = f.type, [value], "%s"
    abstract = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    for v in items:
        if not isinstance(v, abstract) or isinstance(v, bool) and kind is not bool:
            raise PreconditionViolated(
                "%s must be %s, got %r" % (f.name, what % kind.__name__, value))


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
    """Parse 'fixed:V', 'lambda_star', 'inf', 'near_zero', 'inflated:C'."""
    name, _, arg = str(text).partition(":")
    if name not in LAMBDA_POLICIES:
        raise PreconditionViolated(
            "unknown lambda policy %r (expected one of %s)" % (text, LAMBDA_POLICIES)
        )
    if name in ("fixed", "inflated"):
        try:
            return name, float(arg)
        except ValueError:
            raise PreconditionViolated(
                "policy %r needs a number, e.g. '%s:0.2'" % (name, name)) from None
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
    if name == "near_zero":
        return NEAR_ZERO_LAMBDA
    if name == "lambda_star":
        return model.lambda_star
    return model.lambda_star + value * math.sqrt(math.log(p) / n)


def _solver_config(spec, gamma, lam):
    return SolverConfig(gamma=gamma, lambda_off=lam, **spec.solver)


def _build_model(spec, q, model_seed):
    if spec.generator == "chain":
        # the chain precision entry J[0,1] has sign -sign(rho1); the config
        # supplies a magnitude and the harness matches the required sign
        value = math.copysign(spec.residual_value, -spec.chain_rho[0])
        return chain_model(spec.chain_rho, value)
    return grid_model(
        q, model_seed, clip_fraction=spec.clip_fraction,
        magnitude_range=spec.magnitude_range,
        diag_boost_policy=spec.boost_policy(),
    )


def _nan_metrics():
    return MetricsRecord(
        edit_distance_markov=-1, edit_distance_residual=-1,
        normalized_edit_markov=float("nan"), normalized_edit_residual=float("nan"),
        linf_error_j=float("nan"), linf_error_r=float("nan"),
        linf_error_precision_overall=float("nan"),
        spectral_error_sigma=float("nan"),
        sign_consistent_r=False, sign_consistent_j=False,
    )


def _sweep_task(spec, q_index, q, trial):
    if spec.generator == "chain":
        p = len(spec.chain_rho) + 1
    else:
        p = q * q
    cg = spec.c_gamma[q_index] if q_index < len(spec.c_gamma) else spec.c_gamma[0]
    rows = []
    model = None
    warm = None
    if not spec.fresh_models:
        model = _build_model(spec, q, derive_seed(spec.seed, q_index, trial))
    for n in sorted(spec.sample_sizes):
        if spec.fresh_models:
            model = _build_model(spec, q, derive_seed(spec.seed, q_index, trial, n))
            warm = None
        samples = draw_samples(model, n, derive_seed(spec.seed, q_index, trial, n, 1))
        sigma_hat = sample_covariance(samples.data)
        gamma = gamma_schedule(cg, p, n)
        lam = resolve_lambda(spec.lambda_policy, model, p, n)
        cfg = _solver_config(spec, gamma, lam)
        row = {
            "p": p, "n": n, "n_over_logp": n / math.log(p), "trial": trial,
            "c_gamma": cg, "lambda": lam,
        }
        try:
            result = admm_solve(sigma_hat, cfg, warm_start=warm)
            warm = result
            record = compare_to_truth(result, model, spec.support_threshold)
            row.update(record.as_dict())
            row.update(iterations=result.iterations, converged=result.converged)
        except CovdecompError as exc:
            logger.error("p=%d n=%d trial=%d failed: %s", p, n, trial, exc)
            warm = None
            row.update(_nan_metrics().as_dict())
            row.update(iterations=0, converged=False)
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
    sizes = spec.grid_sizes if spec.generator == "grid" else (0,)
    tasks = [
        (qi, q, trial)
        for qi, q in enumerate(sizes)
        for trial in range(spec.trials)
    ]
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
    numeric = [f for f in METRIC_FIELDS if not f.startswith("sign_")]
    for key in sorted({(r["p"], r["n"]) for r in rows}):
        group = [r for r in rows if (r["p"], r["n"]) == key]
        cell = {"p": key[0], "n": key[1], "n_over_logp": key[1] / math.log(key[0]),
                "trials": len(group)}
        for name in numeric:
            cell["mean_" + name] = float(np.mean([r[name] for r in group]))
        cell["frac_sign_consistent_r"] = float(
            np.mean([r["sign_consistent_r"] for r in group]))
        cell["frac_sign_consistent_j"] = float(
            np.mean([r["sign_consistent_j"] for r in group]))
        cell["mean_iterations"] = float(np.mean([r["iterations"] for r in group]))
        cell["frac_converged"] = float(np.mean([r["converged"] for r in group]))
        summary["cells"].append(cell)
    summary_path = out / "sweep_summary.json"
    write_json(summary_path, summary)
    return csv_path, summary_path


def run_exact_decomposition(spec):
    """Solve desk-scale instances at exact statistics and report errors.

    Uses the population covariance, gamma = 0, and the configured lambda
    policy (default the model's own bound); each instance reports
    max-norm errors of both components against the ground truth and a
    pass/fail at ``spec.exact_tolerance``.
    """
    solver = dict(spec.solver)
    solver.setdefault("eps_abs", 1e-10)
    solver.setdefault("eps_rel", 1e-9)
    instances = []
    if spec.generator == "chain":
        cases = [("chain", {"rho1": r1}, chain_model(
            (r1, 0.8 * r1, 0.6 * r1),
            math.copysign(spec.residual_value, -r1)))
            for r1 in spec.exact_rho1]
    else:
        cases = []
        for qi, q in enumerate(spec.grid_sizes):
            for trial in range(spec.trials):
                m = _build_model(spec, q, derive_seed(spec.seed, qi, trial))
                cases.append(("grid", {"q": q, "trial": trial}, m))
    for name, params, model in cases:
        sigma_star = true_covariance(model)
        p = sigma_star.shape[0]
        lam = resolve_lambda(spec.lambda_policy, model, p, max(spec.sample_sizes))
        cfg = SolverConfig(gamma=0.0, lambda_off=lam, **solver)
        result = admm_solve(sigma_star, cfg)
        err_j = float(np.abs(result.j_hat - model.j_markov).max())
        err_r = float(np.abs(result.sigma_r_hat - model.sigma_residual).max())
        instances.append({
            "generator": name, "params": params, "p": p, "lambda": lam,
            "error_j": err_j, "error_r": err_r,
            "iterations": result.iterations, "converged": result.converged,
            "passed": bool(err_j <= spec.exact_tolerance
                           and err_r <= spec.exact_tolerance),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "tolerance": spec.exact_tolerance,
        "instances": instances,
        "all_pass": all(i["passed"] for i in instances),
    }


def ingest_csv(path, centered=True):
    """Load a rectangular numeric CSV with a header row into a SampleSet."""
    header, data = read_csv_table(path)
    logger.info("ingested %s: n=%d, p=%d, columns=%s",
                path, data.shape[0], data.shape[1], header)
    return SampleSet(
        data=data, seed=None,
        model_meta={"kind": "ingested", "path": str(path), "columns": header,
                    "centered": bool(centered)},
    )


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


def _cmd_generate(spec):
    out = Path(spec.out_dir)
    model = _build_model(spec, spec.grid_sizes[0], derive_seed(spec.seed, 0, 0))
    meta = {"generator": spec.generator, "seed": spec.seed}
    if spec.generator == "grid":
        meta.update(q=spec.grid_sizes[0], clip_fraction=spec.clip_fraction,
                    magnitude_range=list(spec.magnitude_range))
    else:
        meta.update(rho=list(spec.chain_rho), residual_value=spec.residual_value)
    path = save_model(model, out / "model", extra_meta=meta)
    logger.info("model written to %s (p=%d, lambda_star=%g)",
                path, model.dim, model.lambda_star)
    return 0


def _cmd_fit(spec):
    out = Path(spec.out_dir)
    model = None
    names = None
    if spec.data_path:
        # check the policy before the costliest step, parsing the data
        _require_model_free(parse_lambda_policy(spec.lambda_policy)[0])
        samples = ingest_csv(spec.data_path, centered=spec.centered)
        names = samples.model_meta["columns"]
        cov = sample_covariance_centered if spec.centered else sample_covariance
        sigma_hat = cov(samples.data)
        n, p = samples.n, samples.p
    else:
        q = spec.grid_sizes[0]
        model = _build_model(spec, q, derive_seed(spec.seed, 0, 0))
        n = max(spec.sample_sizes)
        samples = draw_samples(model, n, derive_seed(spec.seed, 0, 0, n, 1))
        sigma_hat = sample_covariance(samples.data)
        p = samples.p
        names = ["x%d" % k for k in range(p)]
    gamma = gamma_schedule(spec.c_gamma[0], p, n)
    lam = resolve_lambda(spec.lambda_policy, model, p, n)
    cfg = _solver_config(spec, gamma, lam)
    result = admm_solve(sigma_hat, cfg)
    extra = {"gamma": gamma, "lambda": lam, "n": n, "p": p}
    if model is not None:
        extra["metrics"] = compare_to_truth(
            result, model, spec.support_threshold).as_dict()
    save_result(result, out / "fit", extra_diagnostics=extra)
    write_json(out / "fit" / "graphs.json",
                export_graphs(result, names, spec.support_threshold))
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
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    q = spec.grid_sizes[0]
    report = []
    for k in range(spec.lbp_models):
        model = _build_model(spec, q, derive_seed(spec.seed, k))
        p = model.dim
        h = np.random.default_rng(derive_seed(spec.seed, k, 1)).standard_normal(p)
        entry = {"model": k, "p": p}
        for tag, j in (("markov", model.j_markov), ("overall", model._overall[2])):
            info = InfoModel(j=j, h=h)
            trace = lbp_run(info, spec.lbp_max_iter, spec.lbp_tol)
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


def _cmd_ingest(spec):
    if not spec.data_path:
        raise PreconditionViolated("ingest needs --data PATH")
    out = Path(spec.out_dir)
    samples = ingest_csv(spec.data_path, centered=spec.centered)
    save_samples(samples, out / "samples")
    write_json(out / "dataset_summary.json", {
        "schema_version": SCHEMA_VERSION,
        "n": samples.n, "p": samples.p,
        "columns": samples.model_meta["columns"],
        "centered": spec.centered,
    })
    logger.info("dataset written to %s (n=%d, p=%d)",
                out / "samples", samples.n, samples.p)
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
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "lbp": _cmd_lbp,
    "ingest": _cmd_ingest,
    "exactdecomp": _cmd_exactdecomp,
}


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


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
                        help="fixed:V | lambda_star | inf | near_zero | inflated:C")
    shared.add_argument("--cgamma", type=_float_list, metavar="LIST",
                        help="comma-separated c_gamma values, one per grid size")
    shared.add_argument("--data", dest="data_path", metavar="PATH",
                        help="input CSV (fit/ingest)")
    shared.add_argument("--trials", type=int, metavar="N")
    shared.add_argument("-v", "--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="covdecomp",
        description="Sparse Markov-plus-residual covariance decomposition "
                    "experiment harness",
    )
    parser.add_argument("--version", action="version",
                        version="covdecomp %s" % __version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "generate": "generate and store a synthetic ground-truth model",
        "fit": "solve one instance (synthetic or ingested CSV)",
        "sweep": "run a (p, n, trial) sweep and emit CSV + summary",
        "lbp": "belief propagation study on generated models",
        "ingest": "validate and store a raw data CSV",
        "exactdecomp": "exact-statistics recovery report",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[shared], help=helps[name])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        spec = spec_from_config(
            args.config,
            mode=args.mode,
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            lambda_policy=args.lambda_policy,
            c_gamma=args.cgamma,
            data_path=args.data_path,
            trials=args.trials,
        )
        return _COMMANDS[spec.mode](spec)
    except (CovdecompError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

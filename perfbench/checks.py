"""Output checks for the benchmark's workloads.

Each checker compares a job's outputs against computations made here,
apart from the program, or tests properties the method must have; none
compares against a stored copy of earlier output. A checker raises
``CheckFailed`` naming the first violated condition. Only numpy and the
standard library are used, so a fault in ``covdecomp`` cannot hide
itself by also breaking the check.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

# ground-truth recovery tolerance of the exact-statistics protocol
EXACT_TOLERANCE = 1e-6
# Gaussian belief propagation means are exact at a fixed point
LBP_MEAN_ERROR_LIMIT = 1e-8
# relative agreement required between a reported walk-summability value
# and the one recomputed here (the two differ only by rounding)
WALK_SUMMABILITY_RTOL = 1e-9


class CheckFailed(Exception):
    """A job's outputs violate a property the method must have."""


def _require(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


def check_sweep(csv_path, sizes, dims):
    """Check a ``covdecomp sweep`` CSV for one trial per (p, n) cell.

    Every row converged, rows are sorted by (p, n), ``n_over_logp``
    equals n / ln p, and for each p the normalized edit distances of both
    components at the largest n fall below those at the smallest n.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    keys = [(int(r["p"]), int(r["n"])) for r in rows]
    expected = [(p, n) for p in sorted(dims) for n in sorted(sizes)]
    _require(keys == expected, "sweep rows %s, expected (p, n) cells %s",
             keys, expected)
    for r, (p, n) in zip(rows, keys):
        _require(r["converged"] == "True", "row p=%d n=%d did not converge", p, n)
        ratio = float(r["n_over_logp"])
        _require(math.isclose(ratio, n / math.log(p), rel_tol=1e-12),
                 "row p=%d n=%d: n_over_logp %r != n / ln p", p, n, ratio)
    lo, hi = min(sizes), max(sizes)
    by_key = dict(zip(keys, rows))
    for p in dims:
        for column in ("normalized_edit_markov", "normalized_edit_residual"):
            first = float(by_key[(p, lo)][column])
            last = float(by_key[(p, hi)][column])
            _require(last < first,
                     "p=%d: %s at n=%d (%r) is not below n=%d (%r)",
                     p, column, hi, last, lo, first)


def check_exact(solution, j_markov, sigma_residual, converged):
    """Check one exact-statistics solve against the planted model."""
    _require(converged, "solve did not converge")
    err_j = float(np.abs(np.asarray(solution[0]) - j_markov).max())
    err_r = float(np.abs(np.asarray(solution[1]) - sigma_residual).max())
    _require(err_j <= EXACT_TOLERANCE, "max |J - J_M| = %.3g", err_j)
    _require(err_r <= EXACT_TOLERANCE, "max |Sigma_R - Sigma_R*| = %.3g", err_r)


def spectral_radius_abs_partial_correlation(j):
    """Spectral radius of |D^-1/2 J D^-1/2| with its diagonal zeroed."""
    j = np.asarray(j, dtype=float)
    s = 1.0 / np.sqrt(np.diag(j))
    r = np.abs(j) * s[:, None] * s[None, :]
    np.fill_diagonal(r, 0.0)
    return float(np.abs(np.linalg.eigvalsh(r)).max())


def _final_trace_error(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["iteration", "mean_error", "var_error"],
             "%s: unexpected header %s", path, rows[0])
    return len(rows) - 1, (float(rows[-1][1]) if len(rows) > 1 else None)


def check_lbp(out_dir, walk_summability):
    """Check a ``covdecomp lbp`` study.

    ``walk_summability[k]`` maps "markov" and "overall" to the values
    computed here for model k, with
    ``spectral_radius_abs_partial_correlation`` on its information
    matrices built from the planted model.
    """
    out_dir = Path(out_dir)
    with open(out_dir / "lbp_summary.json", encoding="utf-8") as fh:
        models = json.load(fh)["models"]
    _require(len(models) == len(walk_summability),
             "%d models reported, expected %d", len(models), len(walk_summability))
    for entry, expected in zip(models, walk_summability):
        k = entry["model"]
        for tag, own in expected.items():
            reported = entry["walk_summability_" + tag]
            _require(math.isclose(reported, own, rel_tol=WALK_SUMMABILITY_RTOL),
                     "model %d %s: walk_summability %r, recomputed %r",
                     k, tag, reported, own)
            converged = entry["converged_" + tag]
            if tag == "markov" and own < 1.0:
                _require(converged, "model %d: walk-summable Markov run did "
                         "not converge", k)
            sweeps, final = _final_trace_error(
                out_dir / ("trace_%s_%d.csv" % (tag, k)))
            _require(sweeps == entry["iterations_" + tag],
                     "model %d %s: trace has %d rows, summary says %d",
                     k, tag, sweeps, entry["iterations_" + tag])
            if converged:
                _require(final is not None and final <= LBP_MEAN_ERROR_LIMIT,
                         "model %d %s: converged run ends with mean error %r",
                         k, tag, final)

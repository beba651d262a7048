"""Directory-based persistence for models, solver results, sample sets,
and propagation traces.

A model directory holds j_markov.csv, sigma_residual.csv, and meta.json
(lambda_star plus any generator metadata). A result directory holds
j_hat.csv, sigma_r.csv, and diagnostics.json; a sample directory holds
data.csv, a header row over one sample per row. Matrices and samples are
CSV at full repr precision, so save/load round-trips are exact. Every
CSV reader here raises ``MalformedCsv`` naming the file for an empty,
ragged or non-numeric file.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedCsv, NonNumericCell, PreconditionViolated
from .model import DecompositionModel, validate_model

SCHEMA_VERSION = 1


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_numeric_csv(path, header_rows):
    # (header rows, data array) of a CSV file whose rows after the first
    # header_rows are all floats; blank lines are skipped
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise MalformedCsv("%s is empty" % path)
    head, body = rows[:header_rows], rows[header_rows:]
    if not body:
        raise MalformedCsv("%s has a header but no data rows" % path)
    width = len(rows[0])
    for ri, row in enumerate(body):
        if len(row) != width:
            raise MalformedCsv(
                "%s: row %d has %d cells, expected %d"
                % (path, ri + header_rows + 1, len(row), width)
            )
    try:
        # numpy parses each cell with float()'s grammar
        return head, np.array(body, dtype=float)
    except ValueError:
        pass
    for ri, row in enumerate(body):
        for ci, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                raise NonNumericCell(path, ri, ci, cell, header_rows) from None
    raise MalformedCsv("%s does not parse as floats" % path)


def read_matrix_csv(path):
    """Load a p x p matrix from headerless CSV, symmetrize, and validate finiteness."""
    data = _read_numeric_csv(path, 0)[1]
    if not np.isfinite(data).all():
        raise MalformedCsv("%s has a non-finite cell" % path)
    if data.shape[0] != data.shape[1]:
        raise DimensionMismatch("%s holds a %d x %d matrix, expected a square one"
                                % ((path,) + data.shape))
    return 0.5 * (data + data.T)


def write_matrix_csv(m, path, header=None):
    """Write a matrix as full (not triangular) CSV with repr-precision
    floats, after the ``header`` row when one is given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in np.asarray(m, dtype=float):
            writer.writerow([repr(float(x)) for x in row])


def _pair_list(mask):
    # JSON form of a pair mask: [i, j] lists in row-major order
    return [[int(i), int(j)] for i, j in zip(*np.nonzero(mask))]


def save_model(m, dirpath, extra_meta=None):
    """Write a model to a directory; returns the directory path."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(m.j_markov, d / "j_markov.csv")
    write_matrix_csv(m.sigma_residual, d / "sigma_residual.csv")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "dim": m.dim,
        "lambda_star": m.lambda_star,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(d / "meta.json", meta)
    return d


def load_model(dirpath):
    """Read a model directory back; revalidates the decomposition.

    Models are zero-mean: a legacy meta.json ``"mean"`` other than p
    zeros raises ``PreconditionViolated``."""
    d = Path(dirpath)
    j = read_matrix_csv(d / "j_markov.csv")
    r = read_matrix_csv(d / "sigma_residual.csv")
    meta = _read_json(d / "meta.json")
    if "mean" in meta and meta["mean"] != [0.0] * len(j):
        raise PreconditionViolated(
            "%s: meta.json has a mean other than p zeros; every model is zero-mean" % d)
    m = DecompositionModel(j_markov=j, sigma_residual=r,
                           lambda_star=float(meta["lambda_star"]))
    violations = validate_model(m)
    if violations:
        raise PreconditionViolated(
            "loaded model fails validation: " + "; ".join(violations)
        )
    return m


def save_result(result, dirpath, extra_diagnostics=None):
    """Write a solve result to a directory.

    diagnostics.json records the scalar certificates plus the active
    clip set (the pairs actually carrying residual mass).
    """
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(result.j_hat, d / "j_hat.csv")
    write_matrix_csv(result.sigma_r_hat, d / "sigma_r.csv")
    diagnostics = {
        "schema_version": SCHEMA_VERSION,
        "duality_gap": result.duality_gap,
        "kkt_residual": result.kkt_residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "overall_pd": result.overall_pd,
        "clip_pairs": _pair_list(np.triu(result.sigma_r_hat != 0.0, k=1)),
        "sign_conflicts": _pair_list(result.sign_conflicts),
    }
    if extra_diagnostics:
        diagnostics.update(extra_diagnostics)
    write_json(d / "diagnostics.json", diagnostics)
    return d


def read_csv_table(path):
    """Parse a rectangular numeric CSV with a header row.

    Returns ``(header, data)``, the stripped header cells and an n x p
    float array; blank lines are skipped. Raises ``MalformedCsv`` for an
    empty, header-only or ragged file and ``NonNumericCell`` for a cell
    that is not a float.
    """
    head, data = _read_numeric_csv(path, 1)
    return [cell.strip() for cell in head[0]], data


def save_samples(data, dirpath, columns=None):
    """Write an (n, p) sample array to data.csv; returns the directory path.

    The header is ``columns`` when given (an ingested file keeps its
    column names) and x0..x{p-1} otherwise.
    """
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    p = np.shape(data)[1]
    write_matrix_csv(data, d / "data.csv", columns or ["x%d" % k for k in range(p)])
    return d


def load_samples(dirpath):
    """Read a sample directory back as ``(columns, data)``."""
    return read_csv_table(Path(dirpath) / "data.csv")


def write_trace_csv(trace, path):
    """One row per propagation iteration: iteration, mean_error, var_error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_error", "var_error"])
        for k in range(trace.iterations_run):
            writer.writerow(
                [k + 1, repr(float(trace.mean_errors[k])),
                 repr(float(trace.var_errors[k]))]
            )
    return Path(path)

"""Directory-based persistence for solver results, the data CSV reader,
and propagation traces.

A result directory holds j_hat.csv, sigma_r.csv, and diagnostics.json.
Matrices are CSV at full repr precision, so they read back exactly. A
data file is a header row over one sample per row; ``read_csv_table``,
the package's one CSV reader, raises ``MalformedCsv`` naming the file
for an empty, header-only or ragged file and for a non-finite or
non-numeric cell.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import MalformedCsv, NonNumericCell

SCHEMA_VERSION = 1


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrix_csv(m, path):
    """Write a matrix as full (not triangular) CSV with repr-precision floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(m, dtype=float):
            writer.writerow([repr(float(x)) for x in row])


def _pair_list(mask):
    # JSON form of a pair mask: [i, j] lists in row-major order
    return [[int(i), int(j)] for i, j in zip(*np.nonzero(mask))]


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
    array of finite floats; blank lines are skipped. Raises
    ``MalformedCsv`` for an empty, header-only or ragged file or a
    non-finite cell (``nan``, ``inf``), and ``NonNumericCell`` for a cell
    that is not a float; a bad cell is named by its 1-based file row and
    column.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise MalformedCsv("%s is empty" % path)
    head, body = rows[0], rows[1:]
    if not body:
        raise MalformedCsv("%s has a header but no data rows" % path)
    for ri, row in enumerate(body):
        if len(row) != len(head):
            raise MalformedCsv("%s: row %d has %d cells, expected %d"
                               % (path, ri + 2, len(row), len(head)))
    try:
        # numpy parses each cell with float()'s grammar
        data = np.array(body, dtype=float)
    except ValueError:
        for ri, row in enumerate(body):
            for ci, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise NonNumericCell(path, ri, ci, cell) from None
        raise MalformedCsv("%s does not parse as floats" % path)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        ri, ci = bad[0]
        raise MalformedCsv("%s: non-finite cell %r at file row %d, column %d"
                           % (path, body[ri][ci], ri + 2, ci + 1))
    return [cell.strip() for cell in head], data


def write_trace_csv(trace, path):
    """One row per propagation iteration: iteration, mean_error, var_error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "mean_error", "var_error"])
        # csv writes each float as its repr
        writer.writerows(zip(range(1, trace.iterations_run + 1), trace.mean_errors.tolist(),
                             trace.var_errors.tolist()))
    return Path(path)

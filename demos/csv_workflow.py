"""
From a raw CSV to fitted graphs on the command line
===================================================

The same pipeline the CLI exposes, driven in-process: fit the
decomposition straight from a data file with ``fit --data``, and read
back the exported edge lists. Every artifact is a plain CSV or JSON file.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import covdecomp as cd
from covdecomp.cli import main

# the directory and everything in it is removed when the block exits,
# also when a step in it raises
with tempfile.TemporaryDirectory(prefix="covdecomp_demo_") as tmp:
    workdir = Path(tmp)

    # fabricate a dataset from a known model so the fit has structure to find
    model = cd.grid_model(3, 21, diag_boost_policy=cd.DiagBoostPolicy(fixed=1.0))
    samples = cd.draw_samples(model, 4000, seed=6)
    data_path = workdir / "measurements.csv"
    with open(data_path, "w") as fh:
        fh.write(",".join("sensor%d" % k for k in range(9)) + "\n")
        for row in samples:
            fh.write(",".join("%.10g" % v for v in row) + "\n")
    print("wrote %s (n=4000, p=9)" % data_path)

    # fit: parse and check the CSV, estimate its covariance about the
    # column means, solve at a fixed box level and export the graphs
    config = workdir / "fit.json"
    config.write_text(json.dumps({
        "lambda_policy": "fixed:0.2",
        "c_gamma": [2.0],
        "solver": {"eps_abs": 1e-10, "eps_rel": 1e-9},
    }))
    code = main(["fit", "--config", str(config),
                 "--data", str(data_path), "--out", str(workdir / "run")])
    print("fit exit code: %d" % code)

    diagnostics = json.loads((workdir / "run" / "fit" / "diagnostics.json").read_text())
    print("n=%d, p=%d; converged in %d iterations, duality gap %.2e"
          % (diagnostics["n"], diagnostics["p"],
             diagnostics["iterations"], diagnostics["duality_gap"]))

    graphs = json.loads((workdir / "run" / "fit" / "graphs.json").read_text())
    print("\nestimated markov edges (first five of %d):" % len(graphs["markov"]))
    for edge in graphs["markov"][:5]:
        print("  %s -- %s   weight %+.4f"
              % (edge["source"], edge["target"], edge["weight"]))
    print("residual edges: %d" % len(graphs["residual"]))

true_edges = np.count_nonzero(cd.support_of(model.j_markov))
print("\nground truth had %d markov edges" % true_edges)

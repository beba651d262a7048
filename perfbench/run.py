"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The BLAS and OpenMP thread counts are
pinned in this process's environment before any numpy loads, and every
set-up and measured run happens in a fresh ``worker.py`` process.

Untraced (``--trace 0``), the workload is set up ``SETUPS`` times, each
in its own process: half of the set-up-only processes run before the
one that goes on to run the jobs and half after it, so that the median
samples both ends of the run. The last line printed carries ``setup_s``
(median over the set-ups),
``jobs_per_s``, ``job_s_p50`` and ``peak_rss_mb``. Traced
(``--trace 1``), one process runs the jobs with and without tracing and
the line carries the per-layer metrics. Either way the line also holds
``correct``, ``attempted`` and ``failed``; the full record, with the
per-job times, thread settings and library versions, is written under
``perfbench/out/results``. Exits nonzero without a result line when a
worker fails, for instance when the checkout has no ``src/covdecomp``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 11
# wall-clock budget of one run, below the 180 s a run may take
BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(args, tag, deadline, setup_only=False):
    result_path = OUT / "results" / ("%s.%s.json" % (tag, "setup" if setup_only
                                                     else "run"))
    workdir = OUT / ("work-%s" % tag)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker for %s ran past the run's time budget"
                           % args.workload) from None
    finally:
        # a worker that was killed could not remove its own files
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed("worker for %s exited with %d"
                           % (args.workload, proc.returncode))
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    result_path.unlink()
    return record


def summarize(args, bench, setups, record):
    """The result line; its metrics are those BENCHMARK.json lists."""
    declared = bench["per_layer" if args.trace else "end_to_end"]
    times = record["job_s"]
    metrics = {}
    if args.trace:
        metrics = record.get("per_layer", {})
    elif times:
        metrics = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": len(times) / record["timed_s"],
            "job_s_p50": statistics.median(times),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    if metrics and set(metrics) != {m["name"] for m in declared}:
        raise WorkerFailed("measured metrics %s differ from BENCHMARK.json"
                           % sorted(metrics))
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if metrics},
    }


def main(argv=None):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, on which
    # subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for name in THREAD_VARS:
        os.environ[name] = "1"

    deadline = time.monotonic() + BUDGET_S
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    try:
        setups = []

        def set_up_only(ks):
            if args.trace:
                return
            for k in ks:
                setups.append(run_worker(args, "%s-%d" % (tag, k), deadline,
                                         setup_only=True)["setup_s"])

        set_up_only(range(SETUPS // 2))
        record = run_worker(args, tag, deadline)
        setups.append(record["setup_s"])
        set_up_only(range(SETUPS // 2, SETUPS - 1))
        line = summarize(args, bench, setups, record)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_runs_s=setups, summary=line)
    with open(OUT / "results" / ("%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not line["metrics"]:
        print("perfbench: no job of %s succeeded" % args.workload, file=sys.stderr)
        return 1
    for name, m in sorted(line["metrics"].items()):
        print("%s %s = %.6g %s" % (args.workload, name, m["value"], m["unit"]))
    print("%s attempted = %d, failed = %d, correct = %s"
          % (args.workload, line["attempted"], line["failed"], line["correct"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

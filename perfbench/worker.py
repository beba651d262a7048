"""One benchmark process: set up a workload, run its jobs, write a result.

``run.py`` starts this script in a fresh process for every set-up and
every measured run, with the BLAS thread variables already set, so
numpy loads with them. It imports ``covdecomp`` from the checkout's
``src`` and nowhere else. Jobs run one after another in this process:
a closed loop with one client.

The timed phase is the wall time since the first job started, less the
time spent checking outputs. Untraced, rounds of jobs start until it has
lasted ``--seconds``. Traced, each job input runs twice, untraced then
traced, in rounds that start until it has lasted ``--seconds`` and at
least ``TRACED_JOBS`` pairs are done; the per-layer
metrics are medians over the first ``TRACED_JOBS`` traced jobs, so their
counts repeat exactly for a given seed, and the tracing overhead is the
median over all pairs of the traced minus the untraced job time.
"""

import argparse
import contextlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from run import THREAD_VARS
from spans import Tracer, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACED_JOBS = 3


def import_covdecomp():
    sys.path.insert(0, str(SRC))
    import covdecomp
    import covdecomp.cli

    if SRC.resolve() not in Path(covdecomp.__file__).resolve().parents:
        raise ImportError("covdecomp was imported from %s, not from %s"
                          % (covdecomp.__file__, SRC))
    return covdecomp


def environment():
    info = {name: os.environ.get(name) for name in THREAD_VARS}
    info.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                python=platform.python_version(), numpy=np.__version__)
    try:
        info["openblas"] = np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # numpy without the dict form of its config
        info["openblas"] = None
    return info


class Clock:
    """Wall time since creation, less the time spent inside ``pause()``."""

    def __init__(self):
        self.start = time.perf_counter()
        self.paused = 0.0

    @contextlib.contextmanager
    def pause(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - start

    def elapsed(self):
        return time.perf_counter() - self.start - self.paused


def one_job(workload, i, clock, tracer=None):
    """Run, time and check job ``i``; ``clock`` is paused for the check.

    Returns ``(seconds, outputs_correct, bytes_written)``; ``seconds`` is
    None when the job raised, exited nonzero or failed its check, and
    ``bytes_written`` is counted for traced jobs only.
    """
    scope = tracer.job(i) if tracer else contextlib.nullcontext()
    try:
        start = time.perf_counter()
        with scope:
            output = workload.run(i)
        elapsed = time.perf_counter() - start
        with clock.pause():
            written = workload.bytes_written(i) if tracer else 0
            workload.check(output)
        return elapsed, True, written
    except checks.CheckFailed as exc:
        print("job %d: wrong output: %s" % (i, exc), file=sys.stderr)
        return None, False, 0
    except Exception:  # a failed job is counted and the run goes on
        print("job %d failed:" % i, file=sys.stderr)
        traceback.print_exc()
        return None, True, 0
    finally:
        workload.cleanup(i)


def run_untraced(workload, seconds):
    times, attempted, correct = [], 0, True
    clock = Clock()
    while attempted == 0 or clock.elapsed() < seconds:
        for _ in range(workload.ROUND):
            elapsed, ok, _ = one_job(workload, attempted, clock)
            attempted += 1
            correct &= ok
            if elapsed is not None:
                times.append(elapsed)
    return {"attempted": attempted, "failed": attempted - len(times),
            "correct": correct, "job_s": times, "timed_s": clock.elapsed()}


def run_traced(workload, seconds, tracer):
    plain, traced, overheads, per_job = [], [], [], []
    attempted, failed, correct = 0, 0, True
    clock = Clock()
    i = 0
    while i < TRACED_JOBS or clock.elapsed() < seconds:
        for _ in range(workload.ROUND):
            pair = []
            for use_tracer, times in ((None, plain), (tracer, traced)):
                elapsed, ok, written = one_job(workload, i, clock, use_tracer)
                attempted += 1
                correct &= ok
                if elapsed is None:
                    failed += 1
                    continue
                times.append(elapsed)
                pair.append(elapsed)
                if use_tracer and i < TRACED_JOBS:
                    per_job.append(tracer.job_metrics(i, written))
            if len(pair) == 2:
                overheads.append(pair[1] - pair[0])
            i += 1
    result = {"attempted": attempted, "failed": failed, "correct": correct,
              "job_s": plain, "traced_job_s": traced}
    if per_job and overheads:
        metrics = median_metrics(per_job)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        result["per_layer"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        cd = import_covdecomp()
    except ImportError as exc:
        print("cannot import covdecomp from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    # the jobs' progress lines would only add terminal output to the timings
    logging.basicConfig(level=logging.WARNING)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](cd, args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            if args.trace:
                tracer = Tracer(cd, np)
                result.update(run_traced(workload, args.seconds, tracer))
                result["spans"] = tracer.dump()
            else:
                result.update(run_untraced(workload, args.seconds))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

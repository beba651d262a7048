"""Spans around the calls into each covdecomp layer, recorded from outside.

The tracer replaces the public functions in the namespaces the jobs call
them through (``covdecomp.cli`` for the command line jobs, the package
root for the ``exact`` job) and ``numpy.linalg.eigh``, which inside the
package only the solver's log-det prox calls. Each call becomes a span
with a name, start, end, parent span and job id. Spans stay in memory
and are written out when the run ends.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# wrapped function -> the work count of one call's result, where it has one
TRACED = {
    "admm_solve": lambda result: result.iterations,
    "witness_solve": lambda result: result.iterations,
    "eigh": None,
    "grid_model": None,
    "true_covariance": None,
    "partition_pairs": None,
    "draw_samples": None,
    "sample_covariance": None,
    "sample_covariance_centered": None,
    "compare_to_truth": None,
    "lbp_run": lambda trace: trace.iterations_run,
    "walk_summability": None,
    "write_trace_csv": None,
    "write_json": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, None for a job's root span
    job: int
    count: int = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for the jobs run inside ``job()``."""

    def __init__(self, covdecomp, numpy):
        self.spans = []
        self._roots = {}
        self._stack = []
        self._job = None
        self._targets = [(numpy.linalg, "eigh")]
        for module in (covdecomp.cli, covdecomp):
            self._targets += [(module, name) for name in TRACED
                              if name != "eigh" and hasattr(module, name)]

    def _wrap(self, name, fn):
        count_of = TRACED[name]

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1], self._job)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count_of is not None:
                span.count = count_of(out)
            return out

        return traced

    @contextmanager
    def job(self, job_id):
        """Trace one job: install the wrappers, open the job's root span."""
        originals = [(m, n, getattr(m, n)) for m, n in self._targets]
        for module, name, fn in originals:
            setattr(module, name, self._wrap(name, fn))
        root = Span("job", 0.0, 0.0, None, job_id)
        self._job = job_id
        self._roots[job_id] = len(self.spans)
        self._stack = [len(self.spans)]
        self.spans.append(root)
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            for module, name, fn in originals:
                setattr(module, name, fn)
            self._stack = []
            self._job = None

    def dump(self):
        return [asdict(s) for s in self.spans]

    def job_metrics(self, job_id, bytes_written):
        """Per-layer metrics of one traced job (every metric but overhead)."""
        root_index = self._roots[job_id]
        root = self.spans[root_index]
        spans = [s for s in self.spans if s.job == job_id]

        def total(*names):
            return sum((s.duration for s in spans if s.name in names), 0.0)

        def counted(*names):
            return sum(s.count for s in spans if s.name in names)

        solve_s = total("admm_solve", "witness_solve")
        iterations = counted("admm_solve", "witness_solve")
        eigh_s = total("eigh")
        lbp_s = total("lbp_run")
        sweeps = counted("lbp_run")
        direct = sum((s.duration for s in spans if s.parent == root_index), 0.0)
        return {
            "solver.admm_solve_s": total("admm_solve"),
            "solver.witness_solve_s": total("witness_solve"),
            "solver.iterations": iterations,
            "solver.eigh_calls": sum(1 for s in spans if s.name == "eigh"),
            "solver.eigh_s": eigh_s,
            "solver.rest_s": solve_s - eigh_s,
            "solver.s_per_iteration": solve_s / iterations if iterations else 0.0,
            "model.grid_model_s": total("grid_model"),
            "model.true_covariance_s": total("true_covariance"),
            "model.partition_pairs_s": total("partition_pairs"),
            "sampling.draw_samples_s": total("draw_samples"),
            "sampling.sample_covariance_s": total(
                "sample_covariance", "sample_covariance_centered"),
            "metrics.compare_to_truth_s": total("compare_to_truth"),
            "inference.lbp_run_s": lbp_s,
            "inference.lbp_sweeps": sweeps,
            "inference.s_per_lbp_sweep": lbp_s / sweeps if sweeps else 0.0,
            "inference.walk_summability_s": total("walk_summability"),
            "cli.other_s": root.duration - direct,
            "serialize.write_trace_csv_s": total("write_trace_csv"),
            "serialize.write_json_s": total("write_json"),
            "serialize.bytes_written": bytes_written,
        }


def median_metrics(per_job):
    """Median of each per-job metric over a list of per-job dicts."""
    return {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}

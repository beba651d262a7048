"""Sparse decomposition of covariance matrices into a Markov precision
component and a sparse residual covariance, with a proximal-gradient solver,
recovery metrics, Gaussian belief propagation, and an experiment
harness.
"""

__version__ = "0.1.0"

import types

from .errors import (
    CovdecompError,
    DimensionMismatch,
    EmptyTruthSupport,
    InfeasibleConstraints,
    MalformedCsv,
    MalformedMatrix,
    NonNumericCell,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    PreconditionViolated,
    SingularSubmatrix,
)
from .inference import InfoModel, LbpTrace, lbp_run, walk_summability
from .metrics import (
    DEFAULT_SUPPORT_THRESHOLD,
    MetricsRecord,
    compare_to_truth,
    support_of,
)
from .model import (
    DecompositionModel,
    DiagBoostPolicy,
    IncoherenceReport,
    chain_model,
    grid_model,
    incoherence_report,
    partition_pairs,
    true_covariance,
    validate_model,
)
from .sampling import (
    derive_seed,
    draw_sample_covariance,
    draw_samples,
    gamma_schedule,
    sample_covariance,
    sample_covariance_centered,
)
from .serialize import (
    SCHEMA_VERSION,
    save_result,
    write_trace_csv,
)
from .solver import (
    SolveResult,
    SolverConfig,
    admm_solve,
    duality_gap,
    soft_threshold_covariance,
    witness_solve,
)

# every public name imported above, listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

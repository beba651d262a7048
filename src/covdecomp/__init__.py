"""Sparse decomposition of covariance matrices into a Markov precision
component and a sparse residual covariance, with a proximal-gradient solver,
recovery metrics, Gaussian belief propagation, and an experiment
harness.
"""

__version__ = "0.1.0"

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
from .inference import InfoModel, LbpTrace, exact_moments, lbp_run, walk_summability
from .metrics import (
    DEFAULT_SUPPORT_THRESHOLD,
    MetricsRecord,
    compare_to_truth,
    edit_distance,
    sign_consistency,
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
    draw_samples,
    gamma_schedule,
    sample_covariance,
    sample_covariance_centered,
)
from .serialize import (
    SCHEMA_VERSION,
    load_model,
    load_samples,
    save_model,
    save_result,
    save_samples,
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
from .symmat import hessian_submatrix, inf_operator_norm, logdet_pd

__all__ = [
    "CovdecompError",
    "DEFAULT_SUPPORT_THRESHOLD",
    "DecompositionModel",
    "DiagBoostPolicy",
    "DimensionMismatch",
    "EmptyTruthSupport",
    "IncoherenceReport",
    "InfeasibleConstraints",
    "InfoModel",
    "LbpTrace",
    "MalformedCsv",
    "MalformedMatrix",
    "MetricsRecord",
    "NonNumericCell",
    "NonPositiveDiagonal",
    "NotPositiveDefinite",
    "PreconditionViolated",
    "SCHEMA_VERSION",
    "SingularSubmatrix",
    "SolveResult",
    "SolverConfig",
    "admm_solve",
    "chain_model",
    "compare_to_truth",
    "derive_seed",
    "draw_samples",
    "duality_gap",
    "edit_distance",
    "exact_moments",
    "gamma_schedule",
    "grid_model",
    "hessian_submatrix",
    "incoherence_report",
    "inf_operator_norm",
    "lbp_run",
    "load_model",
    "load_samples",
    "logdet_pd",
    "partition_pairs",
    "sample_covariance",
    "sample_covariance_centered",
    "save_model",
    "save_result",
    "save_samples",
    "sign_consistency",
    "soft_threshold_covariance",
    "support_of",
    "true_covariance",
    "validate_model",
    "walk_summability",
    "witness_solve",
    "write_trace_csv",
]

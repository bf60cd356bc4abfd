"""Posterior inference for two-period randomized designs with noncompliance.

The package simulates sequentially randomized experiments in which units
comply, never take, or always take treatment; fits a latent-stratum model
by Markov chain Monte Carlo; reports the complier treatment effect; and
ships an exact enumeration oracle plus self-checks that hold the sampler
to it.
"""

__version__ = "0.1.0"

from .domain import (
    COMPLIANCE_ORDER,
    ComplianceType,
    Dataset,
    Y_CELLS,
    classify_compliance,
    consistent_types,
    realized_treatment,
    y_cell_index,
)
from .errors import (
    DataError,
    DimensionMismatch,
    EmptyArm,
    InconsistentUnit,
    InvalidConfig,
    InvariantViolation,
    MonotonicityViolation,
    NoCompliers,
    NumericalOverflow,
    ParseError,
    SchemaError,
    SeqlateError,
    TooFewDraws,
    TooLarge,
    UndefinedCell,
    UnknownKey,
)
from .model import PriorSpec, Theta, theta_dim, theta_field_names
from .simulate import (
    ConstantAssignment,
    ConstantCompliance,
    DgpConfig,
    GroundTruth,
    LogitAssignment,
    LogitCompliance,
    simulate_dataset,
    true_sample_late,
    true_sample_sate,
)
from .gibbs import FitResult, SamplerConfig, fit
from .estimate import (
    EstimateReport,
    as_treated_estimate,
    compare_methods,
    itt_estimate,
    per_protocol_estimate,
    summarize_posterior,
)
from .validate import (
    DiscreteSpec,
    ExactPosterior,
    ess,
    exact_posterior,
    grid_gibbs,
    rhat,
    run_validation_suite,
)
from .config import RunConfig, emit_config, load_config, parse_config
from .dataio import (
    read_dataset_csv,
    read_truth_json,
    write_dataset_csv,
    write_truth_json,
)
from .rng import substream

__all__ = [
    "COMPLIANCE_ORDER",
    "ComplianceType",
    "ConstantAssignment",
    "ConstantCompliance",
    "DataError",
    "Dataset",
    "DgpConfig",
    "DimensionMismatch",
    "DiscreteSpec",
    "EmptyArm",
    "EstimateReport",
    "ExactPosterior",
    "FitResult",
    "GroundTruth",
    "InconsistentUnit",
    "InvalidConfig",
    "InvariantViolation",
    "LogitAssignment",
    "LogitCompliance",
    "MonotonicityViolation",
    "NoCompliers",
    "NumericalOverflow",
    "ParseError",
    "PriorSpec",
    "RunConfig",
    "SamplerConfig",
    "SchemaError",
    "SeqlateError",
    "Theta",
    "TooFewDraws",
    "TooLarge",
    "UndefinedCell",
    "UnknownKey",
    "Y_CELLS",
    "as_treated_estimate",
    "classify_compliance",
    "compare_methods",
    "consistent_types",
    "emit_config",
    "ess",
    "exact_posterior",
    "fit",
    "grid_gibbs",
    "itt_estimate",
    "load_config",
    "parse_config",
    "per_protocol_estimate",
    "read_dataset_csv",
    "read_truth_json",
    "realized_treatment",
    "rhat",
    "run_validation_suite",
    "simulate_dataset",
    "substream",
    "summarize_posterior",
    "theta_dim",
    "theta_field_names",
    "true_sample_late",
    "true_sample_sate",
    "write_dataset_csv",
    "write_truth_json",
    "y_cell_index",
]

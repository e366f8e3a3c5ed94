"""sqzlab: brightness/squeezing/uncertainty trade-offs for squeezed light.

Evaluators for four squeezed-light generation methods (beam-splitter
mixing, seeded parametric oscillator, seeded parametric amplifier,
dissipative optomechanical squeezer), a sweep engine with
optimal-squeezing frontier extraction, and independent brute-force
oracles for cross-checking.
"""

__version__ = "0.1.0"

from .beamsplitter import BsParams, bs_evaluate, bs_uncertainty
from .core import (
    DomainError,
    MethodPoint,
    QuadratureStats,
    Regime,
    SqueezedAxis,
    SqueezeMetrics,
    squeeze_metrics,
    uncertainty,
)
from .frontier import (
    Axis,
    ConfigError,
    FrontierCurve,
    FrontierPoint,
    LogBins,
    Method,
    Spacing,
    SweepGrid,
    SweepRecord,
    SweepTable,
    default_grid,
    frontier,
    frontier_suite,
    ok_points,
    sweep,
)
from .opa import (
    NonConvergenceError,
    OpaParams,
    OpaTrajectory,
    opa_evaluate,
    opa_mean_field,
    opa_propagate,
    propagate_batch,
)
from .opo import (
    BranchError,
    OpoParams,
    OpoSteadyState,
    amplitude_cutoff_index,
    opo_evaluate,
    opo_perturbative,
    opo_steady_state,
    perturbative_gain,
    perturbative_stats,
)
from .optomech import OmParams, cooperativity_for_alpha_sq, om_evaluate, om_leading_order

__all__ = [
    "__version__",
    "Axis",
    "BranchError",
    "BsParams",
    "ConfigError",
    "DomainError",
    "FrontierCurve",
    "FrontierPoint",
    "LogBins",
    "Method",
    "MethodPoint",
    "NonConvergenceError",
    "OmParams",
    "OpaParams",
    "OpaTrajectory",
    "OpoParams",
    "OpoSteadyState",
    "QuadratureStats",
    "Regime",
    "Spacing",
    "SqueezedAxis",
    "SqueezeMetrics",
    "SweepGrid",
    "SweepRecord",
    "SweepTable",
    "amplitude_cutoff_index",
    "bs_evaluate",
    "bs_uncertainty",
    "cooperativity_for_alpha_sq",
    "default_grid",
    "frontier",
    "frontier_suite",
    "ok_points",
    "om_evaluate",
    "om_leading_order",
    "opa_evaluate",
    "opa_mean_field",
    "opa_propagate",
    "opo_evaluate",
    "opo_perturbative",
    "opo_steady_state",
    "perturbative_gain",
    "perturbative_stats",
    "propagate_batch",
    "squeeze_metrics",
    "sweep",
    "uncertainty",
]

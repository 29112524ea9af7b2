"""Compositional analysis of group decision-maker priorities.

Priority vectors are compositions: strictly positive, unit-sum, and only
their ratios carry meaning. This package aggregates, describes, ranks and
clusters the priorities of multiple decision-makers with operations that
respect that geometry, and ships a CLI (``groupmcdm``) over the same API.
"""

from .aggregation import (
    AggregationResult,
    AwgmmOptions,
    aggregate_amm,
    aggregate_awgmm,
    aggregate_gmm,
    build_average_array,
    check_pareto,
)
from .clustering import (
    ClusterModel,
    EmptyClusterWarning,
    aitchison_distance,
    kmeans_compositional,
    kmeans_standard_baseline,
    madc_distance,
)
from .composition import (
    Composition,
    PriorityMatrix,
    array_to_composition,
    close,
    inverse_log_ratio,
    log_ratio_transform,
)
from .credal import (
    CredalOrdering,
    CredalRanking,
    SignedRankSummary,
    bayesian_signed_rank,
    credal_ranking,
    sign_test,
    signed_rank_summary,
)
from .dispersion import (
    AverageDeviationArray,
    average_deviation_array,
    deviation_array_mad,
    deviation_array_robust,
    deviation_array_std,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AggregationResult",
    "AverageDeviationArray",
    "AwgmmOptions",
    "ClusterModel",
    "Composition",
    "CredalOrdering",
    "CredalRanking",
    "EmptyClusterWarning",
    "PriorityMatrix",
    "SignedRankSummary",
    "aggregate_amm",
    "aggregate_awgmm",
    "aggregate_gmm",
    "aitchison_distance",
    "array_to_composition",
    "average_deviation_array",
    "bayesian_signed_rank",
    "build_average_array",
    "check_pareto",
    "close",
    "credal_ranking",
    "deviation_array_mad",
    "deviation_array_robust",
    "deviation_array_std",
    "errors",
    "inverse_log_ratio",
    "kmeans_compositional",
    "kmeans_standard_baseline",
    "log_ratio_transform",
    "madc_distance",
    "sign_test",
    "signed_rank_summary",
    "__version__",
]

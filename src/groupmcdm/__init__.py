"""Compositional analysis of group decision-maker priorities.

Priority vectors are compositions: strictly positive, unit-sum, and only
their ratios carry meaning. This package aggregates, describes, ranks and
clusters the priorities of multiple decision-makers with operations that
respect that geometry, and ships a CLI (``groupmcdm``) over the same API.

A public name loads its module on first use (PEP 562), so a CLI command
imports only the modules it runs.
"""

from importlib import import_module

# numpy before the CLI's code is compiled, as when every module loaded here:
# each command needs it, and a later import raised the peak RSS of `rank`
import numpy  # noqa: F401

from . import errors

__version__ = "0.1.0"

_MODULES = {
    "aggregation": ("AggregationResult", "AwgmmOptions", "aggregate_amm", "aggregate_awgmm",
                    "aggregate_gmm", "build_average_array", "check_pareto"),
    "clustering": ("ClusterModel", "aitchison_distance", "kmeans_compositional",
                   "kmeans_standard_baseline", "madc_distance"),
    "composition": ("Composition", "PriorityMatrix", "array_to_composition", "close",
                    "inverse_log_ratio", "log_ratio_transform"),
    "credal": ("CredalOrdering", "CredalRanking", "SignedRankSummary", "bayesian_signed_rank",
               "credal_ranking", "sign_test", "signed_rank_summary"),
    "dispersion": ("AverageDeviationArray", "average_deviation_array", "deviation_array_mad",
                   "deviation_array_robust", "deviation_array_std"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted([*_HOME, "errors"]) + ["__version__"]


def __getattr__(name: str):
    """A public name, or a submodule, imported on first use and kept."""
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value

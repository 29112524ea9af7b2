"""Spread of a group's priorities, measured pairwise on log-ratios.

A deviation array is the symmetric n x n array of one non-negative spread per
criterion pair: the std, the MAD, or the DM-weighted spread about the weighted
group vector. The average-deviation (AD) array combines it with the matching
average array into one display: averages above the diagonal, deviations below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import (
    MEAN,
    MEDIAN,
    WEIGHTED,
    AwgmmOptions,
    _converged,
    _dm_weights,
    aggregate_awgmm,
    build_average_array,
)
from .composition import (PriorityMatrix, clr, expand_log_ratios, pair_differences,
                          pair_statistic)
from .errors import InsufficientSamples, _check_choice

AD_MEAN = "mean"
AD_MEDIAN = "median"
AD_AWGMM = "awgmm"


@dataclass(frozen=True, eq=False)
class AverageDeviationArray:
    """Average array and its matching deviation array for one estimator."""

    xi: np.ndarray
    tau: np.ndarray
    estimator: str
    labels: tuple[str, ...] | None = None

    @property
    def combined(self) -> np.ndarray:
        """Single display array: xi above the diagonal, tau below, zero diagonal."""
        return np.triu(self.xi, k=1) + np.tril(self.tau, k=-1)


def _deviation_array(W: PriorityMatrix, stat) -> np.ndarray:
    """The per-pair spreads ``stat`` (see ``pair_statistic``), laid out n x n."""
    return np.abs(expand_log_ratios(pair_statistic(np.log(W.values), stat)))


def deviation_array_std(W: PriorityMatrix) -> np.ndarray:
    """Sample standard deviation (K-1 denominator) of each pairwise log-ratio."""
    if W.n_dms < 2:
        raise InsufficientSamples("standard deviation needs at least two DMs")
    return _deviation_array(W, lambda d, _: d.std(axis=0, ddof=1))


def deviation_array_mad(W: PriorityMatrix) -> np.ndarray:
    """Median absolute deviation about the median, no consistency constant."""
    return _deviation_array(
        W, lambda d, _: np.median(np.abs(d - np.median(d, axis=0)), axis=0))


def deviation_array_robust(W: PriorityMatrix, dm_weights) -> np.ndarray:
    """DM-weighted spread around the weighted group vector.

    tau_ij = sqrt(sum_k lambda_k (ln(W_ki/W_kj) - g_i + g_j)^2), with
    ``dm_weights`` the unit-sum weights lambda from the robust aggregation and
    g = lambda @ clr(W), whose differences g_i - g_j are the weighted average array.
    """
    lam = _dm_weights(W, dm_weights)
    centre = pair_differences(lam @ clr(W.values))
    # a sum, not lam @: a BLAS product's order of terms varies with the width
    return _deviation_array(W, lambda d, pairs: np.sqrt(
        (lam[:, None] * (d - centre[pairs]) ** 2).sum(axis=0)))


def average_deviation_array(
    W: PriorityMatrix,
    estimator: str = AD_MEAN,
    awgmm_options: AwgmmOptions | None = None,
) -> AverageDeviationArray:
    """Matched average/deviation pair for one estimator.

    "mean" pairs the mean array with the sample standard deviation, "median"
    pairs the median array with the MAD, and "awgmm" pairs the DM-weighted
    array from the robust aggregation with the weighted spread around it; it
    raises NumericError when that aggregation stops at ``max_iter`` unconverged.
    """
    _check_choice(estimator, (AD_MEAN, AD_MEDIAN, AD_AWGMM), "estimator")
    if estimator == AD_MEAN:
        xi = build_average_array(W, MEAN)
        tau = deviation_array_std(W)
    elif estimator == AD_MEDIAN:
        xi = build_average_array(W, MEDIAN)
        tau = deviation_array_mad(W)
    else:
        lam = _converged(aggregate_awgmm(W, awgmm_options)).dm_weights
        xi = build_average_array(W, WEIGHTED, dm_weights=lam)
        tau = deviation_array_robust(W, lam)
    return AverageDeviationArray(xi=xi, tau=tau, estimator=estimator, labels=W.labels)

"""Aggregation of K decision-maker priority vectors into one group vector.

Three routes are provided:

* ``aggregate_amm``: column-wise arithmetic mean. Statistically unsound for
  ratio data and kept only as the baseline it is usually (wrongly) computed
  with; callers should surface a warning when reporting it.
* ``aggregate_gmm``: exponential-and-normalize readout of the mean pairwise
  log-ratio array, which is identical to the normalized column-wise geometric
  mean of the priorities.
* ``aggregate_awgmm``: adaptive weighted geometric mean. A Welsch M-estimator
  in log-ratio space, solved by half-quadratic iteration: each DM receives a
  weight that decays exponentially with the squared distance between their
  log-ratio vector and the current group vector, so DMs far from the majority
  ("deviants") contribute little. Returns both the group priorities and the
  per-DM weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import (
    CONSISTENCY_TOL,
    Composition,
    PriorityMatrix,
    _floats,
    clr,
    expand_log_ratios,
    inverse_log_ratio,
    pair_differences,
    pair_statistic,
)
from .errors import (InputError, NumericError, WeightDimensionMismatch, _check_choice,
                     _check_integer, _check_positive)

AMM = "amm"
GMM = "gmm"
AWGMM = "awgmm"

MEAN = "mean"
MEDIAN = "median"
WEIGHTED = "weighted"

#: Below this squared-scale value all DMs are numerically identical.
DEGENERATE_SIGMA2 = 1e-300


@dataclass(frozen=True)
class AwgmmOptions:
    """Knobs for the half-quadratic iteration.

    ``sigma_denominator`` overrides the denominator of the scale update
    sigma^2 = sum_k ||What_k - wg||^2 / denominator (default n^2 with n the
    number of criteria). ``force_identity_estimator`` replaces the Welsch
    kernel by the identity, the Welsch kernel at an infinite scale, which
    collapses the method onto the plain geometric mean and is useful for
    cross-checks. ``tol`` and ``sigma_denominator`` must be positive and finite.
    """

    max_iter: int = 500
    tol: float = 1e-10
    sigma_denominator: float | None = None
    force_identity_estimator: bool = False

    def __post_init__(self):
        _check_integer(self.max_iter, "max_iter", 1)
        _check_positive(self.tol, "tol")
        if self.sigma_denominator is not None:
            _check_positive(self.sigma_denominator, "sigma_denominator")


@dataclass(frozen=True, eq=False)
class AggregationResult:
    """Aggregated group priorities plus method diagnostics.

    ``dm_weights`` is the unit-sum vector of per-DM contributions (AWGMM
    only); ``sigma_trace`` records the Welsch scale per iteration, starting
    with the value used for the first weighting step.
    """

    weights: Composition
    method: str
    dm_weights: np.ndarray | None = None
    iterations: int = 0
    converged: bool = True
    sigma_trace: tuple[float, ...] | None = None


def aggregate_amm(W: PriorityMatrix) -> AggregationResult:
    """Column-wise arithmetic mean of the priority rows (fallacy baseline)."""
    return AggregationResult(
        weights=Composition(W.values.mean(axis=0), W.labels),
        method=AMM,
    )


def _dm_weights(W: PriorityMatrix, dm_weights) -> np.ndarray:
    """``dm_weights`` as floats: one per DM of ``W``, finite, non-negative, unit-sum."""
    lam = _floats(dm_weights, "DM weights", ndim=1)
    if lam.shape != (W.n_dms,):
        raise WeightDimensionMismatch(f"{lam.size} weights for {W.n_dms} decision-makers")
    # a NaN or an infinity fails one of the two tests
    if not ((lam >= 0).all() and abs(lam.sum() - 1.0) <= CONSISTENCY_TOL):
        raise InputError("DM weights must be finite, non-negative and sum to 1")
    return lam


def _converged(result: AggregationResult) -> AggregationResult:
    """``result``, or NumericError when its iteration stopped at max_iter."""
    if not result.converged:
        raise NumericError(f"AWGMM did not converge within {result.iterations} iterations")
    return result


def build_average_array(
    W: PriorityMatrix,
    estimator: str = MEAN,
    dm_weights=None,
) -> np.ndarray:
    """The n x n array of expected pairwise log-ratios across DMs.

    Entry (i, j) is the chosen estimator applied to {ln(W_ki / W_kj)}_k.
    Antisymmetric by construction for every estimator. The mean and weighted
    variants are additively consistent up to rounding; the median variant in
    general is not.

    Parameters
    ----------
    estimator : {"mean", "median", "weighted"}
    dm_weights : array-like, required for "weighted"
        Non-negative unit-sum weights, one per DM; checked whenever given.
    """
    _check_choice(estimator, (MEAN, MEDIAN, WEIGHTED), "estimator")
    if dm_weights is not None:
        dm_weights = _dm_weights(W, dm_weights)
    if estimator == MEDIAN:
        return expand_log_ratios(
            pair_statistic(np.log(W.values), lambda d, _: np.median(d, axis=0)))
    if estimator == MEAN:
        g = clr(W.values).mean(axis=0)
    elif dm_weights is None:
        raise WeightDimensionMismatch("weighted estimator needs dm_weights")
    else:
        g = dm_weights @ clr(W.values)
    return g[:, None] - g


def aggregate_gmm(W: PriorityMatrix) -> AggregationResult:
    """Group priorities via the mean log-ratio array.

    Equal (to within 1e-12) to the normalized column-wise geometric mean of
    the priority matrix.
    """
    g = clr(W.values).mean(axis=0)
    weights = inverse_log_ratio(pair_differences(g), labels=W.labels)
    return AggregationResult(weights=weights, method=GMM)


def aggregate_awgmm(
    W: PriorityMatrix, opts: AwgmmOptions | None = None
) -> AggregationResult:
    """Robust group priorities via Welsch-weighted half-quadratic iteration.

    Starting from the arithmetic mean of the log-ratio rows (the geometric
    mean point), repeats until the group vector moves less than ``opts.tol``
    in the max norm:

    1. alpha_k = exp(-||What_k - wg||^2 / sigma^2)
    2. lambda_k = alpha_k / sum_j alpha_j
    3. wg = sum_k lambda_k What_k
    4. sigma^2 = sum_k ||What_k - wg||^2 / n^2

    The scale is initialized by applying step 4 at the starting point. When
    it underflows (all DMs numerically identical, as one DM always is) the
    result is the geometric mean with uniform DM weights, converged at once.
    ``opts.force_identity_estimator`` weights every DM equally: the Welsch
    kernel at an infinite scale, so step 1 gives alpha_k = 1.
    """
    opts = AwgmmOptions() if opts is None else opts
    if not isinstance(opts, AwgmmOptions):
        raise InputError(f"opts must be AwgmmOptions or None, got {opts!r}")
    K, n = W.n_dms, W.n_criteria
    # in Python floats a tiny denominator overflows sigma^2 to inf with no warning
    denom = float(opts.sigma_denominator if opts.sigma_denominator is not None else n * n)

    # on clr, n * ||x - g||^2 is the squared pairwise log-ratio distance
    what = clr(W.values)
    wg = what.mean(axis=0)
    # one residual array per iterate: it gives both the scale and the distances
    sq = (what - wg) ** 2
    sigma2 = n * float(sq.sum()) / denom
    trace = [sigma2]
    lam = np.full(K, 1.0 / K)
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        # the identity estimator is the Welsch kernel at an infinite scale
        scale = np.inf if opts.force_identity_estimator else sigma2
        if scale < DEGENERATE_SIGMA2:
            # zero spread: every DM already sits at the group vector. The mean
            # minimises the spread, so this is iteration 1: lambda is uniform
            converged = True
            break
        sq_dist = n * sq.sum(axis=1)
        # shifting by the nearest DM leaves lambda unchanged; unshifted,
        # every alpha underflows to 0 once all distances pass ~745 sigma^2
        alpha = np.exp(-(sq_dist - sq_dist.min()) / scale)
        lam = alpha / alpha.sum()
        wg_new = lam @ what
        sq = (what - wg_new) ** 2
        sigma2 = n * float(sq.sum()) / denom
        trace.append(sigma2)
        # the largest change of any pairwise log-ratio
        delta = float(np.ptp(wg_new - wg))
        wg = wg_new
        if delta < opts.tol:
            converged = True
            break

    return AggregationResult(
        weights=inverse_log_ratio(pair_differences(wg), labels=W.labels),
        method=AWGMM,
        dm_weights=lam,
        iterations=iterations,
        converged=converged,
        sigma_trace=tuple(trace),
    )


def check_pareto(W: PriorityMatrix, result: AggregationResult):
    """Audit Pareto optimality of an aggregation against its input.

    For every ordered pair (i, j) that all DMs strictly prefer (W_ki > W_kj
    for every k), reports whether the aggregated weights preserve the strict
    preference. Returns a list of ((i, j), preserved) entries.
    """
    if not (isinstance(result, AggregationResult) and result.weights.n == W.n_criteria):
        raise InputError(f"result must be an AggregationResult over {W.n_criteria} criteria")
    values = W.values
    agg = result.weights.parts
    report = []
    for i in range(W.n_criteria):
        for j in range(W.n_criteria):
            if i != j and bool(np.all(values[:, i] > values[:, j])):
                report.append(((i, j), bool(agg[i] > agg[j])))
    return report

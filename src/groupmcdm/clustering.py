"""Compositional distances and K-means grouping of decision-makers.

The Euclidean distance on raw priorities ignores their ratio nature; the
proper distances compare pairwise log-ratio vectors, computed on the n clr
coordinates with d the clr difference of two compositions:

* ``aitchison_distance``: L2 norm, sqrt(n * sum_k d_k^2).
* ``madc_distance``: L1 norm, sum_k (2k - n + 1) d_(k) over sorted d, k from 0.

``kmeans_compositional`` runs plain Lloyd on the clr rows with member-mean
centroids, read back as closed geometric means, so every centroid is a valid
composition. The mean is the exact minimizer only for the Aitchison distance;
it is applied literally for madc as well. ``kmeans_standard_baseline`` is the
same Lloyd on the raw priorities, kept only to show what goes wrong without
the compositional treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .composition import PriorityMatrix, close, closed_exp, clr
from .errors import (DimensionMismatch, InputError, TooManyClusters, _check_choice,
                     _check_integer, _check_seed, _is_integer)

AITCHISON = "aitchison"
MADC = "madc"
EUCLIDEAN = "euclidean"


def _distance(w, v, distance: str) -> float:
    a, b = clr(close(w).parts), clr(close(v).parts)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(_dist_matrix(a[None], b[None], distance)[0, 0])


def aitchison_distance(w, v) -> float:
    """Euclidean distance between the pairwise log-ratio vectors of w and v."""
    return _distance(w, v, AITCHISON)


def madc_distance(w, v) -> float:
    """Sum of absolute pairwise log-ratio differences between w and v."""
    return _distance(w, v, MADC)


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted grouping of the K decision-makers.

    ``inertia`` is the clustering objective at the returned state: the sum of
    squared member-to-centroid distances for the L2-type distances (aitchison,
    euclidean) and the plain sum for madc. ``inertia_trace`` holds the value
    after each centroid update of the winning restart. ``n_reseeds`` counts
    the clusters that restart re-seeded when an assignment step emptied them.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    distance: str
    inertia: float
    iterations: int
    seed: int | None
    inertia_trace: tuple[float, ...]
    n_reseeds: int = 0

    @property
    def centroid_sums(self) -> np.ndarray:
        return self.centroids.sum(axis=1)


def _dist_matrix(x: np.ndarray, centroids: np.ndarray, distance: str) -> np.ndarray:
    """(K, o) distances; compositional ones act on clr rows x and centroids."""
    d = x[:, None, :] - centroids[None, :, :]
    n = d.shape[2]
    if distance == MADC:
        d.sort(axis=2)  # sum_{i<j} |d_i - d_j| over the sorted differences
        return d @ (2.0 * np.arange(n) - n + 1)
    return np.sqrt((n if distance == AITCHISON else 1) * np.einsum("koi,koi->ko", d, d))


def _seed_indices(reprs: np.ndarray, o: int, rng, distance: str) -> list[int]:
    # distance-squared-proportional sampling among the data points
    K = reprs.shape[0]
    chosen = [int(rng.integers(K))]
    d2 = _dist_matrix(reprs, reprs[chosen], distance)[:, 0] ** 2
    while len(chosen) < o:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(K, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(K), chosen)
            nxt = int(rng.choice(remaining))
        chosen.append(nxt)
        d2 = np.minimum(d2, _dist_matrix(reprs, reprs[[nxt]], distance)[:, 0] ** 2)
    return chosen


def _lloyd(reprs, centroids, distance, seed, max_iter) -> ClusterModel:
    K, o = reprs.shape[0], centroids.shape[0]
    # one distance matrix per centroid set: it serves both the objective of
    # the set and the next assignment step
    dists = _dist_matrix(reprs, centroids, distance)
    assignments = np.full(K, -1)
    reseeds = 0
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_assignments = dists.argmin(axis=1)
        point_dist = dists[np.arange(K), new_assignments]
        # re-seed emptied clusters with the points farthest from their centroid
        counts = np.bincount(new_assignments, minlength=o)
        empty = [c for c in range(o) if counts[c] == 0]
        if empty:
            order = np.argsort(-point_dist)
            for c in empty:
                for k in order:
                    k = int(k)
                    donor = new_assignments[k]
                    if counts[donor] > 1:
                        new_assignments[k] = c
                        counts[donor] -= 1
                        counts[c] += 1
                        break
            reseeds += len(empty)
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        centroids = np.array([reprs[assignments == c].mean(axis=0) for c in range(o)])
        dists = _dist_matrix(reprs, centroids, distance)
        best = dists[np.arange(K), assignments]
        trace.append(float(best.sum() if distance == MADC else (best**2).sum()))
    # the first pass always moves off the -1 labels, so the trace is never empty
    return ClusterModel(
        centroids=centroids,
        assignments=assignments,
        distance=distance,
        inertia=trace[-1],
        iterations=iterations,
        seed=seed,
        inertia_trace=tuple(trace),
        n_reseeds=reseeds,
    )


def _kmeans(W, o, distance, seed, max_iter, restarts, init_indices) -> ClusterModel:
    """Lloyd fits from seeded starts, keeping the lowest-inertia one.

    Restart r draws from SeedSequence(seed, spawn_key=(r,)); ties go to the
    earliest restart.
    """
    _check_integer(o, "o")  # typed before the range check compares it
    if not 1 <= o <= W.n_dms:
        raise TooManyClusters(f"need 1 to {W.n_dms} clusters, got {o}")
    _check_seed(seed)
    _check_integer(max_iter, "max_iter", 1)
    _check_integer(restarts, "restarts", 1)
    if init_indices is not None:
        try:  # a number or a 0-d array has no length
            valid = len(init_indices) == o
        except TypeError:
            valid = False
        if not (valid and all(_is_integer(k) and 0 <= k < W.n_dms for k in init_indices)):
            raise InputError(f"init_indices must be {o} row indices below {W.n_dms}")
    reprs = W.values if distance == EUCLIDEAN else clr(W.values)
    best = None
    for restart in range(restarts if init_indices is None else 1):
        start = init_indices
        if start is None:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
            start = _seed_indices(reprs, o, rng, distance)
        fit = _lloyd(reprs, reprs[list(start)], distance, seed, max_iter)
        if best is None or fit.inertia < best.inertia:
            best = fit
    if distance == EUCLIDEAN:
        return best
    # clr means back to the simplex: the closed geometric means
    return replace(best, centroids=closed_exp(best.centroids))


def kmeans_compositional(
    W: PriorityMatrix,
    o: int,
    distance: str = AITCHISON,
    seed: int | None = None,
    max_iter: int = 300,
    restarts: int = 10,
    init_indices=None,
) -> ClusterModel:
    """Group DMs by a compositional distance with geometric-mean centroids.

    Runs ``restarts`` seeded initializations (distance-squared-proportional
    sampling from the data points) and keeps the lowest-inertia model.
    Assignments and centroids are deterministic given the seed. Passing
    ``init_indices`` pins the initial centroids to those DM rows and runs a
    single pass (used for cross-checks).
    """
    _check_choice(distance, (AITCHISON, MADC), "compositional distance")
    return _kmeans(W, o, distance, seed, max_iter, restarts, init_indices)


def kmeans_standard_baseline(
    W: PriorityMatrix,
    o: int,
    seed: int | None = None,
    max_iter: int = 300,
    restarts: int = 10,
    init_indices=None,
) -> ClusterModel:
    """Classic Euclidean K-means on the raw priorities (fallacious baseline).

    Centroids are arithmetic means, so nothing constrains them to the
    simplex; reports should flag this model accordingly.
    """
    return _kmeans(W, o, EUCLIDEAN, seed, max_iter, restarts, init_indices)

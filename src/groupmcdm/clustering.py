"""Compositional distances and K-means grouping of decision-makers.

The Euclidean distance on raw priorities ignores their ratio nature; the
proper distances compare full pairwise log-ratio representations:

* ``aitchison_distance``: Euclidean norm of the log-ratio difference.
* ``madc_distance``: L1 norm of the log-ratio difference.

``kmeans_compositional`` runs Lloyd iterations with a compositional distance
for assignment and the closed geometric mean as centroid update, so every
centroid is itself a valid composition. Note the geometric-mean update is the
exact minimizer only for the Aitchison distance; it is applied literally for
madc as well. ``kmeans_standard_baseline`` is the classic raw-space variant,
kept only to demonstrate what goes wrong without the compositional treatment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .composition import (
    Composition,
    PriorityMatrix,
    _pairwise_log_ratios,
    log_ratio_transform,
)
from .errors import DimensionMismatch, InputError, TooManyClusters

AITCHISON = "aitchison"
MADC = "madc"
EUCLIDEAN = "euclidean"


class EmptyClusterWarning(UserWarning):
    """A cluster lost all members and was re-seeded."""


def _as_parts(x) -> np.ndarray:
    return x.parts if isinstance(x, Composition) else np.asarray(x, dtype=float)


def aitchison_distance(w, v) -> float:
    """Euclidean distance between the pairwise log-ratio vectors of w and v."""
    a, b = _as_parts(w), _as_parts(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.linalg.norm(log_ratio_transform(a) - log_ratio_transform(b)))


def madc_distance(w, v) -> float:
    """Sum of absolute pairwise log-ratio differences between w and v."""
    a, b = _as_parts(w), _as_parts(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.abs(log_ratio_transform(a) - log_ratio_transform(b)).sum())


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted grouping of the K decision-makers.

    ``inertia`` is the clustering objective at the returned state: the sum of
    squared member-to-centroid distances for the L2-type distances (aitchison,
    euclidean) and the plain sum for madc. ``inertia_trace`` holds the value
    after each centroid update of the winning restart.
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
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def centroid_sums(self) -> np.ndarray:
        return self.centroids.sum(axis=1)


def _dist_matrix(reprs: np.ndarray, centroid_reprs: np.ndarray, norm: str) -> np.ndarray:
    delta = reprs[:, None, :] - centroid_reprs[None, :, :]
    if norm == "l1":
        return np.abs(delta).sum(axis=2)
    return np.sqrt((delta**2).sum(axis=2))


def _seed_indices(reprs: np.ndarray, o: int, rng, norm: str) -> list[int]:
    # distance-squared-proportional sampling among the data points
    K = reprs.shape[0]
    chosen = [int(rng.integers(K))]
    d2 = _dist_matrix(reprs, reprs[chosen], norm)[:, 0] ** 2
    while len(chosen) < o:
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(K, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(K), chosen)
            nxt = int(rng.choice(remaining))
        chosen.append(nxt)
        d2 = np.minimum(d2, _dist_matrix(reprs, reprs[[nxt]], norm)[:, 0] ** 2)
    return chosen


def _lloyd(raw, reprs, o, rng, norm, update_fn, repr_fn, max_iter, init_indices=None):
    K = raw.shape[0]
    if init_indices is None:
        init_indices = _seed_indices(reprs, o, rng, norm)
    elif len(init_indices) != o or not all(0 <= int(k) < K for k in init_indices):
        raise InputError(f"init_indices must be {o} row indices below {K}")
    centroids = raw[list(init_indices)].copy()
    # one distance matrix per centroid set: it serves both the objective of
    # the set and the next assignment step
    dists = _dist_matrix(reprs, repr_fn(centroids), norm)
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
            warnings.warn(
                f"re-seeded {len(empty)} empty cluster(s)", EmptyClusterWarning,
                stacklevel=4,
            )
        if (new_assignments == assignments).all():
            break
        assignments = new_assignments
        centroids = np.array(
            [update_fn(raw[assignments == c]) for c in range(o)]
        )
        dists = _dist_matrix(reprs, repr_fn(centroids), norm)
        trace.append(_objective(dists, assignments, norm))
    inertia = _objective(dists, assignments, norm)
    return centroids, assignments, inertia, iterations, tuple(trace), reseeds


def _objective(dists: np.ndarray, assignments: np.ndarray, norm: str) -> float:
    best = dists[np.arange(dists.shape[0]), assignments]
    return float((best**2).sum() if norm == "l2" else best.sum())


def _closed_geometric_mean(rows: np.ndarray) -> np.ndarray:
    g = np.exp(np.log(rows).mean(axis=0))
    return g / g.sum()


def _kmeans(W, o, distance, update_fn, repr_fn, seed, max_iter, restarts,
            init_indices) -> ClusterModel:
    """Lloyd fits from seeded starts, keeping the lowest-inertia one.

    Restart r draws from SeedSequence(seed, spawn_key=(r,)); ties go to the
    earliest restart.
    """
    if not 1 <= o <= W.n_dms:
        raise TooManyClusters(f"o={o} with {W.n_dms} decision-makers")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    if restarts < 1:
        raise InputError("restarts must be at least 1")
    norm = "l1" if distance == MADC else "l2"
    raw = W.values
    reprs = repr_fn(raw)
    best = None
    n_restarts = 1 if init_indices is not None else restarts
    for restart in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(restart,)))
        fit = _lloyd(raw, reprs, o, rng, norm, update_fn, repr_fn, max_iter, init_indices)
        if best is None or fit[2] < best[2]:
            best = fit
    centroids, assignments, inertia, iterations, trace, reseeds = best
    return ClusterModel(
        centroids=centroids,
        assignments=assignments,
        distance=distance,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        inertia_trace=trace,
        n_reseeds=reseeds,
    )


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
    if distance not in (AITCHISON, MADC):
        raise InputError(f"unknown compositional distance {distance!r}")
    return _kmeans(
        W, o, distance, _closed_geometric_mean, _pairwise_log_ratios,
        seed, max_iter, restarts, init_indices,
    )


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
    return _kmeans(
        W, o, EUCLIDEAN, lambda rows: rows.mean(axis=0), lambda c: c,
        seed, max_iter, restarts, init_indices,
    )

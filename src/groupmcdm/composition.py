"""Core simplex types and log-ratio machinery.

Priority vectors carry only ratio information, so every statistic here is
computed on log-ratios: means and distances on the n centred log-ratio (clr)
coordinates, per-pair statistics (median, MAD, spreads) on the n(n-1)/2
pairwise log-ratios ln(w_i / w_j). This module provides the closed (unit-sum)
composition type, the K-row priority matrix, both transforms, the pairwise
inverse, the average-array readout, and the multiplicative-transitivity check
for pairwise comparison matrices.

Pairs are always ordered lexicographically: (0,1), (0,2), ..., (n-2, n-1).
Every log-ratio vector in the package uses this ordering, so vectors from
different operations are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InconsistentArray,
    InconsistentLogRatios,
    InputError,
    NonPositiveEntry,
)

#: Tolerance for algebraic identities (closure, antisymmetry of built arrays).
CLOSURE_TOL = 1e-12
#: Tolerance for consistency of iteratively computed arrays.
CONSISTENCY_TOL = 1e-8


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of all ordered pairs i < j, lexicographic."""
    # same result as np.triu_indices(n, k=1), at a fifth of its cost for small n
    r = np.arange(n)
    return np.nonzero(r[:, None] < r)


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def dimension_from_pairs(m: int) -> int:
    """Invert m = n(n-1)/2; raises DimensionMismatch if m is not of that form."""
    n = int((1 + np.sqrt(1 + 8 * m)) / 2 + 0.5)
    if n < 2 or num_pairs(n) != m:
        raise DimensionMismatch(
            f"length {m} is not n(n-1)/2 for any integer n >= 2"
        )
    return n


def _validated_parts(raw, ndim: int = 1) -> np.ndarray:
    """``raw`` as C-ordered floats of shape (..., n) with ``ndim`` axes (1 or 2),
    n >= 2 and every part positive and finite."""
    # C order: each row then sums exactly as the same row on its own
    parts = np.asarray(raw, dtype=float, order="C")
    if parts.ndim != ndim:
        shape = "1-D vector" if ndim == 1 else "2-D matrix"
        raise DimensionMismatch(f"expected a {shape}, got shape {parts.shape}")
    if parts.shape[-1] < 2:
        raise DimensionTooSmall(parts.shape[-1])
    bad = ~(parts > 0) | ~np.isfinite(parts)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonPositiveEntry(int(first[-1]), float(parts[first]))
    return parts


def _closed(parts: np.ndarray) -> np.ndarray:
    """Close validated (..., n) parts to unit sum along the last axis.

    Returns a new array; raises if a part underflows to 0.
    """
    with np.errstate(over="ignore"):
        s = parts.sum(axis=-1, keepdims=True)
    over = ~np.isfinite(s)
    if over.any():  # a sum overflowed: rescale that row by its largest part
        parts = np.where(over, parts / parts.max(axis=-1, keepdims=True), parts)
        s = parts.sum(axis=-1, keepdims=True)
    closed = np.where(np.abs(s - 1.0) > CLOSURE_TOL, parts / s, parts)
    if not closed.all():
        k = np.unravel_index(np.argmin(closed), closed.shape)
        where = f"entry {k[0]}" if closed.ndim == 1 else f"row {k[0] + 1}, column {k[1] + 1}"
        raise InputError(f"weight at {where} underflows to 0 on closing to unit sum")
    return closed


@dataclass(frozen=True, eq=False)
class Composition:
    """A strictly positive vector closed to unit sum.

    Construction normalizes the parts, so any positive vector on any scale is
    accepted; only the ratios between parts survive. Instances are immutable
    (the backing array is marked read-only).

    Parameters
    ----------
    parts : array-like
        Strictly positive weights, length >= 2.
    labels : tuple of str, optional
        Criterion names, same length as ``parts``.
    """

    parts: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # _closed returns a new array: the caller's is left alone
        parts = _closed(_validated_parts(self.parts))
        parts.flags.writeable = False
        object.__setattr__(self, "parts", parts)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != parts.size:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {parts.size} parts"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.parts.size

    def __len__(self) -> int:
        return self.parts.size

    def __array__(self, dtype=None, copy=None):
        return np.array(self.parts, dtype=dtype)


def close(raw, labels=None) -> Composition:
    """Close a positive vector to unit sum.

    Idempotent: closing an already closed composition returns identical parts.
    Scale invariant: ``close(c * x)`` equals ``close(x)`` for any c > 0 up to
    floating-point rounding.
    """
    if isinstance(raw, Composition):
        return raw if labels is None else Composition(raw.parts, labels)
    return Composition(raw, labels)


@dataclass(frozen=True, eq=False)
class PriorityMatrix:
    """Priorities of K decision-makers over the same n criteria, one row each.

    Rows are closed on construction. ``values`` is the read-only (K, n) array.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 2 and values.shape[0] < 1:
            raise DimensionMismatch("need at least one decision-maker row")
        values = _closed(_validated_parts(values, ndim=2))
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != values.shape[1]:
                raise DimensionMismatch(
                    f"{len(labels)} labels for {values.shape[1]} criteria"
                )
            object.__setattr__(self, "labels", labels)

    @classmethod
    def from_rows(cls, rows) -> "PriorityMatrix":
        """Build from an iterable of Compositions sharing one label set."""
        rows = list(rows)
        labels = rows[0].labels if rows else None
        for r in rows:
            if r.labels != labels:
                raise DimensionMismatch("rows carry different label sets")
        return cls(np.array([r.parts for r in rows]), labels)

    @property
    def n_dms(self) -> int:
        return self.values.shape[0]

    @property
    def n_criteria(self) -> int:
        return self.values.shape[1]

    def row(self, k: int) -> Composition:
        return Composition(self.values[k], self.labels)

    def log_ratios(self) -> np.ndarray:
        """(K, n(n-1)/2) matrix of per-DM pairwise log-ratios."""
        return pair_differences(np.log(self.values))


def clr(values) -> np.ndarray:
    """Centred log-ratio coordinates of (..., n) positive values.

    ln v_i minus the mean of ln v over the last axis. Scale invariant, so rows
    need not be closed; inputs are not validated.
    """
    logs = np.log(values)
    return logs - logs.mean(axis=-1, keepdims=True)


def pair_differences(x: np.ndarray) -> np.ndarray:
    """Map (..., n) log-space coordinates to (..., n(n-1)/2) differences.

    The one pairwise transform: entry for pair (i, j), i < j, is x_i - x_j,
    pairs in lexicographic order. On logs (or clr) these are ln(v_i / v_j).
    """
    i, j = pair_indices(x.shape[-1])
    return x[..., i] - x[..., j]


def log_ratio_transform(w) -> np.ndarray:
    """Pairwise log-ratio vector of a composition.

    Entry for pair (i, j), i < j, is ln(w_i / w_j); pairs in lexicographic
    order. The result is scale invariant, so any positive vector is accepted.
    """
    parts = w.parts if isinstance(w, Composition) else _validated_parts(w)
    return pair_differences(np.log(parts))


def expand_log_ratios(v) -> np.ndarray:
    """Expand a pairwise log-ratio vector into the full n x n antisymmetric array."""
    v = np.asarray(v, dtype=float)
    n = dimension_from_pairs(v.size)
    i, j = pair_indices(n)
    full = np.zeros((n, n))
    full[i, j] = v
    full[j, i] = -v
    return full


def consistency_violation(xi: np.ndarray) -> float:
    """Largest additive-transitivity violation max |xi_ij - xi_ih - xi_hj|."""
    xi = np.asarray(xi, dtype=float)
    # one middle index h at a time: (n, n) temporaries instead of (n, n, n)
    return float(np.max([np.max(np.abs(xi[:, h, None] + xi[None, h, :] - xi))
                         for h in range(xi.shape[0])]))


def inverse_log_ratio(v, labels=None, tol: float = CONSISTENCY_TOL) -> Composition:
    """Recover the composition whose pairwise log-ratios are ``v``.

    Requires additive consistency (v_ij = v_ih + v_hj within ``tol``); under
    that precondition every reconstructed column closes to the same
    composition, and ``log_ratio_transform`` inverts this function.

    Raises
    ------
    InconsistentLogRatios
        If the consistency violation exceeds ``tol``.
    """
    xi = expand_log_ratios(v)
    violation = consistency_violation(xi)
    if violation > tol:
        raise InconsistentLogRatios(violation, tol)
    return Composition(np.exp(xi[:, 0]), labels)


def array_to_composition(e, labels=None, tol: float = CONSISTENCY_TOL) -> Composition:
    """Read an aggregated composition off a compositional average array.

    The array must be antisymmetric and additively consistent within ``tol``;
    the composition is then the closed exponential of any column (the first
    is used).
    """
    e = np.asarray(e, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise DimensionMismatch(f"expected a square array, got shape {e.shape}")
    if e.shape[0] < 2:
        raise DimensionTooSmall(e.shape[0])
    anti = float(np.max(np.abs(e + e.T)))
    if anti > tol:
        raise InconsistentArray(anti, tol, what="antisymmetry")
    violation = consistency_violation(e)
    if violation > tol:
        raise InconsistentArray(violation, tol)
    return Composition(np.exp(e[:, 0]), labels)


@dataclass(frozen=True, eq=False)
class Pcm:
    """Pairwise comparison matrix: positive, unit diagonal, reciprocal.

    Reciprocity m_ij * m_ji = 1 and a unit diagonal are enforced on
    construction (tolerance 1e-12 on both, relative for reciprocity).
    """

    values: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.values, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.all((m > 0) & np.isfinite(m)):
            bad = np.argwhere(~((m > 0) & np.isfinite(m)))[0]
            raise NonPositiveEntry(tuple(int(x) for x in bad), float(m[tuple(bad)]))
        if np.max(np.abs(np.diag(m) - 1.0)) > CLOSURE_TOL:
            raise InputError("PCM diagonal must be all ones")
        recip = float(np.max(np.abs(m * m.T - 1.0)))
        if recip > CLOSURE_TOL:
            raise InputError(
                f"PCM is not reciprocal: max |m_ij * m_ji - 1| = {recip:.3e}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "values", m)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def is_fully_consistent(m, tol: float) -> bool:
    """Whether a PCM satisfies multiplicative transitivity m_ij = m_ih * m_hj.

    The check is relative: |m_ij - m_ih * m_hj| <= tol * m_ij for all i, h, j.
    """
    values = m.values if isinstance(m, Pcm) else Pcm(m).values
    # P[i, h, j] = m[i, h] * m[h, j]
    through = values[:, :, None] * values[None, :, :]
    return bool(np.all(np.abs(through - values[:, None, :]) <= tol * values[:, None, :]))

"""Core simplex types and log-ratio machinery.

Priority vectors carry only ratio information, so every statistic here is
computed on log-ratios: means and distances on the n centred log-ratio (clr)
coordinates, per-pair statistics (median, MAD, spreads) on the n(n-1)/2
pairwise log-ratios ln(w_i / w_j). This module provides the closed (unit-sum)
composition type, the K-row priority matrix, both transforms and the one
readout, ``array_to_composition``, which the pairwise inverse also reaches
through ``expand_log_ratios``. A pairwise comparison matrix (PCM) m is
checked in the same log space: ``array_to_composition(np.log(m))`` reads off
its priority vector, or raises when m is not reciprocal or not transitive.
Per-pair statistics run through ``pair_statistic``, in blocks of at most
``PAIR_BLOCK`` elements; ``PriorityMatrix.log_ratios`` is the one-block case.

Pairs are always ordered lexicographically: (0,1), (0,2), ..., (n-2, n-1).
Every log-ratio vector in the package uses this ordering, so vectors from
different operations are directly comparable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InconsistentArray,
    InputError,
    NonPositiveEntry,
    _check_integer,
    _check_positive,
    _is_integer,
    position,
)

#: Tolerance for consistency of iteratively computed arrays.
CONSISTENCY_TOL = 1e-8
#: The one block size: elements per temporary of a per-pair statistic.
PAIR_BLOCK = 1 << 14


@lru_cache(maxsize=8)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of all ordered pairs i < j, lexicographic; cached, read-only."""
    # same result as np.triu_indices(n, k=1), at a fifth of its cost for small n
    r = np.arange(n)
    i, j = np.nonzero(r[:, None] < r)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def dimension_from_pairs(m: int) -> int:
    """Invert m = n(n-1)/2; raises DimensionMismatch if m is not of that form."""
    _check_integer(m, "length")
    n = (1 + math.isqrt(max(1 + 8 * m, 0))) // 2
    if n < 2 or n * (n - 1) // 2 != m:
        raise DimensionMismatch(
            f"length {m} is not n(n-1)/2 for any integer n >= 2"
        )
    return n


def _floats(x, what: str, ndim: int | None = None, finite: bool = False) -> np.ndarray:
    """The one coercion of array input: ``x`` as real floats with ``ndim`` axes (1 or 2), if
    given, and with ``finite`` no NaN or infinity; InputError or DimensionMismatch if not."""
    try:
        x = np.asarray(x)
        # numpy would cast complex input, also complex scalars of an object
        # array, to its real part with only a warning
        if np.iscomplexobj(x) or x.dtype == object and any(
                isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real)
                for v in x.flat):
            raise TypeError("got complex values")
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be real numbers: {exc}") from exc
    if ndim is not None and x.ndim != ndim:
        shape = "1-D vector" if ndim == 1 else "2-D matrix"
        raise DimensionMismatch(f"expected a {shape}, got shape {x.shape}")
    if finite and not np.isfinite(x).all():
        flat = int(np.argmin(np.isfinite(x)))
        where = position(divmod(flat, x.shape[1]) if x.ndim == 2 else flat)
        raise InputError(f"{what} must be finite, got {x.flat[flat]} at {where}")
    return x


def _validated_parts(raw, ndim: int = 1) -> np.ndarray:
    """``raw`` as C-ordered floats of shape (..., n) with ``ndim`` axes (1 or 2),
    n >= 2 and every part positive and finite."""
    # C order: each row then sums exactly as the same row on its own
    parts = np.ascontiguousarray(_floats(raw, "weights", ndim))
    if parts.shape[-1] < 2:
        raise DimensionTooSmall(parts.shape[-1])
    bad = ~(parts > 0) | ~np.isfinite(parts)
    if bad.any():
        first = tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))
        raise NonPositiveEntry(first if parts.ndim == 2 else first[0], float(parts[first]))
    return parts


def _closed(parts: np.ndarray) -> np.ndarray:
    """Close validated (..., n) parts to unit sum along the last axis.

    A row whose sum is within n * eps of 1 is left as it is, so closing is
    idempotent. Returns a new array; raises if a part underflows to 0.
    """
    with np.errstate(over="ignore"):
        s = parts.sum(axis=-1, keepdims=True)
    over = ~np.isfinite(s)
    if over.any():  # a sum overflowed: rescale that row by its largest part
        parts = np.where(over, parts / parts.max(axis=-1, keepdims=True), parts)
        s = parts.sum(axis=-1, keepdims=True)
    near = parts.shape[-1] * np.finfo(float).eps
    closed = np.where(np.abs(s - 1.0) > near, parts / s, parts)
    if not closed.all():
        k = np.unravel_index(np.argmin(closed), closed.shape)
        where = position(k if closed.ndim == 2 else k[0])
        raise InputError(f"weight at {where} underflows to 0 on closing to unit sum")
    return closed


def _labels(labels, n: int, what: str) -> tuple[str, ...] | None:
    """``labels`` as a tuple of n strings naming the ``what``; None stays None."""
    if labels is None:
        return None
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError:
        raise InputError(f"labels must be an iterable of names, got {labels!r}") from None
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} labels for {n} {what}")
    return labels


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
        object.__setattr__(self, "labels", _labels(self.labels, parts.size, "parts"))

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
        values = _closed(_validated_parts(self.values, ndim=2))
        if values.shape[0] < 1:
            raise DimensionMismatch("need at least one decision-maker row")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", _labels(self.labels, values.shape[1], "criteria"))

    @property
    def n_dms(self) -> int:
        return self.values.shape[0]

    @property
    def n_criteria(self) -> int:
        return self.values.shape[1]

    def row(self, k: int) -> Composition:
        if not (_is_integer(k) and 0 <= k < self.n_dms):
            raise InputError(f"need a decision-maker row in [0, {self.n_dms}), got {k!r}")
        return Composition(self.values[k], self.labels)

    def log_ratios(self) -> np.ndarray:
        """(K, n(n-1)/2) matrix of per-DM pairwise log-ratios, in one block."""
        return pair_differences(np.log(self.values))


def clr(values) -> np.ndarray:
    """Centred log-ratio coordinates of (..., n) positive values.

    ln v_i minus the mean of ln v over the last axis. Scale invariant, so rows
    need not be closed; inputs are not validated.
    """
    logs = np.log(values)
    return logs - logs.mean(axis=-1, keepdims=True)


def closed_exp(x: np.ndarray) -> np.ndarray:
    """Inverse of clr: exp of (..., n) log-space coordinates, closed per row.

    Rows are shifted by their maximum first, so no part overflows."""
    return _closed(np.exp(x - x.max(axis=-1, keepdims=True)))


def block_width(size: int) -> int:
    """How many items of ``size`` elements fit in one PAIR_BLOCK; at least 1."""
    return max(1, PAIR_BLOCK // size)


def pair_statistic(x: np.ndarray, stat, width: int | None = None) -> np.ndarray:
    """One value per column pair i < j of (K, n) log-space rows ``x``, from
    ``stat(block, pairs)`` on consecutive (K, b) blocks of x_i - x_j, ``pairs``
    the slice of the lexicographic pair axis a block covers. Blocks hold
    ``width`` pairs, by default as many as fit in PAIR_BLOCK elements, and are
    column-major: a sum over DMs adds in the same order at every width."""
    i, j = pair_indices(x.shape[1])
    width = width or block_width(x.shape[0])
    out = np.empty(i.size)
    for s in range(0, i.size, width):
        pairs = slice(s, s + width)
        out[pairs] = stat(x[:, i[pairs]] - x[:, j[pairs]], pairs)
    return out


def _median(d: np.ndarray) -> np.ndarray:
    """``np.median(d, axis=0)`` bit for bit, for (K, m) ``d`` holding no NaN, as
    logs of validated positive weights hold none: the same partition and mean
    of the middle row or rows, without np.median's NaN check, which imports
    ``numpy.ma``."""
    h = d.shape[0] // 2
    middle = [h] if d.shape[0] % 2 else [h - 1, h]
    return np.partition(d, middle, axis=0)[middle].mean(axis=0)


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
    v = _floats(v, "log-ratios", ndim=1)
    n = dimension_from_pairs(v.size)
    i, j = pair_indices(n)
    full = np.zeros((n, n))
    full[i, j] = v
    full[j, i] = -v
    return full


def consistency_violation(xi: np.ndarray) -> float:
    """Largest additive-transitivity violation max |xi_ij - xi_ih - xi_hj|."""
    xi = _floats(xi, "average array", ndim=2)
    # one middle index h at a time: (n, n) temporaries instead of (n, n, n)
    return float(np.max([np.max(np.abs(xi[:, h, None] + xi[None, h, :] - xi))
                         for h in range(xi.shape[0])]))


def inverse_log_ratio(v, labels=None, tol: float = CONSISTENCY_TOL) -> Composition:
    """Recover the composition whose pairwise log-ratios are ``v``.

    Requires additive consistency (v_ij = v_ih + v_hj within ``tol``); under
    that precondition every reconstructed column closes to the same
    composition, and ``log_ratio_transform`` inverts this function. ``v`` is
    expanded to its n x n array and read out by ``array_to_composition``.

    Raises
    ------
    InputError
        If ``v`` is not a finite 1-D vector, or ``tol`` not a positive finite real
        (``v`` is checked first).
    InconsistentArray
        If the consistency violation exceeds ``tol``.
    """
    v = _floats(v, "log-ratios", ndim=1, finite=True)
    return array_to_composition(expand_log_ratios(v), labels, tol)


def array_to_composition(e, labels=None, tol: float = CONSISTENCY_TOL) -> Composition:
    """Read an aggregated composition off a compositional average array.

    The array must be finite, antisymmetric and additively consistent within ``tol``;
    the composition is then the closed exponential of any column (the first
    is used). ``tol`` is a real number, not a bool, positive and finite. The
    check costs O(n^2) on an array the first column's misfit clears; any other
    is scanned over all triples, and the exact violation decides and is reported.

    On ``np.log(m)`` of a pairwise comparison matrix m this is the PCM check:
    it returns m's priority vector, or raises when m is not reciprocal or not
    transitive. ``tol`` is then absolute in log space, so it bounds
    |ln(m_ih * m_hj / m_ij)|, to first order the relative error of m_ih * m_hj.
    """
    _check_positive(tol, "tol")
    e = _floats(e, "average array", finite=True)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise DimensionMismatch(f"expected a square array, got shape {e.shape}")
    if e.shape[0] < 2:
        raise DimensionTooSmall(e.shape[0])
    x = e[:, 0]
    # with miss_ij = x_i - x_j - e_ij, e_ih + e_hj - e_ij = miss_ij - miss_ih - miss_hj and
    # e_ij + e_ji = -miss_ij - miss_ji: 3 max|miss| bounds both checks, 32 eps max|e| their
    # rounding, so only an array this bound fails is scanned in O(n^3). An entry near the
    # float limit overflows to inf, which fails every check without a warning.
    with np.errstate(over="ignore"):
        bound = 3 * np.max(np.abs(x[:, None] - x - e))
        if bound + 32 * np.finfo(float).eps * np.max(np.abs(e)) > tol:
            anti = float(np.max(np.abs(e + e.T)))
            if anti > tol:
                raise InconsistentArray(anti, tol, what="antisymmetry")
            violation = consistency_violation(e)
            if violation > tol:
                raise InconsistentArray(violation, tol)
    return Composition(closed_exp(x), labels)

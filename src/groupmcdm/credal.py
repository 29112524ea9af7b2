"""Pairwise statistical comparison of criteria importance across a group.

Raw weights of two criteria must never be subtracted: only the ratio carries
information. Every test here therefore works on the per-DM log-ratios
ln(W_ki / W_kj).

* ``signed_rank_summary``: classic signed-rank bookkeeping (ranks of absolute
  log-ratios, positive/negative rank sums, T statistic) for frequentist use.
* ``bayesian_signed_rank``: posterior probability that criterion i outweighs
  criterion j, via Dirichlet weighting of the log-ratios augmented with one
  pseudo-observation at zero, scored on Walsh averages (the Bayesian
  counterpart of the signed-rank test).
* ``sign_test``: beta-binomial posterior from win/loss counts.
* ``credal_ranking``: one credal ordering per criterion pair.

Both tests score (min(i, j), max(i, j)) and complement a reversed pair, so
for either test the pair call equals ``credal_ranking(...).ordering(i, j)``.

Determinism: the Bayesian test's Dirichlet weights index the DMs, not the
criterion pairs, so a panel makes one stream of S weight vectors from
``default_rng(seed)`` and scores every pair against it. A pair's posterior
thus depends only on its log-ratios, the seed, S and the prior, and
relabelling the criteria permutes the ranking exactly. Drawn in chunks of at
most ``_DRAW_BLOCK`` elements, the stream needs no memory growing with S
and gives the seeded output of one draw: the chunks continue it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composition import PriorityMatrix, block_width, pair_indices, pair_statistic
from .errors import (AllZeroRatios, InputError, InsufficientSamples, NumericError,
                     _check_choice, _check_integer, _check_positive, _check_seed, _is_integer)

BAYES_WILCOXON = "bayes-wilcoxon"
SIGN_TEST = "sign"

#: Confidence band treated as "no practical difference" in displays.
EQUAL_REGION = (0.45, 0.55)


@dataclass(frozen=True, eq=False)
class SignedRankSummary:
    """Rank bookkeeping for one criterion pair.

    ``signed_ranks`` is aligned with the DM rows; a zero marks a DM whose two
    weights are exactly equal (dropped before ranking, classic convention).
    ``r_plus``/``r_minus`` sum the ranks of positive/negative log-ratios and
    always satisfy r_plus + r_minus = m(m+1)/2 with m = K - dropped.
    """

    i: int
    j: int
    log_ratios: np.ndarray
    signed_ranks: np.ndarray
    r_plus: float
    r_minus: float
    t_stat: float
    dropped: int

    @property
    def ranks(self) -> np.ndarray:
        """Unsigned ranks in DM order (zero where dropped)."""
        return np.abs(self.signed_ranks)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; each run of equal values shares its mean position."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _check_pair(W: PriorityMatrix, i: int, j: int) -> None:
    """The one pair-index rule: i != j, both integers in [0, n)."""
    if not (_is_integer(i) and _is_integer(j) and i != j
            and 0 <= i < W.n_criteria and 0 <= j < W.n_criteria):
        raise InputError(f"need two distinct criteria in [0, {W.n_criteria}), got {i} and {j}")


def signed_rank_summary(W: PriorityMatrix, i: int, j: int) -> SignedRankSummary:
    """Rank the per-DM log-ratios of criteria i and j by absolute magnitude.

    Ties receive the average rank. Raises AllZeroRatios when every DM weighs
    the two criteria identically.
    """
    _check_pair(W, i, j)
    lr = np.log(W.values[:, i]) - np.log(W.values[:, j])
    keep = lr != 0.0
    if not keep.any():
        raise AllZeroRatios(f"criteria {i} and {j} tie for every decision-maker")
    ranks = _average_ranks(np.abs(lr[keep]))
    signed = np.zeros(W.n_dms)
    signed[keep] = ranks * np.sign(lr[keep])
    r_plus = float(signed[signed > 0].sum())
    r_minus = float((-signed[signed < 0]).sum())
    return SignedRankSummary(
        i=i,
        j=j,
        log_ratios=lr,
        signed_ranks=signed,
        r_plus=r_plus,
        r_minus=r_minus,
        t_stat=min(r_plus, r_minus),
        dropped=int((~keep).sum()),
    )


@dataclass(frozen=True)
class CredalOrdering:
    """Pairwise importance relation with its confidence.

    ``p_greater`` is the posterior probability that criterion ``i`` is more
    important than criterion ``j``; the two directions of a pair carry
    complementary values. ``confidence`` is the probability of the reported
    relation, i.e. max(p, 1 - p).
    """

    i: int
    j: int
    p_greater: float
    test: str

    @property
    def relation(self) -> str:
        if self.p_greater > 0.5:
            return ">"
        if self.p_greater < 0.5:
            return "<"
        return "="

    @property
    def confidence(self) -> float:
        return max(self.p_greater, 1.0 - self.p_greater)

    @property
    def in_equal_region(self) -> bool:
        lo, hi = EQUAL_REGION
        return lo <= self.p_greater <= hi


#: Largest K + 1 scored by the matrix-product form, O(S K^2) per pair in
#: BLAS; above it the sorted prefix-sum form, O(S K log K) per pair, wins.
_MATRIX_FORM_MAX = 48
#: Elements per chunk of the S Dirichlet draws, so memory does not grow with S.
_DRAW_BLOCK = 1 << 17


def _walsh_wins(V: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Draws with stat > 0, plus half those with stat = 0, per column of V.

    V (K+1, pairs) holds each pair's log-ratios below the pseudo-observation
    0; g (S, K+1) holds the draws. stat = sum_{a<=b} g_a g_b sign(v_a + v_b).
    The matrix form signs all pairs at once: given block_width(m(m+1)/2) pairs
    or fewer, its sign block keeps within PAIR_BLOCK elements. Counting exact
    zeros as one half maps all-equal data to S/2, makes the counts of V and -V
    sum to exactly S, and makes counts add exactly over chunks of draws.
    """
    S, m = g.shape
    wins = np.zeros(V.shape[1])
    if m <= _MATRIX_FORM_MAX:
        a, b = np.triu_indices(m)
        step = block_width(a.size)
        # fancy indexing copies; the in-place steps keep one fewer
        # temporary alive, which shows in the resident memory of `rank`
        signs = V[a]
        signs += V[b]
        np.sign(signs, out=signs)
        for s in range(0, S, step):
            weights = g[s:s + step, a]
            weights *= g[s:s + step, b]
            stat = weights @ signs
            wins += (stat > 0).sum(axis=0) + 0.5 * (stat == 0).sum(axis=0)
        return wins
    # twice stat: each a weighs the g-mass above -v_a minus the mass below it,
    # read off prefix sums of g in ascending order of v
    step = block_width(m)
    for p, v in enumerate(V.T):
        order = np.argsort(v, kind="stable")
        ordered = v[order]
        # the keys -v in ascending order search fastest; scatter back through order
        below, upto = np.empty((2, m), dtype=np.intp)
        below[order[::-1]] = np.searchsorted(ordered, -ordered[::-1], side="left")
        upto[order[::-1]] = np.searchsorted(ordered, -ordered[::-1], side="right")
        sv = np.sign(v)
        for s in range(0, S, step):
            chunk = g[s:s + step]
            prefix = np.zeros((chunk.shape[0], m + 1))
            np.cumsum(np.take(chunk, order, axis=1), axis=1, out=prefix[:, 1:])
            # in place, in the order of total - upto - below + chunk * sv
            mass = prefix.take(upto, axis=1)
            np.subtract(prefix[:, -1:], mass, out=mass)
            mass -= prefix.take(below, axis=1)
            mass += chunk * sv
            stat = np.einsum("sa,sa->s", chunk, mass)
            wins[p] += (stat > 0).sum() + 0.5 * (stat == 0).sum()
    return wins


def _check_knobs(mc_samples: int = 1000, seed=None, prior_weight: float = 1.0,
                 prior_a: float = 1.0, prior_b: float = 1.0) -> None:
    """The one range rule of each credal knob, checked whichever test uses it."""
    _check_integer(mc_samples, "mc_samples", 1000)
    _check_seed(seed)
    _check_positive(prior_weight, "prior_weight")
    _check_positive(prior_a, "beta prior parameters")
    _check_positive(prior_b, "beta prior parameters")


def _bayes_posteriors(values: np.ndarray, mc_samples: int, seed,
                      prior_weight: float) -> np.ndarray:
    """P(column i outweighs column j), i < j, of (K, n) ``values``, on one stream."""
    K = values.shape[0]
    if K < 2:
        raise InsufficientSamples("the Bayesian signed-rank test needs K >= 2")
    _check_knobs(mc_samples=mc_samples, seed=seed, prior_weight=prior_weight)
    alpha = np.concatenate(([prior_weight], np.ones(K)))
    rng = np.random.default_rng(seed)
    rows = max(1, _DRAW_BLOCK // (K + 1))
    # a zero first row heads each block with the pseudo-observation 0
    x = np.vstack((np.zeros(values.shape[1]), np.log(values)))
    wins = 0.0
    for s in range(0, mc_samples, rows):
        g = rng.dirichlet(alpha, size=min(rows, mc_samples - s))
        wins += pair_statistic(x, lambda V, _: _walsh_wins(V, g),
                               block_width((K + 1) * (K + 2) // 2))
    return wins / mc_samples


def _sign_posteriors(values: np.ndarray, prior_a: float, prior_b: float) -> np.ndarray:
    """``sign_test``'s P(column i outweighs column j) for each pair i < j of
    the (K, n) ``values``, one ``betainc`` call per pair block. The only
    function that imports scipy, on call: other commands load numpy alone."""
    from scipy.special import betainc

    _check_knobs(prior_a=prior_a, prior_b=prior_b)
    # P(Beta(a + s, b + f) > 1/2) = I_{1/2}(b + f, a + s)
    p = pair_statistic(values, lambda d, _: betainc(
        prior_b + (d < 0).sum(axis=0), prior_a + (d > 0).sum(axis=0), 0.5))
    if not np.isfinite(p).all():  # scipy's betainc is NaN with both priors near 1e16
        raise NumericError("sign test posterior is not finite at beta priors"
                           f" prior_a={prior_a!r}, prior_b={prior_b!r}")
    return p


def _one_pair(W: PriorityMatrix, i: int, j: int, test: str, posteriors, *args) -> CredalOrdering:
    """Score (min(i, j), max(i, j)) by ``posteriors(values, *args)`` of its
    (K, 2) columns of ``W.values``; a reversed pair gets the exact complement."""
    _check_pair(W, i, j)
    lo, hi = sorted((i, j))
    p = posteriors(W.values[:, [lo, hi]], *args).item()
    return CredalOrdering(i=i, j=j, p_greater=p if i == lo else 1.0 - p, test=test)


def bayesian_signed_rank(
    W: PriorityMatrix,
    i: int,
    j: int,
    mc_samples: int = 10_000,
    seed: int | None = None,
    prior_weight: float = 1.0,
) -> CredalOrdering:
    """Bayesian signed-rank comparison of criteria i and j.

    Deterministic for a fixed seed and equal to ``credal_ranking`` on this
    pair: both score (min, max) on the panel's one draw, and a reversed pair
    gets the exact complement.
    """
    return _one_pair(W, i, j, BAYES_WILCOXON, _bayes_posteriors, mc_samples, seed, prior_weight)


def sign_test(
    W: PriorityMatrix,
    i: int,
    j: int,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> CredalOrdering:
    """Beta-binomial comparison from per-DM win counts.

    The pair is scored as (lo, hi) = (min(i, j), max(i, j)): with s DMs
    favoring lo and f favoring hi (ties excluded from both counts), the
    confidence that lo outweighs hi is P(p > 1/2) under
    Beta(prior_a + s, prior_b + f), evaluated with the regularized incomplete
    beta function. The prior thus belongs to the lower-indexed criterion, as
    in ``credal_ranking``, and a reversed pair gets the exact complement.
    """
    return _one_pair(W, i, j, SIGN_TEST, _sign_posteriors, prior_a, prior_b)


@dataclass(frozen=True)
class CredalRanking:
    """Credal orderings for every unordered criterion pair."""

    orderings: tuple[CredalOrdering, ...]
    test: str
    labels: tuple[str, ...] | None = None
    mc_samples: int | None = None
    seed: int | None = None

    @cached_property
    def _by_pair(self) -> dict:
        return {(o.i, o.j): o for o in self.orderings}

    def ordering(self, i: int, j: int) -> CredalOrdering:
        """The stored ordering for a pair, complemented if queried reversed."""
        if (i, j) in self._by_pair:
            return self._by_pair[i, j]
        if (j, i) in self._by_pair:
            o = self._by_pair[j, i]
            return CredalOrdering(i=i, j=j, p_greater=1.0 - o.p_greater, test=o.test)
        raise InputError(f"no ordering for pair ({i}, {j})")


def credal_ranking(
    W: PriorityMatrix,
    test: str = BAYES_WILCOXON,
    mc_samples: int = 10_000,
    seed: int | None = None,
    prior_weight: float = 1.0,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> CredalRanking:
    """One credal ordering per unordered criterion pair, i < j.

    Every knob is validated, used or not, before the Bayesian test's one draw.
    """
    _check_knobs(mc_samples, seed, prior_weight, prior_a, prior_b)
    _check_choice(test, (BAYES_WILCOXON, SIGN_TEST), "test")
    if test == BAYES_WILCOXON:
        p = _bayes_posteriors(W.values, mc_samples, seed, prior_weight)
    else:
        p = _sign_posteriors(W.values, prior_a, prior_b)
    i, j = pair_indices(W.n_criteria)
    return CredalRanking(
        orderings=tuple(CredalOrdering(i=a, j=b, p_greater=q, test=test)
                        for a, b, q in zip(i.tolist(), j.tolist(), p.tolist())),
        test=test,
        labels=W.labels,
        mc_samples=mc_samples if test == BAYES_WILCOXON else None,
        seed=seed if test == BAYES_WILCOXON else None,
    )

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

Determinism: the Bayesian test's Dirichlet weights index the DMs, not the
criterion pairs, so a panel makes one draw of S weight vectors from
``default_rng(seed)`` and scores every pair against it. A pair's posterior
thus depends only on its log-ratios, the seed, S and the prior:
``credal_ranking`` and ``bayesian_signed_rank`` agree on it exactly, and
relabelling the criteria permutes the ranking exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .composition import PriorityMatrix, pair_indices
from .errors import AllZeroRatios, InputError, InsufficientSamples

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


def signed_rank_summary(W: PriorityMatrix, i: int, j: int) -> SignedRankSummary:
    """Rank the per-DM log-ratios of criteria i and j by absolute magnitude.

    Ties receive the average rank. Raises AllZeroRatios when every DM weighs
    the two criteria identically.
    """
    if i == j:
        raise InputError("need two distinct criteria")
    lr = np.log(W.values[:, i] / W.values[:, j])
    keep = lr != 0.0
    if not keep.any():
        raise AllZeroRatios(f"criteria {i} and {j} tie for every decision-maker")
    ranks = _average_ranks(np.abs(lr[keep]))
    signed = np.zeros(W.n_dms)
    signed[keep] = ranks * np.sign(lr[keep])
    r_plus = float(signed[signed > 0].sum())
    r_minus = float(-signed[signed < 0].sum())
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


#: Elements per temporary of the Walsh kernel: draws or pairs per chunk
#: times the observations (or observation pairs) they span.
_BLOCK = 1 << 14
#: Largest K + 1 scored by the matrix-product form, O(S K^2) per pair in
#: BLAS; above it the sorted prefix-sum form, O(S K log K) per pair, wins.
_MATRIX_FORM_MAX = 48


def _walsh_sign_posteriors(V: np.ndarray, g: np.ndarray) -> np.ndarray:
    """P(stat > 0) + P(stat = 0) / 2 for each column of V under draws g.

    V (K+1, pairs) holds each pair's log-ratios below the pseudo-observation
    0; g (S, K+1) holds the draws. stat = sum_{a<=b} g_a g_b sign(v_a + v_b).
    Counting exact zeros as one half maps all-equal data to 0.5 and makes the
    posteriors of V and -V sum to exactly 1.
    """
    S, m = g.shape
    wins = np.zeros(V.shape[1])
    if m <= _MATRIX_FORM_MAX:
        a, b = np.triu_indices(m)
        step = max(1, _BLOCK // a.size)
        for q in range(0, V.shape[1], step):
            # fancy indexing copies; the in-place steps keep one fewer
            # temporary alive, which shows in the resident memory of `rank`
            signs = V[a, q:q + step]
            signs += V[b, q:q + step]
            np.sign(signs, out=signs)
            for s in range(0, S, step):
                weights = g[s:s + step, a]
                weights *= g[s:s + step, b]
                stat = weights @ signs
                wins[q:q + step] += (stat > 0).sum(axis=0) + 0.5 * (stat == 0).sum(axis=0)
        return wins / S
    # twice stat: each a weighs the g-mass above -v_a minus the mass below it,
    # read off prefix sums of g in ascending order of v
    step = max(1, _BLOCK // m)
    for p, v in enumerate(V.T):
        order = np.argsort(v, kind="stable")
        below = np.searchsorted(v[order], -v, side="left")
        upto = np.searchsorted(v[order], -v, side="right")
        for s in range(0, S, step):
            chunk = g[s:s + step]
            prefix = np.zeros((chunk.shape[0], m + 1))
            np.cumsum(np.take(chunk, order, axis=1), axis=1, out=prefix[:, 1:])
            mass = prefix[:, -1:] - np.take(prefix, upto, axis=1) - np.take(prefix, below, axis=1)
            stat = np.einsum("sa,sa->s", chunk, mass + chunk * np.sign(v))
            wins[p] += (stat > 0).sum() + 0.5 * (stat == 0).sum()
    return wins / S


def _bayes_posteriors(W: PriorityMatrix, i: np.ndarray, j: np.ndarray,
                      mc_samples: int, seed, prior_weight: float) -> np.ndarray:
    """P(criterion i[k] outweighs j[k]) for each k, on the panel's one draw."""
    if W.n_dms < 2:
        raise InsufficientSamples("the Bayesian signed-rank test needs K >= 2")
    if mc_samples < 1000:
        raise InputError("mc_samples must be at least 1000")
    if not prior_weight > 0:
        raise InputError("prior_weight must be positive")
    alpha = np.concatenate(([prior_weight], np.ones(W.n_dms)))
    g = np.random.default_rng(seed).dirichlet(alpha, size=mc_samples)
    logs = np.log(W.values)
    m = W.n_dms + 1
    block = max(1, 2 * _BLOCK // (m * (m + 1)))  # pairs per V: one matrix-form sign block
    p = np.empty(i.size)
    for k in range(0, i.size, block):
        V = np.zeros((m, min(block, i.size - k)))
        np.subtract(logs[:, i[k:k + block]], logs[:, j[k:k + block]], out=V[1:])
        p[k:k + block] = _walsh_sign_posteriors(V, g)
    return p


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
    if i == j:
        raise InputError("need two distinct criteria")
    lo, hi = (i, j) if i < j else (j, i)
    d_lo = _bayes_posteriors(W, np.array([lo]), np.array([hi]), mc_samples, seed,
                             prior_weight).item()
    p = d_lo if i == lo else 1.0 - d_lo
    return CredalOrdering(i=i, j=j, p_greater=p, test=BAYES_WILCOXON)


def sign_test(
    W: PriorityMatrix,
    i: int,
    j: int,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
) -> CredalOrdering:
    """Beta-binomial comparison from per-DM win counts.

    With s DMs favoring i and f favoring j (ties excluded from both counts),
    the confidence that i outweighs j is P(p > 1/2) under
    Beta(prior_a + s, prior_b + f), evaluated with the regularized incomplete
    beta function. With a symmetric prior the two directions of a pair are
    exact complements.

    This is the only function that imports scipy (``scipy.special.betainc``),
    and only when called, so other commands and library calls load numpy
    alone.
    """
    # imported on use: loading it takes longer than a CLI run without it
    from scipy.special import betainc

    if i == j:
        raise InputError("need two distinct criteria")
    if not (prior_a > 0 and prior_b > 0):
        raise InputError("beta prior parameters must be positive")
    s = int((W.values[:, i] > W.values[:, j]).sum())
    f = int((W.values[:, i] < W.values[:, j]).sum())
    if prior_a == prior_b and i > j:
        # mirror of the canonical (j, i) computation, exact complement
        p = 1.0 - betainc(prior_b + s, prior_a + f, 0.5)
    else:
        # P(Beta(a + s, b + f) > 1/2) = I_{1/2}(b + f, a + s)
        p = float(betainc(prior_b + f, prior_a + s, 0.5))
    return CredalOrdering(i=i, j=j, p_greater=p, test=SIGN_TEST)


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

    Arguments are validated before the Bayesian test's one draw per panel.
    """
    i, j = pair_indices(W.n_criteria)
    if test == BAYES_WILCOXON:
        p = _bayes_posteriors(W, i, j, mc_samples, seed, prior_weight)
        orderings = [CredalOrdering(i=a, j=b, p_greater=q, test=test)
                     for a, b, q in zip(i.tolist(), j.tolist(), p.tolist())]
    elif test == SIGN_TEST:
        orderings = [sign_test(W, a, b, prior_a, prior_b)
                     for a, b in zip(i.tolist(), j.tolist())]
    else:
        raise InputError(f"unknown test {test!r}")
    return CredalRanking(
        orderings=tuple(orderings),
        test=test,
        labels=W.labels,
        mc_samples=mc_samples if test == BAYES_WILCOXON else None,
        seed=seed if test == BAYES_WILCOXON else None,
    )

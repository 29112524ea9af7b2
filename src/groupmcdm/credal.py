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

Determinism: Monte Carlo draws for a pair are taken from a substream derived
from (seed, unordered pair), so results do not depend on evaluation order and
the two directions of one pair are exact complements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import PriorityMatrix
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


def _walsh_sign_posterior(z: np.ndarray, mc_samples: int, rng, prior_weight: float) -> float:
    """P(population pseudo-median of z exceeds zero) under Dirichlet weighting.

    Augments z with one pseudo-observation at zero carrying ``prior_weight``,
    draws simplex weights g, and scores the g-weighted sign sum over all
    Walsh averages (z_a + z_b) / 2, a <= b. Exact-zero sums count one half,
    which keeps d(i > j) + d(j > i) = 1 and maps all-equal data to 0.5.
    """
    values = np.concatenate(([0.0], z))
    alpha = np.concatenate(([prior_weight], np.ones(z.size)))
    signs = np.sign(values[:, None] + values[None, :])
    g = rng.dirichlet(alpha, size=mc_samples)
    # sum_{a<=b} g_a g_b signs_ab is sign-equivalent to full + diag:
    full = np.einsum("si,si->s", g, g @ signs)
    diag = (g * g) @ np.diag(signs)
    stat = full + diag
    return float(((stat > 0).sum() + 0.5 * (stat == 0).sum()) / mc_samples)


def bayesian_signed_rank(
    W: PriorityMatrix,
    i: int,
    j: int,
    mc_samples: int = 10_000,
    seed: int | None = None,
    prior_weight: float = 1.0,
) -> CredalOrdering:
    """Bayesian signed-rank comparison of criteria i and j.

    Deterministic for a fixed seed. The Monte Carlo stream depends only on
    the unordered pair, so swapping i and j yields the exact complement.
    """
    if i == j:
        raise InputError("need two distinct criteria")
    if W.n_dms < 2:
        raise InsufficientSamples("the Bayesian signed-rank test needs K >= 2")
    if mc_samples < 1000:
        raise InputError("mc_samples must be at least 1000")
    if not prior_weight > 0:
        raise InputError("prior_weight must be positive")
    lo, hi = (i, j) if i < j else (j, i)
    z = np.log(W.values[:, lo] / W.values[:, hi])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo, hi)))
    d_lo = _walsh_sign_posterior(z, mc_samples, rng, prior_weight)
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

    def ordering(self, i: int, j: int) -> CredalOrdering:
        """The stored ordering for a pair, complemented if queried reversed."""
        for o in self.orderings:
            if (o.i, o.j) == (i, j):
                return o
            if (o.i, o.j) == (j, i):
                return CredalOrdering(
                    i=i, j=j, p_greater=1.0 - o.p_greater, test=o.test
                )
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
    """One credal ordering per unordered criterion pair, i < j."""
    n = W.n_criteria
    orderings = []
    for i in range(n):
        for j in range(i + 1, n):
            if test == BAYES_WILCOXON:
                orderings.append(
                    bayesian_signed_rank(
                        W, i, j, mc_samples=mc_samples, seed=seed,
                        prior_weight=prior_weight,
                    )
                )
            elif test == SIGN_TEST:
                orderings.append(sign_test(W, i, j, prior_a, prior_b))
            else:
                raise InputError(f"unknown test {test!r}")
    return CredalRanking(
        orderings=tuple(orderings),
        test=test,
        labels=W.labels,
        mc_samples=mc_samples if test == BAYES_WILCOXON else None,
        seed=seed if test == BAYES_WILCOXON else None,
    )
